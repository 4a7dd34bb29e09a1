"""Key=value config parsing, range policing, and round trips."""

import cmath
import math

import pytest

from polsim.config import (
    DEFAULTS,
    build_configs,
    format_config,
    load_config,
    parse_config_text,
)
from polsim.errors import ConfigError, ParameterError
from polsim.tomography import DetectorModel
from polsim.zwm import ZwmConfig

ALL_KEYS = [
    "g1_mag",
    "g1_phase_rad",
    "g2_mag",
    "g2_phase_rad",
    "t_phase_rad",
    "phi_s1_rad",
    "phi_s2_rad",
    "phi_i_rad",
    "eta_idler",
    "bs_tx",
    "bs_ty",
    "mu_overlap",
    "kappa_cps",
    "time_s",
    "dark_cps",
]


def test_defaults_expose_exactly_the_documented_keys():
    assert sorted(DEFAULTS) == sorted(ALL_KEYS)
    assert DEFAULTS["eta_idler"] == 1.0
    assert DEFAULTS["kappa_cps"] == 3333.0
    assert DEFAULTS["time_s"] == 15.0
    assert DEFAULTS["dark_cps"] == 0.0


def test_empty_text_yields_defaults():
    assert parse_config_text("") == DEFAULTS
    assert parse_config_text("\n\n   \n") == DEFAULTS


def test_comments_and_whitespace_are_ignored():
    text = """
    # pump settings
    g1_mag = 0.02   # stronger first crystal

    eta_idler=0.5
    """
    values = parse_config_text(text)
    assert values["g1_mag"] == 0.02
    assert values["eta_idler"] == 0.5
    assert values["g2_mag"] == DEFAULTS["g2_mag"]


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("g1_mag = 0.01\ng1_mag = 0.02\n", "duplicate", 2),
        ("nonsense_key = 1\n", "unknown", 1),
        ("eta_idler = fast\n", "number", 1),
        ("eta_idler 0.5\n", "=", 1),
        ("\neta_idler = inf\n", "finite", 2),
        ("eta_idler = nan\n", "finite", 1),
    ],
)
def test_malformed_lines_report_line_numbers(text, fragment, line):
    """A line that does not parse is a ConfigError; a non-finite value parses,
    and is a range error, a ParameterError."""
    error = ParameterError if fragment == "finite" else ConfigError
    with pytest.raises(error) as err:
        parse_config_text(text)
    msg = str(err.value)
    assert fragment in msg
    assert f"line {line}" in msg


@pytest.mark.parametrize(
    "key,value",
    [
        ("bs_ty", 1.2),
        ("g1_mag", 0.0),
        ("g1_mag", 1e-101),
        ("g1_mag", 0.2),
        ("g2_mag", -0.01),
        ("eta_idler", 1.5),
        ("bs_tx", -0.1),
        ("mu_overlap", 2.0),
        ("kappa_cps", -1.0),
        ("time_s", 0.0),
        ("dark_cps", -3.0),
    ],
)
def test_out_of_range_values_name_the_key(key, value):
    with pytest.raises(ParameterError) as err:
        parse_config_text(f"{key} = {value}\n")
    assert key in str(err.value) and err.value.line == 1


def test_phases_are_unbounded():
    values = parse_config_text(
        "g1_phase_rad = -17.5\nphi_s2_rad = 40\nt_phase_rad = 9.42\n"
    )
    assert values["g1_phase_rad"] == -17.5
    assert values["phi_s2_rad"] == 40.0


def test_build_configs_assembles_complex_couplings():
    values = dict(DEFAULTS)
    values.update(
        t_phase_rad=math.pi,
        g1_mag=0.02,
        g1_phase_rad=math.pi / 2,
        eta_idler=0.8,
        bs_ty=0.95,
        dark_cps=20.0,
    )
    cfg, detector = build_configs(values)
    # the sweep grid sets gamma and |T|: the config gives T its phase alone
    assert cfg.t == pytest.approx(-1.0 + 0j, abs=1e-12)
    assert cfg.g1 == pytest.approx(0.02j, abs=1e-15)
    assert cfg.gamma == 0.0
    assert cfg.imperfections.eta_idler == 0.8
    assert cfg.imperfections.bs_ty == 0.95
    assert detector.kappa == 3333.0
    assert detector.dark_rate == 20.0
    assert detector.integration_time == 15.0


def test_defaults_are_the_dataclass_defaults():
    """config.DEFAULTS and the dataclass defaults both describe the ideal instrument."""
    assert build_configs(DEFAULTS) == (ZwmConfig(), DetectorModel())


def test_load_config_defaults_and_missing_file(tmp_path):
    cfg, detector, values = load_config(None)
    assert values == DEFAULTS
    assert cfg.t == 1.0 + 0j
    assert detector.dark_rate == 0.0
    with pytest.raises(ConfigError):
        load_config(tmp_path / "does_not_exist.cfg")


def test_default_config_is_equal_on_every_call_with_a_fresh_value_map():
    cfg, detector, values = load_config(None)
    values["eta_idler"] = 0.5
    again_cfg, again_detector, again_values = load_config(None)
    assert (again_cfg, again_detector) == (cfg, detector) == build_configs(DEFAULTS)
    assert again_values is not values
    assert again_values == DEFAULTS


def test_the_value_map_of_a_file_is_fresh_on_every_call(tmp_path):
    """The parse of a text is reused, never the map handed out: changing one call's
    map changes neither the next call's map nor its configs."""
    path = tmp_path / "run.cfg"
    path.write_text("eta_idler = 0.8\n")
    cfg, detector, values = load_config(path)
    values["eta_idler"] = 0.5
    values["bogus"] = 1.0
    del values["dark_cps"]
    again_cfg, again_detector, again_values = load_config(path)
    assert again_values == parse_config_text(path.read_text()) == {**DEFAULTS, "eta_idler": 0.8}
    assert (again_cfg, again_detector) == (cfg, detector)
    assert again_cfg.imperfections.eta_idler == 0.8
    parse_config_text(path.read_text())["eta_idler"] = 0.1
    assert load_config(path)[2]["eta_idler"] == 0.8


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_phase_rad = 0.25\nbs_tx = 0.5\n")
    cfg, _, values = load_config(path)
    assert values["t_phase_rad"] == 0.25
    assert values["bs_tx"] == 0.5
    assert cfg.t == cmath.exp(0.25j)
    assert cfg.imperfections.bs_tx == 0.5


def test_format_parse_round_trip():
    values = dict(DEFAULTS)
    values.update(eta_idler=0.8, bs_ty=0.95, phi_s1_rad=33.75, t_phase_rad=-2.5)
    text = format_config(values)
    assert parse_config_text(text) == values
    # every key appears in the dump
    for key in ALL_KEYS:
        assert key in text
