"""End-to-end exercises of the polsim command-line interface."""

import contextlib
import importlib.util
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polsim import cli, sweep, zwm
from polsim.config import DEFAULTS, format_config, parse_config_text
from polsim.gedanken import degree_of_polarization_gedanken
from polsim.tomography import DEFAULT_SETTINGS, DetectorModel, simulate_counts
from polsim.sweep import MODES
from polsim.zwm import CoherenceMatrix, degree_of_polarization_grid, field_map


def run_cli(*argv):
    return cli.main(list(argv))


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli()
    assert err.value.code == 2


def test_sweep_requires_grid_arguments(capsys):
    assert run_cli("sweep", "--mode", "analytic") == 2
    assert "requires --mode, --gamma and --t" in capsys.readouterr().err


def test_malformed_float_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("sweep", "--mode", "analytic", "--gamma", "1,x", "--t", "1")
    assert err.value.code == 2
    assert "comma-separated float list" in capsys.readouterr().err


def test_analytic_sweep_to_stdout(capsys):
    rc = run_cli("sweep", "--mode", "analytic",
                 "--gamma", "0,90", "--t", "0.5,1")
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gamma_deg,t_abs,mode,p_value,p_stderr"
    assert len(lines) == 5
    table = {tuple(line.split(",")[:2]): float(line.split(",")[3])
             for line in lines[1:]}
    assert table[("0", "0.5")] == pytest.approx(1.0, abs=1e-12)
    assert table[("90", "0.5")] == pytest.approx(0.5, abs=1e-12)
    assert table[("90", "1")] == pytest.approx(1.0, abs=1e-12)


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    """Byte for byte, for a numeric sweep of a non-ideal config, and then for a
    shorter sweep over the same file."""
    config = tmp_path / "run.cfg"
    config.write_text("eta_idler = 0.8\nbs_tx = 0.9\nphi_s2_rad = 1.0471975511965976\n")
    for argv in [("sweep", "--config", str(config), "--mode", "numeric",
                  "--gamma", ",".join(map(str, range(0, 91, 10))), "--t", "0,0.25,0.5,0.75,1"),
                 ("sweep", "--mode", "gedanken", "--gamma", "0,30,60", "--t", "0.3,0.9")]:
        assert run_cli(*argv) == 0
        stdout_text = capsys.readouterr().out
        out = tmp_path / "rows.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == stdout_text.replace("\n", os.linesep).encode("ascii")


@pytest.mark.parametrize("mode", ["tomography", "montecarlo"])
def test_stochastic_sweep_out_file_matches_stdout(tmp_path, capsys, mode):
    """Byte for byte, for the stochastic modes with replicates and a seed."""
    argv = ("sweep", "--mode", mode, "--gamma", "0,30,60,90", "--t", "0.25,0.75",
            "--replicates", "3", "--seed", "7", "--samples", "20000")
    assert run_cli(*argv) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "rows.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.read_bytes() == stdout_text.replace("\n", os.linesep).encode("ascii")


@pytest.mark.parametrize("mode", ["numeric", "analytic", "tomography"])
def test_sweep_applies_the_phase_of_t_at_every_grid_point(tmp_path, mode):
    """The grid sets |T| and the config T's phase: t_phase_rad changes every
    row at |T| = 0.5, and no row at |T| = 0, where T has no phase to set."""
    rows = {}
    for phase in ("0", "1"):
        cfg, out = tmp_path / f"phase{phase}.cfg", tmp_path / f"phase{phase}.csv"
        cfg.write_text(f"t_phase_rad = {phase}\n")
        assert run_cli("sweep", "--config", str(cfg), "--mode", mode, "--gamma", "30,60",
                       "--t", "0,0.5", "--replicates", "2", "--out", str(out)) == 0
        rows[phase] = out.read_text().splitlines()[1:]
    assert len(rows["0"]) == len(rows["1"]) == (8 if mode == "tomography" else 4)
    for no_phase, phase in zip(rows["0"], rows["1"]):
        assert no_phase.split(",")[1] == phase.split(",")[1]
        assert (no_phase != phase) == (phase.split(",")[1] == "0.5"), (no_phase, phase)


def test_print_config_round_trips_defaults(capsys):
    assert run_cli("sweep", "--print-config") == 0
    echoed = parse_config_text(capsys.readouterr().out)
    assert echoed == DEFAULTS


def test_print_config_echoes_overrides(tmp_path, capsys):
    path = tmp_path / "imperfect.cfg"
    path.write_text("eta_idler = 0.8\nbs_ty = 0.95\nphi_s1_rad = 60\n")
    assert run_cli("sweep", "--config", str(path), "--print-config") == 0
    echoed = parse_config_text(capsys.readouterr().out)
    assert echoed["eta_idler"] == 0.8
    assert echoed["bs_ty"] == 0.95
    assert echoed["phi_s1_rad"] == 60.0
    assert echoed["mu_overlap"] == 1.0


def test_print_config_round_trips_every_value(tmp_path, capsys):
    """The echo is the same config: phi_s2 = pi puts (gamma 0, |T| 1) on
    the dark fringe, and a 12-digit echo moved it off, so that the echoed
    config's sweep exited 0 where the original exits 2."""
    path = tmp_path / "dark.cfg"
    path.write_text("phi_s2_rad = 3.141592653589793\n")
    assert run_cli("sweep", "--config", str(path), "--print-config") == 0
    echoed = tmp_path / "echoed.cfg"
    echoed.write_text(capsys.readouterr().out)
    assert parse_config_text(echoed.read_text()) == parse_config_text(path.read_text())
    for config in (path, echoed):
        assert run_cli("sweep", "--config", str(config), "--mode", "numeric",
                       "--gamma", "0,45", "--t", "0.5,1") == 2
        assert "zero intensity" in capsys.readouterr().err


def test_range_error_in_config_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    for key, value in (("eta_idler", "1.2"), ("g1_mag", "1e-101")):
        path.write_text(f"# the value on line 2 is out of range\n{key} = {value}\n")
        assert run_cli("sweep", "--config", str(path), "--mode", "analytic",
                       "--gamma", "0", "--t", "1") == 3
        err = capsys.readouterr().err
        assert "range error: line 2: " in err and key in err


@pytest.mark.parametrize("key, value, code", [
    ("g1_mag", 0.1, 0),
    ("g1_mag", 1e-100, 0),
    ("g1_mag", math.nextafter(0.1, 1.0), 3),
    ("g1_mag", math.nextafter(1e-100, 0.0), 3),
    ("g2_mag", -0.01, 3),
])
def test_gain_magnitudes_are_refused_just_outside_their_bounds(tmp_path, capsys, key, value, code):
    """The config holds the gain rule on the magnitude as typed: ZwmConfig sees
    |g e^{i phase}| with an ulp of slack, and never the sign."""
    path = tmp_path / "gain.cfg"
    path.write_text(f"# a gain at its edge\n{key} = {value!r}\n")
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(path), "--mode", "numeric",
                   "--gamma", "30", "--t", "0.5", "--out", str(out)) == code
    err = capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code:
        assert err.startswith(f"range error: line 2: {key} = ")


@pytest.mark.parametrize("line, message", [
    ("eta_idler = 1.2", "eta_idler: eta_idler = 1.2 outside [0, 1]"),
    ("kappa_cps = -1", "kappa_cps: count rates must be finite and non-negative"),
    ("time_s = 0", "time_s: integration_time must be finite and positive"),
])
def test_the_first_value_the_dataclasses_refuse_is_named_with_its_line(tmp_path, capsys,
                                                                       line, message):
    """Two keys are out of range; the error names the one on the earlier line."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"mu_overlap = 0.5\n{line}\nbs_ty = 2\n")
    assert run_cli("sweep", "--config", str(path), "--print-config") == 3
    assert capsys.readouterr() == ("", f"range error: line 2: {message}\n")


def test_unknown_key_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("transmission = 0.5\n")
    assert run_cli("sweep", "--config", str(path), "--mode", "analytic",
                   "--gamma", "0", "--t", "1") == 2
    assert "error:" in capsys.readouterr().err


def test_an_old_echo_loads_once_its_grid_keys_are_deleted(tmp_path, capsys):
    """gamma_deg and t_mag are not config keys, since the grid sets gamma and
    |T|: a 17-key echo that names them exits 2 at each, with its line
    number, and loads once their two lines are gone."""
    lines = format_config(DEFAULTS).splitlines(keepends=True)
    old = lines[:4] + ["t_mag = 1.0\n", lines[4], "gamma_deg = 0.0\n"] + lines[5:]
    path = tmp_path / "old.cfg"
    for key, line_no in (("t_mag", 5), ("gamma_deg", 6)):
        path.write_text("".join(old))
        assert run_cli("sweep", "--config", str(path), "--print-config") == 2
        assert capsys.readouterr().err == f"error: line {line_no}: unknown key {key!r}\n"
        del old[line_no - 1]
    path.write_text("".join(old))
    assert run_cli("sweep", "--config", str(path), "--print-config") == 0
    assert capsys.readouterr().out == path.read_text() == format_config(DEFAULTS)


def test_non_ascii_config_exits_2(tmp_path, capsys):
    path = tmp_path / "accent.cfg"
    path.write_text("# caf\u00e9\neta_idler = 0.9\n", encoding="utf-8")
    assert run_cli("sweep", "--config", str(path), "--mode", "analytic",
                   "--gamma", "0", "--t", "1") == 2
    assert f"error: cannot read config file {path}" in capsys.readouterr().err


def test_an_edited_config_is_read_again_in_the_same_process(tmp_path, capsys):
    """load_config reads the file on every call and reuses only the parse of a text
    it has seen: an edit that keeps the file's length still changes the CSV, and
    the first text, seen again, gives its first CSV again."""
    path = tmp_path / "run.cfg"
    argv = ("sweep", "--config", str(path), "--mode", "numeric", "--gamma", "30,60", "--t", "0.5")
    texts = ["eta_idler = 0.8\n", "eta_idler = 0.9\n", "eta_idler = 0.9\nbs_tx = 0.7\n",
             "eta_idler = 0.8\n"]
    rows = []
    for text in texts:
        path.write_text(text)
        assert run_cli(*argv) == 0
        rows.append(capsys.readouterr().out)
    assert len(texts[0]) == len(texts[1])
    assert len(set(rows[:3])) == 3
    assert rows[3] == rows[0]


@pytest.mark.parametrize("text, code, message", [
    ("eta_idler = 1.2\n", 3, "range error: line 1: eta_idler: eta_idler = 1.2 outside [0, 1]\n"),
    ("bogus = 1\n", 2, "error: line 1: unknown key 'bogus'\n"),
])
def test_a_refused_config_is_refused_alike_on_every_call(tmp_path, capsys, text, code, message):
    """No refusal is memoized: the same text exits with the same code and line twice."""
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    for _ in range(2):
        assert run_cli("sweep", "--config", str(path), "--mode", "analytic",
                       "--gamma", "0", "--t", "1") == code
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("option", ["--config", "--counts"])
def test_a_directory_as_input_exits_2(tmp_path, capsys, option):
    """A directory opens on some systems and fails only at the read; either way it
    exits 2 with one `cannot read` line and no traceback."""
    if option == "--config":
        argv = ["sweep", "--config", str(tmp_path), "--mode", "analytic", "--gamma", "0",
                "--t", "1"]
    else:
        argv = ["tomo", "--counts", str(tmp_path), "--out", str(tmp_path / "recon.csv")]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {option[2:]} file {tmp_path}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "recon.csv").exists()


def test_out_of_range_gamma_argument_exits_3(capsys):
    assert run_cli("sweep", "--mode", "analytic",
                   "--gamma", "120", "--t", "1") == 3
    assert "range error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["numeric", "analytic"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("axis", ["--gamma", "--t"])
def test_non_finite_grid_argument_exits_3(tmp_path, capsys, mode, value, axis):
    grid = {"--gamma": "0,30", "--t": "0.5"}
    grid[axis] += "," + value
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--mode", mode, "--gamma", grid["--gamma"],
                   "--t", grid["--t"], "--out", str(out)) == 3
    assert "range error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
def test_t_one_ulp_above_1_exits_3_without_output(tmp_path, capsys, mode):
    """|T| <= 1 exactly in every mode: ZwmConfig's slack for a rounded |t|
    does not reach the grid."""
    out = tmp_path / "rows.csv"
    for t, code in (("1", 0), (repr(math.nextafter(1.0, 2.0)), 3)):
        assert run_cli("sweep", "--mode", mode, "--gamma", "30", "--t", t, "--out", str(out)) == code
        assert out.exists() == (code == 0)
        out.unlink(missing_ok=True)
    assert capsys.readouterr() == ("", "range error: every |T| must lie in [0, 1]\n")


@pytest.mark.parametrize("mode", ["numeric", "montecarlo"])
@pytest.mark.parametrize("gammas, ts", [
    ("30", "0.9999999999998168,0.9999999999997757"),
    ("30.00000000001,30.00000000002", "0.5"),
])
def test_distinct_grid_values_printed_alike_exit_3_without_output(tmp_path, capsys, mode,
                                                                  gammas, ts):
    """Two rows labelled alike with different P would read as one grid point."""
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--mode", mode, "--gamma", gammas, "--t", ts, "--out", str(out)) == 3
    assert capsys.readouterr() == (
        "", "range error: distinct grid values print the same to 10 significant digits\n")
    assert not out.exists()


def test_repeated_grid_values_and_signed_zeros_are_not_collisions(capsys):
    assert run_cli("sweep", "--mode", "numeric", "--gamma=-0.0,30,0,30", "--t", "0.5,0.5") == 0
    labels = [line.split(",")[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert labels == [["-0", "0.5"]] * 2 + [["0", "0.5"]] * 2 + [["30", "0.5"]] * 4


@pytest.mark.parametrize("mode", ["numeric", "analytic", "tomography",
                                  "montecarlo"])
def test_dark_fringe_in_grid_exits_2_without_output(tmp_path, capsys, mode):
    """phi_s2 = pi puts the gamma = 0, |T| = 1 corner at zero intensity:
    P is undefined there, so the whole sweep fails before writing."""
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(f"phi_s2_rad = {math.pi!r}\n")
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg), "--mode", mode,
                   "--gamma", "0,45", "--t", "0.5,1", "--out", str(out)) == 2
    assert "zero intensity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_dark_fringe_inside_a_grid_exits_2_without_output(tmp_path, capsys, mode):
    """The dark point (gamma = 0, |T| = 1) sits in the middle gamma row of a
    3x3 grid; the grid call fails as a whole before any row is written."""
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(f"phi_s2_rad = {math.pi!r}\n")
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg), "--mode", mode,
                   "--gamma=-45,0,45", "--t", "0.25,1,0.5", "--out", str(out)) == 2
    assert "zero intensity" in capsys.readouterr().err
    assert not out.exists()


def test_exact_modes_agree_next_to_the_dark_fringe(tmp_path, capsys):
    """A hair off the dark corner the light is 1e-13 of the bright fringe's;
    both exact modes write the same P, the 45-digit reference's 0.89841002299431
    and 0.99944076403342 rounded."""
    cfg = tmp_path / "fringe.cfg"
    cfg.write_text(f"phi_s2_rad = {math.pi!r}\n")
    rows = {}
    for mode in ("analytic", "numeric"):
        assert run_cli("sweep", "--config", str(cfg), "--mode", mode, "--gamma",
                       "8.0226e-06,5.8e-07", "--t", "0.9999999999998168") == 0
        rows[mode] = capsys.readouterr().out.replace(f",{mode},", ",MODE,")
    assert rows["analytic"] == rows["numeric"] == (
        "gamma_deg,t_abs,mode,p_value,p_stderr\n"
        "5.8e-07,1,MODE,0.999440764033,0\n"
        "8.0226e-06,1,MODE,0.898410022994,0\n")


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
@pytest.mark.parametrize("offset,code", [(1e-13, 2), (4e-13, 0)])
def test_zero_rule_edge_is_the_same_in_both_exact_modes(tmp_path, capsys, mode, offset, code):
    """At gamma = 0, |T| = 1 and beta = pi + offset the x amplitude is about
    offset / 2 of its two parts' summed moduli: zero under the 1e-13 rule at
    1e-13, light (and P = 1, with no y light) at 4e-13."""
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"phi_s2_rad = {math.pi + offset!r}\n")
    assert run_cli("sweep", "--config", str(cfg), "--mode", mode,
                   "--gamma", "0", "--t", "1") == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "zero intensity" in captured.err
    else:
        assert captured.out.splitlines()[1] == f"0,1,{mode},1,0"


@pytest.mark.parametrize("cfg_text", [
    "bs_tx = 0.9\n",
    "g1_mag = 0.01\ng2_mag = 0.02\n",
], ids=["skewed-splitter", "unequal-gains"])
def test_analytic_sweep_of_a_general_config_agrees_with_numeric(tmp_path, cfg_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    p = {}
    for mode in ("analytic", "numeric"):
        out = tmp_path / f"{mode}.csv"
        assert run_cli("sweep", "--config", str(cfg), "--mode", mode,
                       "--gamma", "0,30,60", "--t", "0.5,1", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {row[2] for row in rows} == {mode}
        p[mode] = np.array([[float(v) for v in (*row[:2], row[3])] for row in rows])
    assert p["analytic"].shape == (6, 3)
    np.testing.assert_array_equal(p["analytic"][:, :2], p["numeric"][:, :2])
    assert np.max(np.abs(p["analytic"][:, 2] - p["numeric"][:, 2])) <= 1e-12


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
@pytest.mark.parametrize("cfg_text", [
    # the arms cancel when |g2| / |g1| = t_x / r_x = sqrt(0.595 / 0.405)
    f"g2_mag = 0.012120791238484128\nbs_tx = 0.9\nphi_s2_rad = {math.pi!r}\n",
    # beta = pi through the phase of T; at |T| = 1 numpy puts the modulus of
    # the complex T_eff an ulp below 1, but the dark fringe is exact
    f"t_phase_rad = 0.10290096698899634\nphi_s2_rad = {math.pi + 0.10290096698899634!r}\n",
], ids=["skewed-splitter", "phase-of-t"])
def test_dark_fringe_off_the_default_config_exits_2_without_output(tmp_path, capsys,
                                                                   cfg_text, mode):
    """Both exact modes find no light at gamma = 0, |T| = 1 and exit 2."""
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg), "--mode", mode,
                   "--gamma", "0,30", "--t", "0.5,1", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero intensity" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("cfg_text", [
    "kappa_cps = 1e300\n",
    "dark_cps = 1e300\n",
    "kappa_cps = 1e300\ntime_s = 1e300\n",
], ids=["kappa", "dark", "kappa-time-inf"])
def test_tomography_counts_beyond_the_poisson_limit_exit_3(tmp_path, capsys, cfg_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg), "--mode", "tomography",
                   "--gamma", "30", "--t", "0.5", "--out", str(out)) == 3
    assert "Poisson sampler's limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg_text, mode, argv, message", [
    ("kappa_cps = 0\n", "tomography", (),
     "all background-corrected counts are zero"),
    ("", "montecarlo", ("--samples", "1", "--seed", "4"),
     "no detection at either extremum in 1 samples each"),
], ids=["tomography-kappa-0", "montecarlo-one-sample"])
def test_sweep_without_detections_exits_2(tmp_path, capsys, cfg_text, mode,
                                          argv, message):
    """No detected counts leave P undefined even away from a dark fringe."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg), "--mode", mode, "--gamma", "30",
                   "--t", "0.5", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "zero intensity" in err and message in err
    assert not out.exists()


def test_samples_beyond_the_binomial_range_exit_3_without_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--mode", "montecarlo", "--gamma", "45", "--t", "0.5",
                   "--samples", str(2**63), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "samples must be in [1, 9223372036854775807]" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_montecarlo_memory_and_time_do_not_grow_with_samples(capsys):
    """1e12 samples per extremum (24 TB as one uniform triple per sample)
    run in well under a second with a bounded allocation peak."""
    argv = ["sweep", "--mode", "montecarlo", "--gamma", "45", "--t", "0.5", "--samples"]
    assert run_cli(*argv, "1000") == 0  # first-call imports stay out of the peak
    capsys.readouterr()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rc = run_cli(*argv, "1000000000000")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert elapsed < 1.0
    assert peak < 1_000_000
    row = capsys.readouterr().out.splitlines()[1].split(",")
    p, se = float(row[3]), float(row[4])
    assert 0.0 < se < 1e-5
    assert abs(p - degree_of_polarization_gedanken(math.radians(45.0), 0.5)) <= 5 * se


def test_montecarlo_p_is_bounded_at_zero(monkeypatch, capsys):
    """Near P = 0 the two sampled extrema can cross; the row still holds a P
    in [0, 1], not (p_max - p_min) / (p_max + p_min) < 0, with the same stderr."""
    extrema, sample_detection = [], sweep._sample_detection

    def sample(*args):  # the sampler, recording each extremum's estimate
        p_hat, stderr = sample_detection(*args)
        extrema.append(p_hat)
        return p_hat, stderr

    monkeypatch.setattr(sweep, "_sample_detection", sample)
    assert run_cli("sweep", "--mode", "montecarlo", "--gamma", "90", "--t", "0",
                   "--seed", "7", "--samples", "2000") == 0
    p_max, p_min = extrema
    assert p_min > p_max  # the seed reaches the crossed extrema
    assert capsys.readouterr().out.splitlines()[1] == "90,0,montecarlo,0,0.0278503226678"


def float_list(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(repr, xs)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODES), float_list(0.0, 90.0), float_list(0.0, 1.0),
       st.integers(1, 3), st.integers(1, 10_000), st.integers(min_value=0))
@example("montecarlo", "0", "0", 10_000_000_000_000, 1, 0)  # more rows than memory holds
@example("tomography", "0", "0", 10**20, 1, 0)  # more rows than an array may have
@example("montecarlo", "90", "0", 20, 2000, 7)  # P = 0, where the two extrema cross
def test_sweep_exits_cleanly_with_p_a_fraction(mode, gammas, ts, replicates,
                                                samples, seed):
    """Any in-range sweep on the default config ends in exit 0, 2 or 3 with
    no traceback, and on exit 0 every p_value lies in [0, 1]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run_cli("sweep", "--mode", mode, "--gamma", gammas, "--t", ts,
                         "--replicates", str(replicates), "--samples", str(samples),
                         "--seed", str(seed))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        for line in out.getvalue().splitlines()[1:]:
            assert 0.0 <= float(line.split(",")[3]) <= 1.0, line


@pytest.mark.parametrize("mode", ["tomography", "montecarlo"])
def test_negative_seed_exits_3_without_output(tmp_path, capsys, mode):
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--mode", mode, "--gamma", "10", "--t", "0.5",
                   "--seed", "-1", "--out", str(out)) == 3
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("replicates", ["0", "-1"])  # the option table reads 0, argparse -1
def test_replicates_below_one_exit_3_without_output(tmp_path, capsys, mode, replicates):
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--mode", mode, "--gamma", "10", "--t", "0.5",
                   "--replicates", replicates, "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.err == "range error: replicates must be >= 1\n"
    assert captured.out == ""
    assert not out.exists()


SELFTEST_CHECKS = ["analytic and gedanken vs numeric, 7x11 grid",
                   "dark corner at beta=pi: ZeroTraceError in analytic and numeric",
                   "endpoints P(|T|=1)=1 and P(gamma=90deg)=|T|",
                   "montecarlo vs numeric beyond 5 stderr, 7x11 grid"]


def test_selftest_passes(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert [line.split(": max |delta|")[0] for line in out.splitlines()[:-1]] == [
        f"ok: {name}" for name in SELFTEST_CHECKS]
    assert out.endswith("selftest: all checks passed\n")


def test_selftest_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "_selftest_checks",
        lambda: iter([("fabricated check", 1.0, 1e-15)]),
    )
    assert run_cli("selftest") == 4
    captured = capsys.readouterr()
    assert "FAIL: fabricated check" in captured.out
    assert "1 check(s) failed" in captured.err


def test_selftest_exits_4_where_only_the_closed_form_sees_a_dark_corner(monkeypatch, capsys):
    """A pipeline that reads P = 0 where tr G = 0 finds no dark corner, where the
    closed form raises ZeroTraceError: selftest exits 4 and names the dark-corner check."""
    def lit(g):
        dark = (g[..., 0, 0].real + g[..., 1, 1].real <= 0.0)[..., None, None]
        return degree_of_polarization_grid(np.where(dark, np.eye(2), g)) * ~dark[..., 0, 0]

    monkeypatch.setattr(sweep, "degree_of_polarization_grid", lit)
    assert run_cli("selftest") == 4
    captured = capsys.readouterr()
    assert f"FAIL: {SELFTEST_CHECKS[1]}: max |delta| = inf" in captured.out
    assert "1 check(s) failed" in captured.err


def test_selftest_exits_4_where_the_pipeline_reverses_the_gamma_axis(monkeypatch, capsys):
    """A detector field map that reverses its gamma axis writes every numeric P
    against the wrong angle: the grid checks see it, where 1x1 grids cannot."""
    monkeypatch.setattr(zwm, "field_map", lambda cfg, gammas: field_map(cfg, np.flip(gammas)))
    assert run_cli("selftest") == 4
    captured = capsys.readouterr()
    assert f"FAIL: {SELFTEST_CHECKS[0]}" in captured.out
    assert f"FAIL: {SELFTEST_CHECKS[2]}" in captured.out
    assert f"FAIL: {SELFTEST_CHECKS[3]}" in captured.out
    assert "3 check(s) failed" in captured.err


def test_selftest_exits_4_where_the_sampler_ignores_the_marker(monkeypatch, capsys):
    """A montecarlo sampler that draws every extremum at marker quality m = 0
    gives P = cos gamma at every |T|: the sampler check sees it, and no other."""
    sample_detection = sweep._sample_detection
    monkeypatch.setattr(sweep, "_sample_detection",
                        lambda gamma, m, *rest: sample_detection(gamma, 0.0, *rest))
    assert run_cli("selftest") == 4
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["ok"] * 3 + ["FAIL"]
    assert f"FAIL: {SELFTEST_CHECKS[3]}" in captured.out
    assert "1 check(s) failed" in captured.err


def test_selftest_takes_under_two_seconds():
    assert run_cli("selftest") == 0  # first-call imports and caches stay out of the timing
    start = time.perf_counter()
    assert run_cli("selftest") == 0
    assert time.perf_counter() - start < 2.0


def write_counts(path, counts):
    """A counts table of the H V D R settings with these raw counts."""
    rows = ("H 0 0", "V 0 90", "D 45 45", "R 0 45")
    lines = [f"{row} {int(n)}" for row, n in zip(rows, counts, strict=True)]
    path.write_text("\n".join([COUNTS_HEADER, *lines, ""]))


def tomo_fixture_counts(tmp_path, dark_rate):
    """Simulated counts for a known trace-1 matrix with P = 0.6."""
    detector = DetectorModel(kappa=3333.0, dark_rate=dark_rate,
                             integration_time=15.0)
    g_true = CoherenceMatrix(np.array([[0.8, 0.3], [0.3, 0.2]]))
    raw = simulate_counts(g_true, DEFAULT_SETTINGS, detector, 42)
    path = tmp_path / "counts.txt"
    write_counts(path, raw)
    return path, math.hypot(0.8 - 0.2, 2 * 0.3)  # P = 0.6 / trace 1


def test_tomo_round_trip(tmp_path, capsys):
    counts_path, p_true = tomo_fixture_counts(tmp_path, dark_rate=0.0)
    out = tmp_path / "recon.csv"
    assert run_cli("tomo", "--counts", str(counts_path), "--out", str(out)) == 0
    assert f"written to {out}" in capsys.readouterr().out
    header, row = out.read_text().splitlines()
    assert header == "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3"
    vals = dict(zip(header.split(","), map(float, row.split(","))))
    assert vals["p_value"] == pytest.approx(p_true, abs=0.02)
    # counts-unit scale: trace approximately kappa * time * tr(G_true) = 5e4
    assert vals["s0"] == pytest.approx(3333.0 * 15.0, rel=0.05)
    assert vals["s1"] == pytest.approx((0.8 - 0.2) * vals["s0"], rel=0.1)


def test_tomo_subtracts_configured_dark_counts(tmp_path):
    counts_path, p_true = tomo_fixture_counts(tmp_path, dark_rate=20.0)
    cfg = tmp_path / "detector.cfg"
    cfg.write_text("dark_cps = 20\n")
    out = tmp_path / "recon.csv"
    assert run_cli("tomo", "--counts", str(counts_path),
                   "--out", str(out), "--config", str(cfg)) == 0
    p_val = float(out.read_text().splitlines()[1].split(",")[0])
    assert p_val == pytest.approx(p_true, abs=0.02)
    # ignoring the background would bias P low by roughly dark/total
    out2 = tmp_path / "recon_nodark.csv"
    assert run_cli("tomo", "--counts", str(counts_path), "--out", str(out2)) == 0
    p_biased = float(out2.read_text().splitlines()[1].split(",")[0])
    assert p_biased < p_val


def test_tomo_reads_only_the_dark_counts_of_its_config(tmp_path):
    """tomo subtracts dark_cps * time_s from every count and reads no other
    key: kappa_cps changes nothing, and equal products give the same bytes."""
    counts_path, _ = tomo_fixture_counts(tmp_path, dark_rate=10.0)
    texts = []
    for k, cfg_text in enumerate(("dark_cps = 10\ntime_s = 15\n",
                                  "dark_cps = 15\ntime_s = 10\n",
                                  "dark_cps = 10\ntime_s = 15\nkappa_cps = 7\n",
                                  "dark_cps = 10\ntime_s = 10\n")):
        cfg, out = tmp_path / f"detector{k}.cfg", tmp_path / f"recon{k}.csv"
        cfg.write_text(cfg_text)
        assert run_cli("tomo", "--counts", str(counts_path), "--out", str(out),
                       "--config", str(cfg)) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2] != texts[3]


def test_tomo_all_zero_counts_exits_2(tmp_path, capsys):
    """Zero intensity exits 2 in tomo as at a point of a tomography sweep."""
    path = tmp_path / "zeros.txt"
    write_counts(path, [0, 0, 0, 0])
    assert run_cli("tomo", "--counts", str(path),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "error: degree of polarization undefined" in capsys.readouterr().err


def test_tomo_malformed_table_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("these are not the columns you want\nH 0 0 5\n")
    assert run_cli("tomo", "--counts", str(path),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "error:" in capsys.readouterr().err


def test_tomo_non_finite_angle_exits_3(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
                    "H 0 0 49821\nV 0 90 17\nD nan 45 25006\nR 0 45 24980\n")
    out = tmp_path / "x.csv"
    assert run_cli("tomo", "--counts", str(path), "--out", str(out)) == 3
    assert "line 4" in capsys.readouterr().err
    assert not out.exists()


def test_tomo_count_beyond_float_range_exits_3(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
                    f"H 0 0 {10**400}\nV 0 90 17\nD 45 45 25006\nR 0 45 24980\n")
    out = tmp_path / "x.csv"
    assert run_cli("tomo", "--counts", str(path), "--out", str(out)) == 3
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("counts, code", [
    ([int(1e308), 1, 1, 1], 0),
    ([int(1e308)] * 4, 3),
    # a pure state along (0, -1, 1)/sqrt 2, the Stokes direction of least H V D R
    # weight: the counts total 1.7e308, and the fit's entries are finite but their sum is not
    ([int(6.574402182881614e307)] * 2 + [int(1.9255978171183847e307)] * 2, 3),
], ids=["total-in-the-top-binade", "total-beyond-float-range", "fit-beyond-float-range"])
def test_tomo_counts_near_float_range_end_cleanly(tmp_path, capsys, counts, code):
    """A counts total in the top binade is fitted without forming 2^1024; a
    total, or a fit, beyond float range is a range error that names the
    total.  None ends in a traceback or writes an inf or a nan."""
    path = tmp_path / "counts.txt"
    write_counts(path, counts)
    out = tmp_path / "recon.csv"
    assert run_cli("tomo", "--counts", str(path), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 3 and "counts total" in err or out.exists()
    if out.exists():
        assert all(math.isfinite(float(v)) for v in out.read_text().splitlines()[1].split(","))


def test_tomo_missing_counts_file_exits_2(tmp_path, capsys):
    assert run_cli("tomo", "--counts", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "cannot read" in capsys.readouterr().err


def test_tomo_non_ascii_counts_exits_2(tmp_path, capsys):
    path = tmp_path / "accent.txt"
    path.write_text("label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
                    "H 0 0 49821\nV 0 90 17\nD 45 45 25006\nR 0 45 \u00e9\n",
                    encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run_cli("tomo", "--counts", str(path), "--out", str(out)) == 2
    assert f"error: cannot read counts file {path}" in capsys.readouterr().err
    assert not out.exists()


UNWRITABLE = {"missing-directory": "no/such/dir/out.csv", "directory": "."}


@pytest.mark.parametrize("where", UNWRITABLE)
def test_sweep_to_an_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path / UNWRITABLE[where]
    assert run_cli("sweep", "--mode", "analytic", "--gamma", "0,30", "--t", "0.5",
                   "--out", str(out)) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("where", UNWRITABLE)
def test_tomo_to_an_unwritable_out_exits_2(tmp_path, capsys, where):
    counts_path, _ = tomo_fixture_counts(tmp_path, dark_rate=0.0)
    out = tmp_path / UNWRITABLE[where]
    assert run_cli("tomo", "--counts", str(counts_path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}: " in captured.err
    assert "written to" not in captured.out


@pytest.mark.parametrize("command", ["sweep", "tomo"])
def test_out_to_a_full_device_exits_2(tmp_path, capsys, command):
    """The write itself fails, after the open: exit 2, and no `written to` line."""
    if not Path("/dev/full").exists():
        pytest.skip("/dev/full does not exist here")
    if command == "sweep":
        argv = ["sweep", "--mode", "numeric", "--gamma", "0,30", "--t", "0.5"]
    else:
        argv = ["tomo", "--counts", str(tomo_fixture_counts(tmp_path, dark_rate=0.0)[0])]
    assert run_cli(*argv, "--out", "/dev/full") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write /dev/full: ")
    assert captured.err.count("\n") == 1
    assert "written to" not in captured.out


def test_out_is_whole_after_short_writes(tmp_path, capsys, monkeypatch):
    """A write that takes at most 7 bytes a call still leaves stdout's bytes in --out."""
    argv = ("sweep", "--mode", "numeric", "--gamma", "0,30,60,90", "--t", "0,0.5,1")
    assert run_cli(*argv) == 0
    stdout_text = capsys.readouterr().out
    write, calls = os.write, []

    def short_write(fd, data):
        calls.append(fd)
        return write(fd, data[:7])
    monkeypatch.setattr(os, "write", short_write)
    out = tmp_path / "rows.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.read_bytes() == stdout_text.replace("\n", os.linesep).encode("ascii")
    assert len(calls) == -(-out.stat().st_size // 7)


def test_out_write_that_takes_no_byte_exits_2(tmp_path, capsys, monkeypatch):
    """A write that returns 0 fails at once, with one error line, instead of spinning."""
    monkeypatch.setattr(os, "write", lambda fd, data: 0)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--mode", "numeric", "--gamma", "0,30", "--t", "0.5",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_out_file_gets_the_mode_open_gives(tmp_path, umask):
    """0o666 less the umask, as open(path, "w") creates a file."""
    out = tmp_path / "rows.csv"
    old = os.umask(umask)
    try:
        assert run_cli("sweep", "--mode", "analytic", "--gamma", "0", "--t", "1",
                       "--out", str(out)) == 0
        with open(tmp_path / "reference.csv", "w"):
            pass
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert (tmp_path / "reference.csv").stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("stdout", ["dev-full", "closed-pipe"])
def test_unwritable_stdout_exits_2_with_one_line(tmp_path, stdout):
    """Each command that prints ends in exit 2 and one `error: cannot write`
    line when stdout cannot be written, as an unwritable --out does: no
    traceback, and no "Exception ignored" line from the flush at exit."""
    if stdout == "dev-full" and not Path("/dev/full").exists():
        pytest.skip("/dev/full does not exist here")
    counts, _ = tomo_fixture_counts(tmp_path, dark_rate=0.0)
    gammas, ts = (",".join(repr(i / (n - 1)) for i in range(n)) for n in (1000, 100))
    argvs = [["sweep", "--mode", "analytic", "--gamma", gammas, "--t", ts],  # 4 MB of CSV
             ["sweep", "--print-config"], ["selftest"],
             ["tomo", "--counts", str(counts), "--out", str(tmp_path / "recon.csv")]]
    for argv in argvs:
        if stdout == "dev-full":
            sink = os.open("/dev/full", os.O_WRONLY)
        else:
            read, sink = os.pipe()
            os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "polsim", *argv], stdout=sink,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(sink)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write stdout: "), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("stdout", ["dev-full", "closed-pipe"])
def test_unwritable_stdout_leaves_no_descriptor_open(stdout):
    """The stdout-error branch points stdout at the null device through a
    descriptor it closes again: a process that calls main once with an
    unwritable stdout holds as many descriptors after the call as before."""
    if stdout == "dev-full" and not Path("/dev/full").exists():
        pytest.skip("/dev/full does not exist here")
    code = ("import os, sys\n"
            "import polsim.cli\n"
            "def open_fds():\n"
            "    fds = []\n"
            "    for fd in range(256):\n"
            "        try:\n"
            "            os.fstat(fd)\n"
            "        except OSError:\n"
            "            continue\n"
            "        fds.append(fd)\n"
            "    return fds\n"
            "before = open_fds()\n"
            "status = polsim.cli.main(['sweep', '--print-config'])\n"
            "print(status, before, open_fds(), sep='|', file=sys.stderr)\n")
    if stdout == "dev-full":
        sink = os.open("/dev/full", os.O_WRONLY)
    else:
        read, sink = os.pipe()
        os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", code], stdout=sink,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(sink)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("error: cannot write stdout: "), proc.stderr
    status, before, after = lines[-1].split("|")
    assert status == "2" and after == before, lines


def test_tomo_at_the_largest_degree_angles(tmp_path):
    """Angles of +-max degrees, 3.1e306 rad, are within a setting's range, and
    their rows are the doubles' cosines and sines as computed directly."""
    path, out = tmp_path / "counts.txt", tmp_path / "recon.csv"
    big = repr(sys.float_info.max)
    path.write_text("\n".join([COUNTS_HEADER, "H 0 0 49821", "V 0 90 17", "D 45 45 25006",
                               "R 0 45 24980", f"X {big} -{big} 30000",
                               f"Y -{big} {big} 20000", ""]))
    assert run_cli("tomo", "--counts", str(path), "--out", str(out)) == 0
    assert out.read_text() == (
        "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3\n"
        "1,51500.9009171,156.467727476,-528.148943447,-2789.13743351,51657.3686446,"
        "51344.4331897,-1056.29788689,5578.27486701\n")


COUNTS_HEADER = "label  qwp_angle_deg  polarizer_angle_deg  raw_count"
# rows a detector could write: the six analyzer settings of a real table, so
# that settings repeat, and settings at arbitrary finite angles
good_row = st.tuples(
    st.sampled_from(["H 0 0", "V 0 90", "D 45 45", "A 45 -45", "R 0 45", "L 0 -45"])
    | st.tuples(st.text(st.characters(codec="ascii", categories=["L", "N"]), min_size=1,
                        max_size=3),
                st.floats(-360.0, 360.0).map(repr),
                st.floats(-360.0, 360.0).map(repr)).map(" ".join),
    st.integers(0, 10**6).map(str),
).map(" ".join)
# and anything else: any label, and numbers that are huge, negative,
# non-integer or non-finite, or words
number_text = st.one_of(
    st.integers(-10, 10**6).map(str),
    st.integers(10**300, 10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "45", "-45", "90", "1e400", "-0", "1_000", "0x10", "x"]),
)
free_row = st.tuples(st.text(min_size=1, max_size=3), number_text, number_text,
                     number_text).map(" ".join)
huge_row = st.tuples(st.sampled_from(["H 0 0", "V 0 90", "D 45 45", "R 0 45"]),
                     st.integers(10**300, 10**310).map(str)).map(" ".join)
row_tables = st.one_of(
    st.lists(good_row, min_size=4, max_size=8),
    st.lists(st.one_of(good_row, huge_row, free_row), max_size=8),
).map(lambda rows: "\n".join([COUNTS_HEADER, *rows, ""]).encode("utf-8"))
raw_tables = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda raw: COUNTS_HEADER.encode("ascii") + b"\n" + raw),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row_tables | raw_tables)
# a pure optimum at V, with counts spanning 1.7e17
@example("\n".join([COUNTS_HEADER, "H 0 0 1", "V 0 90 6845211938", "D 45 45 0", "A 45 -45 0",
                    "R 0 45 165871889913479296", "L 0 -45 165871889913479296", ""]).encode("ascii"))
# a hard-case sphere step whose 1 - |w|^2 rounds an ulp below 0
@example("\n".join([COUNTS_HEADER, "H 0 0 378581126", "V 0 90 378581133", "D 45 45 0",
                    "A 45 -45 0", "R 0 45 0", "L 0 -45 543498538", ""]).encode("ascii"))
# counts spanning 1e133, where a Newton step falls below float resolution
@example("\n".join([COUNTS_HEADER, "H 0 0 0", "V 0 90 14019469025300819" + "0" * 18, "D 45 45 0",
                    "A 45 -45 147759927936737" + "0" * 63, "R 0 45 4643794223666853" + "0" * 118,
                    "L 0 -45 5496642835068205" + "0" * 94, ""]).encode("ascii"))
def test_tomo_on_any_counts_table_exits_cleanly_with_p_a_fraction(table):
    """Any counts file, as rows or as raw bytes, ends in exit 0, 2 or 3 with
    no traceback, and on exit 0 the written P lies in [0, 1]."""
    with tempfile.TemporaryDirectory() as scratch:
        counts, out = Path(scratch, "counts.txt"), Path(scratch, "recon.csv")
        counts.write_bytes(table)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run_cli("tomo", "--counts", str(counts), "--out", str(out))
        assert rc in (0, 2, 3), (rc, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if rc == 0:
            assert 0.0 <= float(out.read_text().splitlines()[1].split(",")[0]) <= 1.0


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "polsim", "sweep", "--print-config"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "t_phase_rad" in proc.stdout


def test_tomo_runs_without_importing_scipy(tmp_path):
    """The runtime needs numpy alone: six-setting fits, the path that used
    scipy.optimize, and four-setting fits import no scipy module, and each
    table writes the P it should."""
    rows = ("H 0 0", "V 0 90", "D 45 45", "A 45 -45", "R 0 45", "L 0 -45")
    tables = [  # H V D A R L counts, None where not measured, and the p_value written
        ((39872, 10131, 34990, 15006, 25114, 24903), "0.716628104208"),
        ((2, 2, 0, 0, 1, 8), "0.777777777778"),  # 7/9: no count sees S2
        ((1, 2, 2, 0, 14058082, 84763918), "1"),  # a pure optimum in a curved valley
        # pure and orthogonal to D, on the cone edge, at three scales
        *(((4 * k, 4 * k, 0, None, 4 * k, None), "1") for k in (1, 2, 1024)),
    ]
    argvs = []
    for k, (counts, _) in enumerate(tables):
        path = tmp_path / f"counts{k}.txt"
        path.write_text("\n".join([COUNTS_HEADER, *(f"{row} {n}" for row, n in zip(rows, counts)
                                                    if n is not None), ""]))
        argvs.append(["tomo", "--counts", str(path), "--out", str(tmp_path / f"recon{k}.csv")])
    code = ("import sys\n"
            "import polsim.cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert polsim.cli.main(argv) == 0, argv\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert [(tmp_path / f"recon{k}.csv").read_text().splitlines()[1].split(",")[0]
            for k in range(len(tables))] == [p_value for _, p_value in tables]


def test_numeric_sweep_of_a_million_rows_peaks_below_400_mb(tmp_path):
    """The pipeline's amplitude arrays have two idler columns, so a 1000x1000
    numeric sweep, interpreter included, stays well under 400 MB at its peak.  On
    Linux ru_maxrss also counts the pages of the process that spawned the child, at
    its exec, so there the child reads its own high-water mark, VmHWM."""
    axis = ",".join(repr(i / 999) for i in range(1000))
    argv = ["sweep", "--mode", "numeric", "--gamma", axis, "--t", axis,
            "--out", str(tmp_path / "sweep.csv")]
    code = ("import resource, sys\n"
            "import polsim.cli\n"
            f"assert polsim.cli.main({argv!r}) == 0\n"
            "if sys.platform == 'linux':\n"
            "    with open('/proc/self/status') as fh:\n"
            "        peak = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            "else:\n"
            "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(peak * (1 if sys.platform == 'darwin' else 1024))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 400 * 2**20
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 1000 * 1000


# ---------------------------------------------------------------------------
# The one-pass parse of plain command lines against argparse
# ---------------------------------------------------------------------------

FLAGS = ["--config", "--mode", "--gamma", "--t", "--replicates", "--seed", "--samples",
         "--out", "--print-config", "--counts"]
ABBREVIATIONS = ["--con", "--cou", "--co", "--mo", "--gam", "--rep", "--se", "--sa", "--s",
                 "--o", "--print"]
VALUES = [*MODES, "bogus", "0", "1", "2", "0.5", "10,20", "0,,1", "1,x", "x", "-1", "-0.5",
          "-5,10", "-x", "nan", "nan,1", "inf", "1e3", "", " ", "run.cfg", "rows.csv"]


def parse_or_exit(argv):
    """argparse's Namespace for argv, or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli._build_parser()[0].parse_args(argv)
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


_flag = st.sampled_from(FLAGS + ABBREVIATIONS + ["-h", "--help", "--"])
_value = st.sampled_from(VALUES)
_token = st.one_of(_flag, _value, st.builds("{}={}".format, _flag, _value))
_plain_pair = st.tuples(st.sampled_from(FLAGS), _value)
_group = st.one_of(_plain_pair, _plain_pair, _plain_pair, st.tuples(_flag, _value),
                   st.tuples(_token))
_command = st.sampled_from([[], ["sweep"], ["sweep"], ["selftest"], ["tomo"], ["tomo"],
                            ["bogus"], ["-h"], ["--help"]])
command_lines = st.builds(lambda command, groups: command + [t for g in groups for t in g],
                          _command, st.lists(_group, max_size=5))


@settings(max_examples=1000, deadline=None)
@given(command_lines)
@example(["sweep", "--gamma", "-5,10"])  # argparse reads a value like "-5,10" as an option
@example(["tomo", "--counts", "a", "--out", "-h"])
@example(["sweep", "--print-config", "x"])  # a flag takes no value
@example(["sweep", "--mode", "numeric", "--mode", "bogus"])
@example(["sweep", "--t", "nan,1", "--replicates", "-1"])
def test_plain_args_is_argparse_or_declines(argv):
    """On any line the table parse gives argparse's namespace (by repr, as nan
    never equals itself) or None, and None wherever argparse exits."""
    expected = parse_or_exit(list(argv))
    plain = cli._plain_args(list(argv))
    if isinstance(expected, tuple):
        assert plain is None, (argv, expected)
    elif plain is not None:
        assert repr(plain) == repr(expected), argv


def test_an_unseen_str_default_is_left_to_argparse(monkeypatch):
    """argparse passes an unseen option's str default through the option's type."""
    replicates = cli._build_parser()[1]["sweep"][0]["--replicates"]
    monkeypatch.setattr(replicates, "default", "2")
    argv = ["sweep", "--mode", "analytic"]
    assert parse_or_exit(argv).replicates == 2
    assert cli._plain_args(argv) is None
    assert cli._plain_args(argv + ["--replicates", "3"]).replicates == 3


def readme_command_lines():
    """The polsim command lines of the README's code blocks, an optional
    [--option value] taken."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```\n(.*?)```", text, re.DOTALL)).replace("\\\n", " ")
    return [shlex.split(line.replace("[", "").replace("]", ""))[1:]
            for line in blocks.splitlines() if line.startswith("polsim ")]


def workload_command_lines(tmp_path, monkeypatch):
    """The command lines of one smoke-size pass of each benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.WORKLOADS
            for argv in workloads.make_pass(name, 0, 0, "smoke", tmp_path).commands]


def test_readme_and_benchmark_command_lines_take_the_table(tmp_path, monkeypatch):
    lines = readme_command_lines()
    assert len(lines) == 5 and ["selftest"] in lines
    lines += workload_command_lines(tmp_path, monkeypatch)
    for argv in lines:
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert repr(plain) == repr(parse_or_exit(argv)), argv


@pytest.mark.parametrize("argv", [["-h"], ["sweep", "-h"], ["tomo", "--help"], ["bogus"],
                                  ["sweep", "--mode", "bogus"], ["tomo", "--out", "x"],
                                  ["selftest", "extra"]])
def test_help_and_usage_errors_are_argparse_own(argv):
    expected = parse_or_exit(argv)
    assert cli._plain_args(argv) is None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert ("exit", exc.value.code, out.getvalue(), err.getvalue()) == expected
