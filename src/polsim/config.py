"""Flat key=value experiment config files.

Every key is optional; an empty (or absent) file describes the ideal
instrument.  The file describes the instrument; the (gamma, |T|) grid comes
from the command line.  Unknown keys, junk syntax and duplicate keys are
parse errors; values outside their physical range are range errors.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import ConfigError, ParameterError
from .tomography import DetectorModel
from .zwm import ImperfectionConfig, ZwmConfig

DEFAULTS = {
    "g1_mag": 0.01,
    "g1_phase_rad": 0.0,
    "g2_mag": 0.01,
    "g2_phase_rad": 0.0,
    "t_phase_rad": 0.0,
    "phi_s1_rad": 0.0,
    "phi_s2_rad": 0.0,
    "phi_i_rad": 0.0,
    "eta_idler": 1.0,
    "bs_tx": 1.0,
    "bs_ty": 1.0,
    "mu_overlap": 1.0,
    "kappa_cps": 3333.0,
    "time_s": 15.0,
    "dark_cps": 0.0,
}


def parse_config_text(text: str) -> dict[str, float]:
    """Parse `key = value` lines ('#' comments allowed) into a full value map.  The
    dataclasses of build_configs hold the range rules; a value they refuse is named
    with its line."""
    values = dict(DEFAULTS)
    seen_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=line_no)
        key, _, value_s = (part.strip() for part in line.partition("="))
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", line=line_no)
        if key in seen_lines:
            raise ConfigError(f"duplicate key {key!r} (first on line {seen_lines[key]})",
                              line=line_no)
        try:
            value = float(value_s)
        except ValueError:
            raise ConfigError(f"value for {key!r} is not a number: {value_s!r}",
                              line=line_no) from None
        if not math.isfinite(value):
            raise ParameterError(f"{key} must be finite", line=line_no)
        # ZwmConfig sees |g e^{i phase}|, which may round an ulp off the value typed, and
        # never its sign
        if key in ("g1_mag", "g2_mag") and not 1e-100 <= value <= 0.1:
            raise ParameterError(f"{key} = {value:g} violates 1e-100 <= value <= 0.1",
                                 line=line_no)
        seen_lines[key] = line_no
        values[key] = value
    try:
        build_configs(values)
    except ParameterError:
        # adding the keys in file order reaches the refused values, so some key raises
        trial = dict(DEFAULTS)
        for key, line_no in seen_lines.items():
            trial[key] = values[key]
            try:
                build_configs(trial)
            except ParameterError as exc:
                raise ParameterError(f"{key}: {exc}", line=line_no) from None
    return values


def build_configs(values: dict[str, float]) -> tuple[ZwmConfig, DetectorModel]:
    """The instrument at gamma = 0 and |T| = 1, with T = exp(i t_phase_rad)."""
    imperfections = ImperfectionConfig(
        eta_idler=values["eta_idler"],
        bs_tx=values["bs_tx"],
        bs_ty=values["bs_ty"],
        mu_overlap=values["mu_overlap"],
    )
    zwm = ZwmConfig(
        g1=values["g1_mag"] * cmath.exp(1j * values["g1_phase_rad"]),
        g2=values["g2_mag"] * cmath.exp(1j * values["g2_phase_rad"]),
        t=cmath.exp(1j * values["t_phase_rad"]),
        phi_s1=values["phi_s1_rad"],
        phi_s2=values["phi_s2_rad"],
        phi_i=values["phi_i_rad"],
        imperfections=imperfections,
    )
    detector = DetectorModel(
        kappa=values["kappa_cps"],
        dark_rate=values["dark_cps"],
        integration_time=values["time_s"],
    )
    return zwm, detector


@functools.cache  # the pair is frozen: build the default instrument once per process
def _default_configs() -> tuple[ZwmConfig, DetectorModel]:
    return build_configs(DEFAULTS)


def load_config(path: str | None) -> tuple[ZwmConfig, DetectorModel, dict[str, float]]:
    """Read and validate a config file; None means all defaults."""
    if path is None:
        return (*_default_configs(), dict(DEFAULTS))
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = parse_config_text(text)
    return (*build_configs(values), values)


def format_config(values: dict[str, float]) -> str:
    """Canonical dump of the effective config (every key, defaults included),
    each value in its shortest form that parses back to the same float."""
    return "\n".join(f"{key} = {float(values[key])!r}" for key in DEFAULTS) + "\n"
