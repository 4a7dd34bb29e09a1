"""Parameter sweeps over (gamma, |T|) producing a flat CSV table.

The analytic, gedanken and numeric modes evaluate the whole grid as one
array expression.  The tomography mode computes the coherence matrix and
the expected counts of every grid point at once, then draws and fits each
row; the montecarlo mode samples each row.  Every stochastic row derives its
generator from (seed, gamma index, t index, replicate), so a fixed seed
reproduces the output byte for byte regardless of grid shape or replicate
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigRangeError, ParameterError, ZeroTraceError
from .gedanken import (MAX_SAMPLES, GedankenConfig,
                       degree_of_polarization_gedanken_grid, monte_carlo_detection)
from .tomography import (
    DEFAULT_SETTINGS,
    DetectorModel,
    _poisson_draw,
    expected_counts_grid,
    reconstruct_run,
)
from .zwm import ZwmConfig, analytic_p_grid, coherence_grid, degree_of_polarization_grid

MODES = ("analytic", "numeric", "tomography", "gedanken", "montecarlo")
CSV_HEADER = "gamma_deg,t_abs,mode,p_value,p_stderr"
DEFAULT_MC_SAMPLES = 100_000


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: sorted gamma values (deg), sorted t values, mode."""

    gammas_deg: tuple[float, ...]
    t_values: tuple[float, ...]
    mode: str
    replicates: int = 1
    seed: int = 0
    mc_samples: int = DEFAULT_MC_SAMPLES

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.gammas_deg or not self.t_values:
            raise ConfigRangeError("gamma and t lists must be non-empty")
        if not all(map(math.isfinite, (*self.gammas_deg, *self.t_values))):
            raise ConfigRangeError("gamma and t values must be finite")
        for g in self.gammas_deg:
            if math.cos(math.radians(g)) < -1e-12:
                raise ConfigRangeError(f"gamma = {g} deg violates cos(gamma) >= 0")
        for t in self.t_values:
            if not 0.0 <= t <= 1.0:
                raise ConfigRangeError(f"t = {t} outside [0, 1]")
        if self.seed < 0:
            raise ConfigRangeError("seed must be >= 0")
        if self.replicates < 1:
            raise ConfigRangeError("replicates must be >= 1")
        if not 1 <= self.mc_samples <= MAX_SAMPLES:
            raise ConfigRangeError(f"samples must be in [1, {MAX_SAMPLES}]")
        object.__setattr__(self, "gammas_deg", tuple(sorted(self.gammas_deg)))
        object.__setattr__(self, "t_values", tuple(sorted(self.t_values)))


def _mc_p_estimate(cfg: ZwmConfig, gamma_deg: float, m: float,
                   samples: int, seed_seq) -> tuple[float, float]:
    gamma = math.radians(gamma_deg)
    children = seed_seq.spawn(2)
    common = dict(m=m, phi1=cfg.phi_s1, phi2=cfg.phi_s2, gamma=gamma)
    p_max, se_max = monte_carlo_detection(
        GedankenConfig(theta=gamma / 2.0, **common), samples, children[0]
    )
    p_min, se_min = monte_carlo_detection(
        GedankenConfig(theta=gamma / 2.0 + math.pi / 2.0, **common), samples, children[1]
    )
    total = p_max + p_min
    if total == 0.0:
        raise ZeroTraceError(
            f"degree of polarization undefined at zero intensity: no detection "
            f"at either extremum in {samples} samples each")
    # sampling noise can put p_min above p_max near P = 0; P is bounded at 0
    p = max(p_max - p_min, 0.0) / total
    stderr = 2.0 * math.hypot(p_min * se_max, p_max * se_min) / total**2
    return p, stderr


def run_sweep(spec: SweepSpec, cfg: ZwmConfig, detector: DetectorModel) -> list[tuple]:
    """Rows of (gamma_deg, t_abs, mode, p_value, p_stderr), ordered by
    (gamma, t, replicate)."""
    gammas = np.radians(spec.gammas_deg)
    if spec.mode not in ("tomography", "montecarlo"):
        if spec.mode == "analytic":
            p = analytic_p_grid(cfg, gammas, spec.t_values)
        elif spec.mode == "gedanken":
            p = degree_of_polarization_gedanken_grid(gammas, spec.t_values)
        else:
            p = degree_of_polarization_grid(coherence_grid(cfg, gammas, spec.t_values))
        return [(gamma_deg, t_abs, spec.mode, p_value, 0.0)
                for gamma_deg, p_row in zip(spec.gammas_deg, p.tolist())
                for t_abs, p_value in zip(spec.t_values, p_row)]
    if spec.mode == "tomography":
        g = coherence_grid(cfg, gammas, spec.t_values)
        trace = g[..., 0, 0].real + g[..., 1, 1].real
        if np.any(trace <= 0.0):
            raise ZeroTraceError("degree of polarization undefined at zero intensity")
        # kappa is counts per unit intensity; normalize the arbitrary g^2 scale
        mu = expected_counts_grid(g / trace[..., None, None], DEFAULT_SETTINGS, detector)
    rows = []
    for ig, gamma_deg in enumerate(spec.gammas_deg):
        for it, t_abs in enumerate(spec.t_values):
            for rep in range(spec.replicates):
                seed_seq = np.random.SeedSequence(
                    entropy=spec.seed, spawn_key=(ig, it, rep))
                if spec.mode == "montecarlo":
                    p, se = _mc_p_estimate(cfg, gamma_deg, t_abs,
                                           spec.mc_samples, seed_seq)
                else:
                    raw = _poisson_draw(mu[ig, it], seed_seq)
                    p = reconstruct_run(DEFAULT_SETTINGS, raw, detector).p_estimate
                    if math.isnan(p):
                        raise ZeroTraceError(
                            "degree of polarization undefined at zero intensity: all "
                            "background-corrected counts are zero")
                    se = 0.0
                rows.append((gamma_deg, t_abs, spec.mode, p, se))
    return rows


def format_rows(rows) -> str:
    # each distinct coordinate is formatted once; zeros are keyed by repr (-0.0)
    coords = {}
    lines = [CSV_HEADER]
    for gamma_deg, t_abs, mode, p, se in rows:
        g_key, t_key = gamma_deg or repr(gamma_deg), t_abs or repr(t_abs)
        if g_key not in coords:
            coords[g_key] = f"{gamma_deg:.10g}"
        if t_key not in coords:
            coords[t_key] = f"{t_abs:.10g}"
        lines.append(f"{coords[g_key]},{coords[t_key]},{mode},{p:.12g},{se:.12g}")
    return "\n".join(lines) + "\n"
