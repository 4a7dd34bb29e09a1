"""Parameter sweeps over (gamma, |T|) producing a flat CSV table.

The analytic, gedanken and numeric modes evaluate the whole grid as one
array expression.  The tomography mode computes the coherence matrix and
the expected counts of every grid point at once, then draws each row and
reconstructs it with reconstruct_run, the call behind `polsim tomo`.  The
montecarlo mode samples the two extrema of each row with gedanken's scalar
sampler, on the grid SweepSpec validated once.  Every stochastic row
derives its generator from (seed; gamma index, t index, replicate), and a
montecarlo extremum k from the child SeedSequence (seed; gamma index,
t index, replicate, k), so a fixed seed reproduces the output byte for
byte regardless of grid shape or replicate count.  `sweep_grid` returns
(P, stderr) float arrays in every mode; `format_rows` writes the CSV from
them in one pass, and `run_sweep` is their rows view for library callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigRangeError, ParameterError, ZeroTraceError
from .gedanken import MAX_SAMPLES, _sample_detection, degree_of_polarization_gedanken_grid
from .tomography import (
    DEFAULT_SETTINGS,
    DetectorModel,
    _poisson_draw,
    expected_counts_grid,
    reconstruct_run,
)
from .zwm import ZwmConfig, _erasable, analytic_p_grid, coherence_grid, degree_of_polarization_grid

MODES = ("analytic", "numeric", "tomography", "gedanken", "montecarlo")
CSV_HEADER = "gamma_deg,t_abs,mode,p_value,p_stderr"
DEFAULT_MC_SAMPLES = 100_000
# rows a sweep may write; their P and stderr arrays take 16 bytes a row, but at
# its peak a numeric sweep holds about 210 bytes a row and a closed-form one 185
MAX_ROWS = 10**7


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
            if not _erasable(math.radians(g)):
                raise ConfigRangeError(f"gamma = {g} deg violates cos(gamma) >= 0")
        for t in self.t_values:
            if not 0.0 <= t <= 1.0:
                raise ConfigRangeError(f"t = {t} outside [0, 1]")
        if self.seed < 0:
            raise ConfigRangeError("seed must be >= 0")
        if self.replicates < 1:
            raise ConfigRangeError("replicates must be >= 1")
        rows = len(self.gammas_deg) * len(self.t_values) * (
            self.replicates if self.mode in ("tomography", "montecarlo") else 1)
        if rows > MAX_ROWS:
            raise ConfigRangeError(f"the sweep would write {rows} rows, more than {MAX_ROWS}")
        if not 1 <= self.mc_samples <= MAX_SAMPLES:
            raise ConfigRangeError(f"samples must be in [1, {MAX_SAMPLES}]")
        object.__setattr__(self, "gammas_deg", tuple(sorted(self.gammas_deg)))
        object.__setattr__(self, "t_values", tuple(sorted(self.t_values)))


def _mc_p_estimate(cfg: ZwmConfig, spec: SweepSpec, ig: int, it: int,
                   rep: int) -> tuple[float, float]:
    gamma, m = math.radians(spec.gammas_deg[ig]), spec.t_values[it]
    # extremum k draws from the child k that spawn(2) of the row's SeedSequence gives
    (p_max, se_max), (p_min, se_min) = (
        _sample_detection(gamma, m, cfg.phi_s1, cfg.phi_s2, theta, spec.mc_samples,
                          np.random.SeedSequence(entropy=spec.seed, spawn_key=(ig, it, rep, k)))
        for k, theta in enumerate((gamma / 2.0, gamma / 2.0 + math.pi / 2.0)))
    total = p_max + p_min
    if total == 0.0:
        raise ZeroTraceError(
            f"degree of polarization undefined at zero intensity: no detection "
            f"at either extremum in {spec.mc_samples} samples each")
    # sampling noise can put p_min above p_max near P = 0; P is bounded at 0
    p = max(p_max - p_min, 0.0) / total
    stderr = 2.0 * math.hypot(p_min * se_max, p_max * se_min) / total**2
    return p, stderr


def sweep_grid(spec: SweepSpec, cfg: ZwmConfig, detector: DetectorModel):
    """(p, se): each row's P as a float array indexed [gamma, t, replicate], one
    replicate in the exact modes, and its stderr, None where that is 0 (every
    mode but montecarlo)."""
    gammas = np.radians(spec.gammas_deg)
    if spec.mode == "analytic":
        return analytic_p_grid(cfg, gammas, spec.t_values)[..., None], None
    if spec.mode == "gedanken":
        return degree_of_polarization_gedanken_grid(gammas, spec.t_values)[..., None], None
    if spec.mode == "numeric":
        g = coherence_grid(cfg, gammas, spec.t_values)
        return degree_of_polarization_grid(g)[..., None], None
    p, se = np.zeros((2, len(spec.gammas_deg), len(spec.t_values), spec.replicates))
    if spec.mode == "montecarlo":
        for ig, it, rep in product(*map(range, p.shape)):
            p[ig, it, rep], se[ig, it, rep] = _mc_p_estimate(cfg, spec, ig, it, rep)
        return p, se
    g = coherence_grid(cfg, gammas, spec.t_values)
    trace = g[..., 0, 0].real + g[..., 1, 1].real
    if np.any(trace <= 0.0):
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    # kappa is counts per unit intensity; normalize the arbitrary g^2 scale
    mu = expected_counts_grid(g / trace[..., None, None], DEFAULT_SETTINGS, detector)
    for ig, it, rep in product(*map(range, p.shape)):
        raw = _poisson_draw(mu[ig, it], np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(ig, it, rep)))
        p[ig, it, rep] = reconstruct_run(DEFAULT_SETTINGS, raw, detector).p_estimate
    return p, None


def run_sweep(spec: SweepSpec, cfg: ZwmConfig, detector: DetectorModel) -> list[tuple]:
    """Rows of (gamma_deg, t_abs, mode, p_value, p_stderr), ordered by
    (gamma, t, replicate): the `sweep_grid` result as rows, for library callers."""
    p, se = sweep_grid(spec, cfg, detector)
    pairs = np.stack((p, np.zeros(p.shape) if se is None else se), -1).tolist()
    return [(gamma_deg, t_abs, spec.mode, p_value, p_stderr)
            for gamma_deg, pairs_g in zip(spec.gammas_deg, pairs)
            for t_abs, pairs_t in zip(spec.t_values, pairs_g)
            for p_value, p_stderr in pairs_t]


def format_rows(spec: SweepSpec, p, se=None) -> str:
    """The CSV text of a `sweep_grid` result: each axis value formatted once,
    each gamma's rows one template joined on its prefix, one % for every value."""
    cell = f",{spec.mode},%.12g," + ("%.12g\n" if se is not None else f"{0.0:.12g}\n")
    t_cells = ["", *(text for t_abs in spec.t_values
                     for text in [f"{t_abs:.10g}{cell}"] * p.shape[2])]
    template = "".join([f"{gamma_deg:.10g},".join(t_cells) for gamma_deg in spec.gammas_deg])
    values = p.ravel().tolist() if se is None else [
        v for pair in zip(p.ravel().tolist(), se.ravel().tolist()) for v in pair]
    return f"{CSV_HEADER}\n{template % tuple(values)}"
