"""Parameter sweeps over (gamma, |T|) producing a flat CSV table.

The analytic, gedanken and numeric modes evaluate the whole grid as one array
expression.  The tomography mode computes the coherence matrix and the expected
counts of every grid point at once, then draws the rows into blocks of at most
_BLOCK_ROWS and takes the P of `polsim tomo`'s fit to each row of a block in one
array pass, four_setting_p.  The montecarlo mode samples the two extrema of each
row with gedanken's scalar sampler, on the grid SweepSpec validated once.  A
stochastic grid point draws its replicates in order from one generator keyed
(seed; gamma index, t index): tomography its Poisson counts, a montecarlo
replicate its max extremum, then its min.
So a fixed seed reproduces the output byte for byte, and a row does not change
with the replicate count or with grid values appended above an axis's maximum.
`sweep_grid` returns (P, stderr) float arrays in every mode; `format_rows` writes
the CSV from them in one pass, and `run_sweep` is their rows view for callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ParameterError, ZeroTraceError
from .gedanken import MAX_SAMPLES, _sample_detection, degree_of_polarization_gedanken_grid
from .tomography import DEFAULT_SETTINGS, DetectorModel, expected_counts_grid, four_setting_p
from .zwm import (ZwmConfig, _check_grid, analytic_p_grid, coherence_grid,
                  degree_of_polarization_grid)

MODES = ("analytic", "numeric", "tomography", "gedanken", "montecarlo")
CSV_HEADER = "gamma_deg,t_abs,mode,p_value,p_stderr"
DEFAULT_MC_SAMPLES = 100_000
# rows a sweep may write; their P and stderr arrays take 16 bytes a row, but the peak RSS
# of a 1000x1000 CLI sweep exceeds a 1x1 one's by about 222 bytes a row in numeric mode,
# 209 in analytic and 201 in gedanken (x86-64, CPython 3.11, numpy 2.4, commit 92cd010)
MAX_ROWS = 10**7
# the rows of counts a tomography sweep holds at once (128 kB), where a whole grid's
# could take MAX_ROWS rows; four_setting_p takes their P in one array pass
_BLOCK_ROWS = 4096


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
            raise ParameterError("gamma and t lists must be non-empty")
        _check_grid(np.radians(self.gammas_deg), self.t_values)
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.replicates < 1:
            raise ParameterError("replicates must be >= 1")
        rows = len(self.gammas_deg) * len(self.t_values) * (
            self.replicates if self.mode in ("tomography", "montecarlo") else 1)
        if rows > MAX_ROWS:
            raise ParameterError(f"the sweep would write {rows} rows, more than {MAX_ROWS}")
        if not 1 <= self.mc_samples <= MAX_SAMPLES:
            raise ParameterError(f"samples must be in [1, {MAX_SAMPLES}]")
        object.__setattr__(self, "gammas_deg", tuple(sorted(self.gammas_deg)))
        object.__setattr__(self, "t_values", tuple(sorted(self.t_values)))


def _mc_p_estimate(cfg: ZwmConfig, spec: SweepSpec, ig: int, it: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    gamma, m = math.radians(spec.gammas_deg[ig]), spec.t_values[it]
    (p_max, se_max), (p_min, se_min) = (
        _sample_detection(gamma, m, cfg.phi_s1, cfg.phi_s2, theta, spec.mc_samples, rng)
        for theta in (gamma / 2.0, gamma / 2.0 + math.pi / 2.0))
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
    replicate in the exact modes, and its stderr, None where that is 0 (every mode but
    montecarlo).  A stochastic mode seeds one generator per grid point, not per row."""
    gammas = np.radians(spec.gammas_deg)
    if spec.mode == "analytic":
        return analytic_p_grid(cfg, gammas, spec.t_values)[..., None], None
    if spec.mode == "gedanken":
        return degree_of_polarization_gedanken_grid(gammas, spec.t_values)[..., None], None
    if spec.mode == "numeric":
        g = coherence_grid(cfg, gammas, spec.t_values)
        return degree_of_polarization_grid(g)[..., None], None
    p, se = np.zeros((2, len(spec.gammas_deg), len(spec.t_values), spec.replicates))
    rngs = ((key, np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=key)))
            for key in product(*map(range, p.shape[:2])))
    if spec.mode == "montecarlo":
        for (ig, it), rng in rngs:
            for rep in range(spec.replicates):
                p[ig, it, rep], se[ig, it, rep] = _mc_p_estimate(cfg, spec, ig, it, rng)
        return p, se
    g = coherence_grid(cfg, gammas, spec.t_values)
    trace = g[..., 0, 0].real + g[..., 1, 1].real
    if np.any(trace <= 0.0):
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    # kappa is counts per unit intensity; normalize the arbitrary g^2 scale
    mu = expected_counts_grid(g / trace[..., None, None], DEFAULT_SETTINGS, detector)
    rows, block, done, filled = p.reshape(-1), np.empty((min(p.size, _BLOCK_ROWS), 4)), 0, 0
    for (ig, it), rng in rngs:
        left = spec.replicates
        while left:  # a point's replicates, drawn in order, may span blocks
            take = min(left, len(block) - filled)
            block[filled:filled + take] = rng.poisson(mu[ig, it], (take, 4))
            filled, left = filled + take, left - take
            if filled == len(block) or done + filled == rows.size:
                rows[done:done + filled] = four_setting_p(block[:filled], detector)
                done, filled = done + filled, 0
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
    each gamma's rows one template joined on its prefix, one % for every value.
    ParameterError where distinct values of an axis print the same."""
    axes = spec.gammas_deg, spec.t_values
    gamma_labels, t_labels = labels = [[f"{v:.10g}" for v in axis] for axis in axes]
    if any(len(set(texts)) < len(set(zip(texts, axis))) for texts, axis in zip(labels, axes)):
        raise ParameterError("distinct grid values print the same to 10 significant digits")
    cell = f",{spec.mode},%.12g," + ("%.12g\n" if se is not None else f"{0.0:.12g}\n")
    t_cells = ["", *(text for label in t_labels for text in [label + cell] * p.shape[2])]
    template = "".join([f"{label},".join(t_cells) for label in gamma_labels])
    values = p.ravel().tolist() if se is None else [
        v for pair in zip(p.ravel().tolist(), se.ravel().tolist()) for v in pair]
    return f"{CSV_HEADER}\n{template % tuple(values)}"
