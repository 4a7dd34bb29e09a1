"""The four benchmark workloads: inputs, the polsim commands, and the checks.

A workload is run in passes. `make_pass(name, seed, index, size, scratch)`
writes the pass's input files, returns the CLI argument lists to run and a
`check` callable that judges the outputs. Inputs depend only on
(seed, pass index, size), never on polsim, so every commit sees the same
grids, seeds and counts tables.

The oracles used by the checks live here too (the closed forms from the
README, the Jones projectors of the analyzer, the stored pipeline
reference), so a change to polsim cannot change what it is checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_pipeline.json"

WORKLOADS = ("closed_form_grid", "pipeline_grid", "mc_sampling", "tomography_fit")

# Per-workload sizes; "smoke" is the minimal size the self-test runs.
SIZES = {
    "closed_form_grid": {"full": (60, 60), "smoke": (3, 3)},
    "pipeline_grid": {"full": (10, 6), "smoke": (2, 2)},
    "mc_sampling": {"full": (1, 1, 2, 1_000_000), "smoke": (1, 1, 1, 20_000)},
    "tomography_fit": {"full": (2, 1, 4, 6), "smoke": (1, 1, 1, 1)},
}

# The kinds of work (see hostprobe.py) the host probe before each pass does:
# per workload, the kinds whose time tracked its pass times best when both
# were measured (see README.md).
PROBE_KINDS = {
    "closed_form_grid": ("text",),
    "pipeline_grid": ("numeric", "text"),
    "mc_sampling": ("numeric", "text"),
    "tomography_fit": ("text",),
}

PIPELINE_TOL_IDEAL = 1e-10  # acceptance 2
PIPELINE_TOL_REFERENCE = 1e-12
MC_Z_LIMIT = 5.0  # acceptance 5
TOMO_P_TOL = 0.02  # acceptance 6
TOMO_MIN_HIT_RATE = 0.95
KAPPA_TIME = 3333.0 * 15.0  # detected counts per unit intensity, default config


@dataclass
class Tally:
    """Per-workload check results, accumulated over passes."""

    attempted: int = 0
    failed: int = 0
    fits: int = 0
    fits_close: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)

    def workload_failures(self, name: str) -> list[str]:
        if name == "tomography_fit" and self.fits:
            rate = self.fits_close / self.fits
            if rate < TOMO_MIN_HIT_RATE:
                return [f"only {self.fits_close}/{self.fits} fits within "
                        f"{TOMO_P_TOL} of the true P"]
        return []


@dataclass
class Pass:
    commands: list[list[str]]
    outputs: list[Path]
    rows: int  # output rows the commands should write (fits, for tomography)
    check: Callable[[list[str | None], Tally], None]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def closed_form_p(gamma_deg: float, t_abs: float, beta: float = 0.0) -> float:
    """README closed form P(gamma, |T|, beta) of the ideal interferometer."""
    g = math.radians(gamma_deg)
    c, s, cb = math.cos(g), math.sin(g), math.cos(beta)
    num = c * c + t_abs * t_abs * (s * s + c * c * cb * cb) + 2.0 * t_abs * c * cb
    return math.sqrt(max(num, 0.0)) / (1.0 + t_abs * c * cb)


def analyzer_projector(qwp_deg: float, pol_deg: float) -> np.ndarray:
    """J^dagger Pi_pol J for a quarter-wave plate (fast axis at qwp_deg,
    slow axis retarded by i) followed by a linear polarizer at pol_deg."""
    a, b = math.radians(qwp_deg), math.radians(pol_deg)
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    qwp = rot.T @ np.diag([1.0, 1j]) @ rot
    v = np.array([math.cos(b), math.sin(b)])
    return qwp.conj().T @ np.outer(v, v) @ qwp


SETTINGS_4 = (("H", 0.0, 0.0), ("V", 0.0, 90.0), ("D", 45.0, 45.0), ("R", 0.0, 45.0))
SETTINGS_6 = SETTINGS_4[:3] + (("A", 45.0, -45.0), SETTINGS_4[3], ("L", 0.0, -45.0))


def linear_inversion_is_psd(settings, counts) -> bool:
    """Whether the least-squares inversion of `counts` is already PSD.

    `settings` are polsim MeasurementSetting-like objects with qwp_angle and
    polarizer_angle in radians; this is the case in which a four-setting
    Poisson MLE equals the linear inversion exactly.
    """
    rows = []
    for s in settings:
        pi = analyzer_projector(math.degrees(s.qwp_angle), math.degrees(s.polarizer_angle))
        rows.append([pi[0, 0].real, pi[1, 1].real, 2 * pi[0, 1].real, 2 * pi[0, 1].imag])
    sol, *_ = np.linalg.lstsq(np.array(rows), np.asarray(counts, dtype=float), rcond=None)
    g = np.array([[sol[0], sol[2] + 1j * sol[3]], [sol[2] - 1j * sol[3], sol[1]]])
    return bool(np.linalg.eigvalsh(g).min() >= 0.0)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Input generation helpers
# ---------------------------------------------------------------------------

def _fmt(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def _unique_uniform(rng, low, high, n) -> list[float]:
    # six decimals so the values survive the CSV round trip exactly
    out: set[float] = set()
    while len(out) < n:
        out.add(round(float(rng.uniform(low, high)), 6))
    return sorted(out)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="ascii")
    return path


def _sweep_argv(mode, gammas, ts, out, **extra) -> list[str]:
    argv = ["sweep", "--mode", mode, "--gamma", _fmt(gammas), "--t", _fmt(ts),
            "--out", str(out)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    return argv


def _parse_sweep(text: str | None, mode: str, gammas, ts, reps: int):
    """Data rows of a sweep CSV as (gamma, t, p, se), or a reason it is unusable."""
    if text is None:
        return None, "command failed"
    lines = text.splitlines()
    if not lines or lines[0] != "gamma_deg,t_abs,mode,p_value,p_stderr":
        return None, "bad CSV header"
    expected = [(g, t) for g in gammas for t in ts for _ in range(reps)]
    if len(lines) - 1 != len(expected):
        return None, f"{len(lines) - 1} rows, expected {len(expected)}"
    rows = []
    for line, (g, t) in zip(lines[1:], expected):
        parts = line.split(",")
        try:
            ok = (len(parts) == 5 and parts[2] == mode
                  and abs(float(parts[0]) - g) <= 1e-9 and abs(float(parts[1]) - t) <= 1e-9)
            row = (g, t, float(parts[3]), float(parts[4]))
        except ValueError:
            ok, row = False, (g, t, math.nan, math.nan)
        rows.append(row if ok else (g, t, math.nan, math.nan))
    return rows, None


def _p_ok(p: float) -> bool:
    return math.isfinite(p) and 0.0 <= p <= 1.0


def _printed_tol(x: float) -> float:
    # 1.5 units in the twelfth significant digit (format_rows prints %.12g,
    # so two roundings of nearly equal values may differ by one unit),
    # floored at 1e-15 for values that are zero up to rounding
    return max(1.5 * 10.0 ** (math.floor(math.log10(max(abs(x), 1e-300))) - 11), 1e-15)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _closed_form_grid(rng, size, scratch: Path) -> Pass:
    n_g, n_t = size
    gammas = sorted({0.0, 90.0, *_unique_uniform(rng, 0.0, 90.0, n_g - 2)})
    ts = sorted({0.0, 1.0, *_unique_uniform(rng, 0.0, 1.0, n_t - 2)})
    outs = [scratch / "analytic.csv", scratch / "gedanken.csv"]
    commands = [_sweep_argv("analytic", gammas, ts, outs[0]),
                _sweep_argv("gedanken", gammas, ts, outs[1])]

    def check(texts, tally: Tally) -> None:
        parsed = [_parse_sweep(text, mode, gammas, ts, 1)
                  for text, mode in zip(texts, ("analytic", "gedanken"))]
        n = len(gammas) * len(ts)
        for rows, why in parsed:
            if rows is None:
                tally.fail(n, f"closed_form_grid: {why}")
        if parsed[0][0] is None or parsed[1][0] is None:
            return
        bad = 0
        for (g, t, pa, sa), (_, _, pg, sg) in zip(parsed[0][0], parsed[1][0]):
            oracle = closed_form_p(g, t)
            tol = _printed_tol(oracle)
            for p, se, other in ((pa, sa, pg), (pg, sg, pa)):
                if not (_p_ok(p) and se == 0.0 and abs(p - other) <= tol
                        and abs(p - oracle) <= tol):
                    bad += 1
        if bad:
            tally.fail(bad, f"closed_form_grid: {bad} rows disagree with each other "
                            "or with the closed form")

    return Pass(commands, outs, 2 * len(gammas) * len(ts), check)


def _pipeline_grid(rng, size, scratch: Path) -> Pass:
    n_g, n_t = size
    ref = load_reference()
    beta = math.pi / 3.0
    ideal_cfg = _write(scratch / "ideal.cfg", f"phi_s2_rad = {beta!r}\n")
    imperfect_cfg = _write(scratch / "imperfect.cfg", "".join(
        f"{k} = {v!r}\n" for k, v in ref["config"].items()))
    gammas1 = _unique_uniform(rng, 0.0, 90.0, n_g)
    ts1 = _unique_uniform(rng, 0.0, 1.0, n_t)
    ig = sorted(rng.choice(len(ref["gamma_deg"]), n_g, replace=False))
    it = sorted(rng.choice(len(ref["t_abs"]), n_t, replace=False))
    gammas2 = [ref["gamma_deg"][i] for i in ig]
    ts2 = [ref["t_abs"][j] for j in it]
    expected2 = {(ref["gamma_deg"][i], ref["t_abs"][j]): ref["p"][i][j] for i in ig for j in it}
    outs = [scratch / "ideal.csv", scratch / "imperfect.csv"]
    commands = [
        _sweep_argv("numeric", gammas1, ts1, outs[0], config=ideal_cfg),
        _sweep_argv("numeric", gammas2, ts2, outs[1], config=imperfect_cfg),
    ]

    def check(texts, tally: Tally) -> None:
        cases = (
            (texts[0], gammas1, ts1, lambda g, t: closed_form_p(g, t, beta),
             PIPELINE_TOL_IDEAL, "ideal, beta = pi/3, vs closed form"),
            (texts[1], gammas2, ts2, lambda g, t: expected2[g, t],
             PIPELINE_TOL_REFERENCE, "imperfect, vs stored reference"),
        )
        for text, gammas, ts, oracle, tol, what in cases:
            rows, why = _parse_sweep(text, "numeric", gammas, ts, 1)
            if rows is None:
                tally.fail(len(gammas) * len(ts), f"pipeline_grid {what}: {why}")
                continue
            bad = sum(not (_p_ok(p) and se == 0.0 and abs(p - oracle(g, t)) <= tol)
                      for g, t, p, se in rows)
            if bad:
                tally.fail(bad, f"pipeline_grid {what}: {bad} rows off by more than {tol:g}")

    return Pass(commands, outs, 2 * n_g * n_t, check)


def _mc_sampling(rng, size, scratch: Path) -> Pass:
    n_g, n_m, reps, samples = size
    gammas = _unique_uniform(rng, 10.0, 80.0, n_g)
    ms = _unique_uniform(rng, 0.1, 0.9, n_m)
    seed = int(rng.integers(0, 2**31))
    outs = [scratch / "mc_a.csv", scratch / "mc_b.csv"]
    commands = [_sweep_argv("montecarlo", gammas, ms, out, replicates=reps,
                            samples=samples, seed=seed) for out in outs]
    n = n_g * n_m * reps

    def check(texts, tally: Tally) -> None:
        rows, why = _parse_sweep(texts[0], "montecarlo", gammas, ms, reps)
        if rows is None:
            tally.fail(2 * n, f"mc_sampling: {why}")
            return
        bad = sum(not (_p_ok(p) and math.isfinite(se) and se >= 0.0
                       and abs(p - closed_form_p(g, m)) <= MC_Z_LIMIT * se)
                  for g, m, p, se in rows)
        if bad:
            tally.fail(bad, f"mc_sampling: {bad} rows beyond {MC_Z_LIMIT} stderr")
        if texts[1] != texts[0]:
            tally.fail(n, "mc_sampling: same-seed rerun is not byte-identical")

    return Pass(commands, outs, 2 * n, check)


def _random_coherence(rng, pure: bool) -> tuple[np.ndarray, float]:
    """Trace-2 coherence matrix with a random Stokes direction; P = 1 when
    `pure`, else P uniform in [0.2, 1)."""
    p = 1.0 if pure else float(rng.uniform(0.2, 1.0))
    v = rng.normal(size=3)
    s1, s2, s3 = p * v / np.linalg.norm(v)
    # S3 = 2 Im Gyx, the sign convention of polsim.zwm.stokes_parameters
    g = np.array([[1.0 + s1, s2 - 1j * s3], [s2 + 1j * s3, 1.0 - s1]])
    return g, p


def _tomography_fit(rng, size, scratch: Path) -> Pass:
    n_g, n_t, reps, n_tables = size
    gammas = _unique_uniform(rng, 0.0, 90.0, n_g)
    ts = sorted({*_unique_uniform(rng, 0.0, 0.95, n_t), 1.0})
    seed = int(rng.integers(0, 2**31))
    outs = [scratch / "tomo_sweep.csv"]
    commands = [_sweep_argv("tomography", gammas, ts, outs[0], replicates=reps, seed=seed)]
    truths = []
    for k in range(2 * n_tables):
        # alternate four and six settings; the first table of each kind is
        # pure, so every pass has the same mix of boundary and interior fits
        settings = SETTINGS_4 if k % 2 == 0 else SETTINGS_6
        g, p = _random_coherence(rng, pure=k < 2)
        lines = ["label  qwp_angle_deg  polarizer_angle_deg  raw_count"]
        for label, qwp, pol in settings:
            mu = KAPPA_TIME * max(float(np.trace(analyzer_projector(qwp, pol) @ g).real), 0.0)
            lines.append(f"{label}  {qwp:.6f}  {pol:.6f}  {int(rng.poisson(mu))}")
        table = _write(scratch / f"counts_{k}.txt", "\n".join(lines) + "\n")
        outs.append(scratch / f"recon_{k}.csv")
        commands.append(["tomo", "--counts", str(table), "--out", str(outs[-1])])
        truths.append(p)
    n_sweep = len(gammas) * len(ts) * reps

    def check(texts, tally: Tally) -> None:
        rows, why = _parse_sweep(texts[0], "tomography", gammas, ts, reps)
        if rows is None:
            tally.fail(n_sweep, f"tomography_fit sweep: {why}")
        else:
            bad = sum(not (_p_ok(p) and se == 0.0) for _, _, p, se in rows)
            if bad:
                tally.fail(bad, f"tomography_fit sweep: {bad} rows with P outside [0, 1]")
            tally.fits += n_sweep
            tally.fits_close += sum(abs(p - closed_form_p(g, t)) <= TOMO_P_TOL
                                    for g, t, p, _ in rows)
        for text, p_true in zip(texts[1:], truths):
            problem = _check_recon(text)
            if problem:
                tally.fail(1, f"tomography_fit tomo: {problem}")
                continue
            tally.fits += 1
            tally.fits_close += abs(float(text.splitlines()[1].split(",")[0]) - p_true) <= TOMO_P_TOL

    return Pass(commands, outs, n_sweep + 2 * n_tables, check)


def _check_recon(text: str | None) -> str | None:
    """Why a `polsim tomo` output is not a finite, PSD fit, or None if it is."""
    if text is None:
        return "command failed"
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3":
        return "malformed output"
    try:
        p, gxx, gyy, re, im = (float(v) for v in lines[1].split(",")[:5])
    except ValueError:
        return "malformed output"
    if not _p_ok(p):
        return f"P = {p} outside [0, 1]"
    tr = gxx + gyy
    if not (tr > 0.0 and min(gxx, gyy) >= -1e-9 * tr
            and gxx * gyy - re * re - im * im >= -1e-9 * tr * tr):
        return "reconstruction is not PSD"
    if abs(math.hypot(gxx - gyy, 2.0 * math.hypot(re, im)) / tr - p) > 1e-9:
        return "P does not match the reconstructed matrix"
    return None


_BUILDERS = {
    "closed_form_grid": _closed_form_grid,
    "pipeline_grid": _pipeline_grid,
    "mc_sampling": _mc_sampling,
    "tomography_fit": _tomography_fit,
}


def make_pass(name: str, seed: int, index: int, size: str, scratch: Path) -> Pass:
    rng = np.random.default_rng([seed, index])
    return _BUILDERS[name](rng, SIZES[name][size], scratch)


def execute(cli, p: Pass) -> tuple[float, list[str | None]]:
    """Run the pass's commands in-process; returns (wall seconds, outputs).

    Only the commands are timed. An output is None when its command raised,
    exited non-zero or wrote nothing.
    """
    for out in p.outputs:
        out.unlink(missing_ok=True)
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for argv in p.commands:
            try:
                codes.append(cli.main(argv))
            except (Exception, SystemExit):
                codes.append(-1)
        elapsed = time.perf_counter() - start
    texts = []
    for code, out in zip(codes, p.outputs):
        texts.append(out.read_text(encoding="ascii") if code == 0 and out.exists() else None)
    return elapsed, texts


def rows_written(texts: list[str | None]) -> int:
    return sum(text.count("\n") - 1 for text in texts if text)

