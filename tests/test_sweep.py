"""Parameter sweeps across the five estimation modes."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (SIX_SETTINGS, floor_gain_config, fresh_projector, montecarlo_point_oracle,
                      random_config, setting_means, setting_signal, tomography_point_matrix,
                      tomography_point_oracle)
from polsim import newton, tomography
from polsim import sweep as sweep_module
from polsim.config import build_configs, parse_config_text
from polsim.errors import ParameterError, ZeroTraceError
from polsim.sweep import (
    CSV_HEADER,
    DEFAULT_MC_SAMPLES,
    MAX_ROWS,
    MODES,
    SweepSpec,
    format_rows,
    run_sweep,
    sweep_grid,
)
from polsim.tomography import (DEFAULT_SETTINGS, DetectorModel, expected_counts_grid,
                               four_setting_p)
from polsim.zwm import CoherenceMatrix, ZwmConfig, analytic_p_general, coherence_grid

DETECTOR = DetectorModel(kappa=3333.0, dark_rate=0.0, integration_time=15.0)


def make_spec(**overrides):
    base = dict(
        mode="analytic",
        gammas_deg=(0.0, 45.0, 90.0),
        t_values=(0.0, 0.5, 1.0),
        replicates=1,
        seed=11,
        mc_samples=DEFAULT_MC_SAMPLES,
    )
    base.update(overrides)
    return SweepSpec(**base)


def sweep(spec, cfg=None):
    return run_sweep(spec, cfg or ZwmConfig(), DETECTOR)


def test_mode_list_is_stable():
    assert MODES == ("analytic", "numeric", "tomography", "gedanken", "montecarlo")


def test_spec_validation():
    with pytest.raises(ParameterError):
        make_spec(mode="exact")
    with pytest.raises(ParameterError):
        make_spec(gammas_deg=())
    with pytest.raises(ParameterError):
        make_spec(t_values=())
    with pytest.raises(ParameterError):
        make_spec(gammas_deg=(100.0,))
    with pytest.raises(ParameterError):
        make_spec(t_values=(1.5,))
    with pytest.raises(ParameterError):
        make_spec(replicates=0)
    with pytest.raises(ParameterError):
        make_spec(mode="montecarlo", mc_samples=0)
    make_spec(mode="montecarlo", mc_samples=2**63 - 1)
    with pytest.raises(ParameterError):
        make_spec(mode="montecarlo", mc_samples=2**63)
    for mode in MODES:
        with pytest.raises(ParameterError):
            make_spec(mode=mode, seed=-1)
    # at most MAX_ROWS rows, replicates counting only in the modes that draw them
    for mode in ("montecarlo", "tomography"):
        make_spec(mode=mode, replicates=MAX_ROWS // 9)
        with pytest.raises(ParameterError):
            make_spec(mode=mode, replicates=MAX_ROWS // 9 + 1)
    make_spec(mode="analytic", replicates=10**20)
    with pytest.raises(ParameterError):
        make_spec(gammas_deg=(0.0,) * 3163, t_values=(0.5,) * 3163)


def test_spec_sorts_its_axes():
    spec = make_spec(gammas_deg=(90.0, 0.0, 45.0), t_values=(1.0, 0.25))
    assert spec.gammas_deg == (0.0, 45.0, 90.0)
    assert spec.t_values == (0.25, 1.0)


def test_analytic_rows_pin_known_values():
    rows = sweep(make_spec(gammas_deg=(90.0,), t_values=(0.5,)))
    assert len(rows) == 1
    gamma_deg, t_abs, mode, p, se = rows[0]
    assert (gamma_deg, t_abs, mode) == (90.0, 0.5, "analytic")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert se == 0.0


def test_gedanken_mode_matches_reduced_formula():
    rows = sweep(make_spec(mode="gedanken", gammas_deg=(0.0, 60.0), t_values=(0.8,)))
    for gamma_deg, t_abs, _, p, se in rows:
        c = math.cos(math.radians(gamma_deg))
        assert p == pytest.approx((t_abs + c) / (1 + t_abs * c), abs=1e-12)
        assert se == 0.0


def test_numeric_mode_agrees_with_analytic():
    """On the default grid, on a 201x201 grid, whose coherence matrices get
    no run-time check, on a config file's overlap and phases, and at the
    smallest gains, 1e-100, at random phases."""
    axes = {"gammas_deg": tuple(90 * i / 200 for i in range(201)),
            "t_values": tuple(i / 200 for i in range(201))}
    overlap, _ = build_configs(parse_config_text(
        "mu_overlap = 0.7\neta_idler = 0.8\nphi_i_rad = 0.3\nt_phase_rad = -0.54\n"))
    overlap_axes = {"gammas_deg": (0.0, 30.0, 60.0, 90.0), "t_values": (0.0, 0.5, 1.0)}
    cases = [({}, None, 1e-10), (axes, None, 1e-10), (overlap_axes, overlap, 1e-11)]
    rng = np.random.default_rng(115)
    cases += [({}, floor_gain_config(rng), 1e-12) for _ in range(2)]
    for grid, cfg, tol in cases:
        analytic = sweep(make_spec(mode="analytic", **grid), cfg)
        numeric = sweep(make_spec(mode="numeric", **grid), cfg)
        assert len(numeric) == len(analytic)
        for ra, rn in zip(analytic, numeric):
            assert ra[:2] == rn[:2]
            assert rn[3] == pytest.approx(ra[3], abs=tol)


def test_replicates_only_multiply_stochastic_modes():
    for mode in ("analytic", "numeric", "gedanken"):
        det = sweep(make_spec(mode=mode, replicates=3))
        assert len(det) == 9  # 3 gammas x 3 t values, replicates collapsed
        assert det == sweep(make_spec(mode=mode, replicates=1))
    mc = sweep(make_spec(
        mode="montecarlo", replicates=3, mc_samples=2000,
        gammas_deg=(30.0,), t_values=(0.5,),
    ))
    assert len(mc) == 3
    assert all(row[:2] == (30.0, 0.5) for row in mc)
    assert len({row[3] for row in mc}) > 1  # independent draws per replicate


def test_rows_come_out_in_grid_order():
    rows = sweep(make_spec(gammas_deg=(45.0, 0.0), t_values=(1.0, 0.0)))
    assert [r[:2] for r in rows] == [(0.0, 0.0), (0.0, 1.0), (45.0, 0.0), (45.0, 1.0)]


MC30 = make_spec(mode="montecarlo", gammas_deg=tuple(90 * i / 29 for i in range(30)),
                 t_values=tuple(i / 29 for i in range(30)), replicates=2,
                 mc_samples=10_000_000, seed=7)


def test_run_sweep_is_deterministic_per_seed():
    spec = make_spec(
        mode="montecarlo", gammas_deg=(30.0, 60.0), t_values=(0.7,),
        replicates=2, mc_samples=5000, seed=99,
    )
    assert sweep(spec) == sweep(spec)
    assert sweep(MC30) == sweep(MC30)
    shifted = make_spec(
        mode="montecarlo", gammas_deg=(30.0, 60.0), t_values=(0.7,),
        replicates=2, mc_samples=5000, seed=100,
    )
    assert [r[3] for r in sweep(spec)] != [r[3] for r in sweep(shifted)]


STREAM_SPECS = [make_spec(mode=mode, gammas_deg=(20.0, 45.0), t_values=(0.3, 0.6), replicates=3,
                          mc_samples=5000, seed=21) for mode in ("montecarlo", "tomography")]


def stochastic_grid(spec):
    """(P, stderr) of every row of a stochastic sweep, indexed [0 or 1, gamma, t, replicate]."""
    p, se = sweep_grid(spec, ZwmConfig(), DETECTOR)
    return np.stack((p, np.zeros(p.shape) if se is None else se))


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda spec: spec.mode)
def test_more_replicates_keep_the_first_rows(spec):
    """A sweep's R replicates of a point are the first R of any sweep with more."""
    rows = stochastic_grid(spec)  # 3 replicates
    for replicates in (1, 2):
        fewer = stochastic_grid(replace(spec, replicates=replicates))
        assert fewer.tolist() == rows[..., :replicates].tolist()
    assert stochastic_grid(replace(spec, replicates=7))[..., :3].tolist() == rows.tolist()


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda spec: spec.mode)
def test_grid_values_appended_above_an_axis_keep_the_earlier_rows(spec):
    """The grid points keep their indices, and so their generators and rows."""
    rows = stochastic_grid(spec).tolist()
    for gammas, ts in [((20.0, 45.0, 90.0), (0.3, 0.6)), ((20.0, 45.0), (0.3, 0.6, 0.61, 1.0)),
                       ((20.0, 45.0, 60.0, 75.0), (0.3, 0.6, 0.9))]:
        wider = stochastic_grid(replace(spec, gammas_deg=gammas, t_values=ts))
        assert wider[:, :2, :2].tolist() == rows


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda spec: spec.mode)
def test_stochastic_sweeps_seed_one_generator_per_grid_point(monkeypatch, spec):
    """sweep_grid builds one SeedSequence per grid point, keyed (gamma index,
    t index) in row order, whatever the replicate count."""
    keys = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            keys.append(kwargs.get("spawn_key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    for replicates in (1, 4):
        keys.clear()
        stochastic_grid(replace(spec, gammas_deg=(10.0, 30.0, 60.0), replicates=replicates))
        assert keys == [(ig, it) for ig in range(3) for it in range(2)]


def test_montecarlo_rows_track_closed_form():
    spec = make_spec(
        mode="montecarlo", gammas_deg=(0.0, 45.0, 90.0), t_values=(0.6,),
        mc_samples=200_000, seed=7,
    )
    for gamma_deg, t_abs, _, p, se in sweep(spec) + sweep(MC30):
        want = analytic_p_general(ZwmConfig(t=t_abs, gamma=math.radians(gamma_deg)))
        # at gamma = 0, and at |T| = 1, the dark port registers nothing, so
        # the stderr is 0
        assert se > 0.0 if gamma_deg > 0.0 and t_abs < 1.0 else se == 0.0
        assert abs(p - want) <= 5 * se + 1e-12


def test_tomography_rows_near_analytic():
    """Also at the smallest gains, 1e-100, at random phases, with no warning
    (the suite turns every warning into an error)."""
    spec = make_spec(mode="tomography", gammas_deg=(30.0, 60.0), t_values=(0.5,),
                     seed=5)
    rng = np.random.default_rng(181)
    for cfg in (ZwmConfig(), floor_gain_config(rng), floor_gain_config(rng)):
        for gamma_deg, t_abs, _, p, se in sweep(spec, cfg):
            want = analytic_p_general(replace(cfg, t=t_abs, gamma=math.radians(gamma_deg)))
            assert p == pytest.approx(want, abs=0.02)
            assert se == 0.0


def random_detector(rng):
    return DetectorModel(kappa=10 ** rng.uniform(2, 5), dark_rate=rng.uniform(0.1, 5),
                         integration_time=rng.uniform(1, 20))


def point_rng(seed, ig, it):
    """The generator grid point (ig, it) of a sweep with this seed draws from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ig, it)))


def test_tomography_rows_equal_the_per_point_oracle():
    """The grid pass gives every row the P that the per-point route draws and
    fits: the config moved to the point, one CoherenceMatrix and one trace
    per setting, then one Poisson draw per replicate, in turn, from the
    point's own generator."""
    rng = np.random.default_rng(606)
    for k in range(30):
        cfg, det = random_config(rng), random_detector(rng)
        spec = make_spec(mode="tomography", replicates=2, seed=k,
                         gammas_deg=(0.0, rng.uniform(0, 90), 90.0),
                         t_values=(0.0, rng.uniform(0, 1), 1.0))
        want = [(gamma_deg, t_abs, "tomography", p, 0.0)
                for ig, gamma_deg in enumerate(spec.gammas_deg)
                for it, t_abs in enumerate(spec.t_values)
                for p in tomography_point_oracle(cfg, gamma_deg, t_abs, det, 2,
                                                 point_rng(k, ig, it))]
        assert run_sweep(spec, cfg, det) == want


def test_montecarlo_rows_equal_the_per_point_oracle():
    """Every montecarlo row is the P and stderr that the per-point route gives:
    each replicate in turn samples its max and then its min extremum from the
    point's own generator, each through a GedankenConfig.  Random grids,
    replicates, seeds, phases and --samples up to 2^62; where the oracle finds
    no detection at either extremum (a one-sample grid may), the sweep raises
    ZeroTraceError too."""
    rng = np.random.default_rng(608)
    zero = 0
    for k in range(40):
        cfg = random_config(rng)
        gammas = rng.choice([0.0, 90.0, *rng.uniform(0, 90, 2)], rng.integers(1, 4), False)
        ts = rng.choice([0.0, 1.0, *rng.uniform(0, 1, 2)], rng.integers(1, 4), False)
        spec = make_spec(mode="montecarlo", replicates=int(rng.integers(1, 4)),
                         seed=int(rng.integers(0, 2**63)),
                         mc_samples=1 if k % 5 == 0 else int(2 ** rng.uniform(0, 62)),
                         gammas_deg=tuple(gammas.tolist()), t_values=tuple(ts.tolist()))
        try:
            want = [[montecarlo_point_oracle(cfg, gamma_deg, t_abs, spec.mc_samples,
                                             spec.replicates, point_rng(spec.seed, ig, it))
                     for it, t_abs in enumerate(spec.t_values)]
                    for ig, gamma_deg in enumerate(spec.gammas_deg)]
        except ZeroTraceError:
            with pytest.raises(ZeroTraceError):
                sweep_grid(spec, cfg, DETECTOR)
            zero += 1
            continue
        p, se = sweep_grid(spec, cfg, DETECTOR)
        assert [[list(zip(p_t, se_t)) for p_t, se_t in zip(p_g, se_g)]
                for p_g, se_g in zip(p, se)] == want
    assert 1 <= zero <= 10  # both branches run, and at least 30 grids compare rows


def test_expected_counts_grid_equals_per_setting_traces():
    """The grid's a_k . S(G) gives the same floats as each setting's own."""
    rng = np.random.default_rng(607)
    for _ in range(20):
        cfg, det = random_config(rng), random_detector(rng)
        points = [tomography_point_matrix(cfg, gamma_deg, t_abs)
                  for gamma_deg in rng.uniform(0, 90, 3) for t_abs in rng.uniform(0, 1, 2)]
        stack = np.array([g.matrix for g in points]).reshape(3, 2, 2, 2)
        for settings in (DEFAULT_SETTINGS, SIX_SETTINGS):
            got = expected_counts_grid(stack, settings, det)
            assert got.shape == (3, 2, len(settings))
            assert got.reshape(6, -1).tolist() == [setting_means(g, settings, det)
                                                   for g in points]
    # the state orthogonal to an analyzer reads a rounding-level signal
    # there, negative at V and A, which counts as zero
    pure = [CoherenceMatrix(np.eye(2) - fresh_projector(s)) for s in SIX_SETTINGS]
    got = expected_counts_grid(np.array([g.matrix for g in pure]), SIX_SETTINGS, DETECTOR)
    assert got.tolist() == [setting_means(g, SIX_SETTINGS, DETECTOR) for g in pure]
    signals = [setting_signal(g, s) for g, s in zip(pure, SIX_SETTINGS)]
    assert [k for k, x in enumerate(signals) if x < 0.0] == [1, 3]
    assert np.diagonal(got).tolist() == [0.0] * 6


def test_tomography_sweep_runs_no_scalar_fit(monkeypatch):
    """A tomography sweep takes its P from four_setting_p array passes over
    blocks of rows: it calls neither reconstruct_run nor ball_newton and builds no
    CoherenceMatrix, also where a row's fit would be pure."""
    calls = []
    for module, name in [(sweep_module, "reconstruct_run"), (tomography, "reconstruct_run"),
                         (tomography, "ball_newton"), (newton, "ball_newton")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name),
                            raising=False)
    monkeypatch.setattr(CoherenceMatrix, "__post_init__",
                        lambda self: calls.append("CoherenceMatrix"))
    p, se = sweep_grid(make_spec(mode="tomography", t_values=(0.5, 1.0), replicates=4),
                       ZwmConfig(), DETECTOR)
    assert calls == [] and se is None
    assert p.shape == (3, 2, 4) and 0 < np.count_nonzero(p == 1.0) < p.size


def block_oracle(spec, cfg, detector):
    """A tomography sweep's P grid, one four_setting_p pass per grid point over
    its replicates, drawn at once from the point's generator."""
    g = coherence_grid(cfg, np.radians(spec.gammas_deg), spec.t_values)
    mu = expected_counts_grid(g / np.trace(g, axis1=-2, axis2=-1).real[..., None, None],
                              DEFAULT_SETTINGS, detector)
    return np.array([[four_setting_p(point_rng(spec.seed, ig, it).poisson(
        np.broadcast_to(mu[ig, it], (spec.replicates, 4))), detector)
        for it in range(len(spec.t_values))] for ig in range(len(spec.gammas_deg))])


@pytest.mark.parametrize("shape, calls", [
    ((1, 2, 1), 1), ((2, 2, 4), 1),  # the benchmark's grids, smoke and full size
    ((20, 11, 20), 2),  # CI's, 4400 rows
    ((1, 1, 9000), 3), ((3, 1, 4095), 3),  # replicates that span blocks
])
def test_tomography_sweep_takes_p_one_block_of_rows_at_a_time(monkeypatch, shape, calls):
    """A tomography sweep draws every point's replicates in turn into blocks of
    at most _BLOCK_ROWS rows and makes one four_setting_p pass per block, so
    ceil(rows / _BLOCK_ROWS) passes; its rows equal one pass per grid point's."""
    n_g, n_t, replicates = shape
    spec = make_spec(mode="tomography", gammas_deg=tuple(np.linspace(5.0, 85.0, n_g)),
                     t_values=tuple(np.linspace(0.1, 1.0, n_t)), replicates=replicates, seed=3)
    sizes = []
    monkeypatch.setattr(sweep_module, "four_setting_p",
                        lambda raw, det: sizes.append(len(raw)) or four_setting_p(raw, det))
    p, _ = sweep_grid(spec, ZwmConfig(), DETECTOR)
    assert len(sizes) == calls == math.ceil(p.size / sweep_module._BLOCK_ROWS)
    assert max(sizes) <= sweep_module._BLOCK_ROWS and sum(sizes) == p.size
    assert np.array_equal(p, block_oracle(spec, ZwmConfig(), DETECTOR))


def test_a_tomography_sweep_of_half_a_million_rows_peaks_below_80_mb():
    """A 500x100 grid with 10 replicates holds its P array, 4 MB, and one
    block of counts at a time, so its process stays under 80 MB at its peak;
    counts for the whole grid at once would take it past 400 MB.  On Linux
    ru_maxrss also counts the pages of the process that spawned the child, at
    its exec, so there the child reads its own high-water mark, VmHWM."""
    code = ("import resource, sys\n"
            "import numpy as np\n"
            "from polsim.sweep import SweepSpec, sweep_grid\n"
            "from polsim.tomography import DetectorModel\n"
            "from polsim.zwm import ZwmConfig\n"
            "spec = SweepSpec(tuple(np.linspace(0.5, 89.5, 500)), tuple(np.linspace(0.01, 1, 100)),\n"
            "                 'tomography', replicates=10, seed=1)\n"
            "p, _ = sweep_grid(spec, ZwmConfig(), DetectorModel())\n"
            "assert p.shape == (500, 100, 10) and 0.0 <= p.min() and p.max() <= 1.0\n"
            "if sys.platform == 'linux':\n"
            "    with open('/proc/self/status') as fh:\n"
            "        peak = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            "else:\n"
            "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(peak * (1 if sys.platform == 'darwin' else 1024))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 80 * 2**20


def test_format_rows_layout():
    spec = make_spec(gammas_deg=(90.0,), t_values=(0.5,))
    text = format_rows(spec, *sweep_grid(spec, ZwmConfig(), DETECTOR))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert text.endswith("\n")
    fields = lines[1].split(",")
    assert fields[:3] == ["90", "0.5", "analytic"]
    assert float(fields[3]) == pytest.approx(0.5, abs=1e-12)
    assert fields[4] == "0"


def test_format_rows_formats_every_coordinate_as_given():
    """Each axis value is formatted once; -0.0 and 0.0 compare equal but
    print differently, and each keeps its own text.  The exact modes write a
    0 stderr, montecarlo its own, one row per replicate."""
    gammas, ts = (-0.0, 0.0, 12.5), (0.0, -0.0, 0.25)
    p = np.arange(9.0).reshape(3, 3, 1) / 7.0
    spec = make_spec(mode="numeric", gammas_deg=gammas, t_values=ts)
    expected = "".join(f"{g:.10g},{t:.10g},numeric,{p[ig, it, 0]:.12g},0\n"
                       for ig, g in enumerate(gammas) for it, t in enumerate(ts))
    assert format_rows(spec, p) == CSV_HEADER + "\n" + expected
    assert expected.startswith("-0,0,numeric,0,0\n-0,-0,numeric,0.142857142857,0\n")
    spec = make_spec(mode="montecarlo", gammas_deg=gammas, t_values=ts, replicates=2)
    p_mc = np.array([[[ig + it / 3.0, -0.0] for it in range(3)] for ig in range(3)])
    se_mc = np.array([[[0.01, 1e-20] for _ in range(3)] for _ in range(3)])
    expected = "".join(f"{g:.10g},{t:.10g},montecarlo,{p_mc[ig, it, rep]:.12g},"
                       f"{se_mc[ig, it, rep]:.12g}\n"
                       for ig, g in enumerate(gammas) for it, t in enumerate(ts)
                       for rep in range(2))
    assert format_rows(spec, p_mc, se_mc) == CSV_HEADER + "\n" + expected
    assert "\n0,-0,montecarlo,1.33333333333,0.01\n0,-0,montecarlo,-0,1e-20\n" in expected
