"""Parameter sweeps across the five estimation modes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (SIX_SETTINGS, floor_gain_config, fresh_projector, montecarlo_row_oracle,
                      random_config, setting_means, setting_signal, tomography_point_matrix,
                      tomography_row_oracle)
from polsim import sweep as sweep_module
from polsim.config import build_configs, parse_config_text
from polsim.errors import ConfigRangeError, ParameterError, ZeroTraceError
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
from polsim.tomography import DEFAULT_SETTINGS, DetectorModel, expected_counts_grid
from polsim.zwm import CoherenceMatrix, ZwmConfig, analytic_p_general

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
    with pytest.raises(ConfigRangeError):
        make_spec(gammas_deg=())
    with pytest.raises(ConfigRangeError):
        make_spec(t_values=())
    with pytest.raises(ConfigRangeError):
        make_spec(gammas_deg=(100.0,))
    with pytest.raises(ConfigRangeError):
        make_spec(t_values=(1.5,))
    with pytest.raises(ConfigRangeError):
        make_spec(replicates=0)
    with pytest.raises(ConfigRangeError):
        make_spec(mode="montecarlo", mc_samples=0)
    make_spec(mode="montecarlo", mc_samples=2**63 - 1)
    with pytest.raises(ConfigRangeError):
        make_spec(mode="montecarlo", mc_samples=2**63)
    for mode in MODES:
        with pytest.raises(ConfigRangeError):
            make_spec(mode=mode, seed=-1)
    # at most MAX_ROWS rows, replicates counting only in the modes that draw them
    for mode in ("montecarlo", "tomography"):
        make_spec(mode=mode, replicates=MAX_ROWS // 9)
        with pytest.raises(ConfigRangeError):
            make_spec(mode=mode, replicates=MAX_ROWS // 9 + 1)
    make_spec(mode="analytic", replicates=10**20)
    with pytest.raises(ConfigRangeError):
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


def test_tomography_rows_equal_the_per_row_oracle():
    """The grid pass gives every row the P that the per-point route draws and
    fits: the config moved to the point, one CoherenceMatrix and one trace
    per setting, the Poisson draw from the row's own SeedSequence."""
    rng = np.random.default_rng(606)
    for k in range(30):
        cfg, det = random_config(rng), random_detector(rng)
        spec = make_spec(mode="tomography", replicates=2, seed=k,
                         gammas_deg=(0.0, rng.uniform(0, 90), 90.0),
                         t_values=(0.0, rng.uniform(0, 1), 1.0))
        want = [(gamma_deg, t_abs, "tomography",
                 tomography_row_oracle(cfg, gamma_deg, t_abs, det, np.random.SeedSequence(
                     entropy=k, spawn_key=(ig, it, rep))), 0.0)
                for ig, gamma_deg in enumerate(spec.gammas_deg)
                for it, t_abs in enumerate(spec.t_values)
                for rep in range(2)]
        assert run_sweep(spec, cfg, det) == want


def test_montecarlo_rows_equal_the_per_row_oracle():
    """Every montecarlo row is the P and stderr that the per-row route gives:
    the row's SeedSequence spawns one child per extremum, each sampled
    through a GedankenConfig.  Random grids, replicates, seeds, phases and
    --samples up to 2^62; where the oracle finds no detection at either
    extremum (a one-sample grid may), the sweep raises ZeroTraceError too."""
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
            want = [[[montecarlo_row_oracle(cfg, gamma_deg, t_abs, spec.mc_samples,
                                            np.random.SeedSequence(entropy=spec.seed,
                                                                   spawn_key=(ig, it, rep)))
                      for rep in range(spec.replicates)]
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
    assert 1 <= zero <= 8


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


def test_tomography_sweep_checks_each_coherence_matrix_once(monkeypatch):
    """The grid's coherence matrices are Gram matrices and get no run-time
    check; each row's reconstruction is checked exactly once, when it
    becomes a CoherenceMatrix."""
    checked, runs = [], []
    check = CoherenceMatrix.__post_init__
    monkeypatch.setattr(CoherenceMatrix, "__post_init__",
                        lambda self: checked.append(self.matrix) or check(self))
    fit = sweep_module.reconstruct_run
    monkeypatch.setattr(sweep_module, "reconstruct_run",
                        lambda *args: runs.append(fit(*args)) or runs[-1])
    rows = sweep(make_spec(mode="tomography", t_values=(0.5, 1.0), replicates=2))
    assert len(rows) == len(runs) == 12
    assert len(checked) == 12
    assert all(m is run.reconstruction.matrix for m, run in zip(checked, runs))


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
