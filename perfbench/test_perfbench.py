"""Tests of the benchmark itself (not of polsim). Run from the repository root:

    python3 -m pytest perfbench

They run every workload at minimal size and check outputs and metric names;
they check no timing.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1])
def test_smoke_passes_every_check(seed):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(", 0 failed") == 2 * len(workloads.WORKLOADS)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_catalog()
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"rows_per_s", "setup_s", "peak_rss_mb", "pass_frac"}


def test_missing_functions_are_reported_absent(monkeypatch):
    spans = dict(tracing.SPANS)
    spans["fock.renamed"] = ["polsim.zwm:no_such_function"]
    spans["kernels.gone"] = ["polsim.no_such_module:mc_detection_count_numba"]
    monkeypatch.setattr(tracing, "SPANS", spans)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracing.absent_spans(tracer) == ["fock.renamed", "kernels.gone"]
    values = tracing.per_layer_metrics(tracer, 1, 1, 0.0, 0.0, ROOT)
    assert values["fock.pair_expectation_us.calls"] == 0.0


def test_span_info_tolerates_a_changed_signature():
    tracer = tracing.Tracer()
    traced = tracer._wrap("tomography.mle_reconstruct", lambda counts: counts)
    assert traced([1.0]) == [1.0]
    assert tracer.calls["tomography.mle_reconstruct"][0][2] is None


def test_tracer_restores_the_wrapped_functions():
    import polsim.sweep

    original = polsim.sweep.coherence_matrix
    with tracing.Tracer().installed():
        assert polsim.sweep.coherence_matrix is not original
    assert polsim.sweep.coherence_matrix is original


def test_analyzer_projectors_match_polsim():
    from polsim.tomography import MeasurementSetting, projector_from_setting

    for label, qwp, pol in workloads.SETTINGS_6:
        ours = workloads.analyzer_projector(qwp, pol)
        theirs = projector_from_setting(
            MeasurementSetting(label, math.radians(qwp), math.radians(pol)))
        assert abs(ours - theirs).max() < 1e-15, label


def test_inputs_depend_only_on_seed_and_pass(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.make_pass("tomography_fit", 7, 3, "smoke", tmp_path / "a")
    b = workloads.make_pass("tomography_fit", 7, 3, "smoke", tmp_path / "b")
    assert [[arg.replace(str(tmp_path / "a"), "") for arg in c] for c in a.commands] == \
        [[arg.replace(str(tmp_path / "b"), "") for arg in c] for c in b.commands]
    tables = sorted((tmp_path / "a").glob("counts_*.txt"))
    assert tables and all(t.read_text() == (tmp_path / "b" / t.name).read_text()
                          for t in tables)


def test_every_workload_has_a_host_probe():
    assert set(workloads.PROBE_KINDS) == set(workloads.WORKLOADS)
    for kinds in workloads.PROBE_KINDS.values():
        probe = hostprobe.HostProbe(kinds)
        assert probe() > 0.0 and probe.reference_s > 0.0
