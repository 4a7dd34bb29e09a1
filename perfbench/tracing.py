"""Per-layer tracing by wrapping polsim functions from outside.

Each span wraps one polsim function at every name its callers look it up by
(for example `polsim.sweep.coherence_matrix` and `polsim.zwm.coherence_matrix`)
for the duration of `Tracer.installed()`. No polsim source changes. A span
whose function no longer exists at any of its sites is reported as absent
and its metrics read 0; the run does not fail.

Spans nest through a stack, so a span's self time is its duration minus the
durations of the traced spans it called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

import workloads

# span name -> "module:attribute" sites the callers look the function up by.
# numeric_degree_of_polarization and reconstruct_run report no metric of
# their own; tracing them keeps their time out of their callers' self time.
SPANS = {
    "cli.main": ["polsim.cli:main"],
    "config.load_config": ["polsim.cli:load_config"],
    "sweep.run_sweep": ["polsim.cli:run_sweep"],
    "sweep.format_rows": ["polsim.cli:format_rows"],
    "zwm.analytic_p_general": ["polsim.sweep:analytic_p_general"],
    "zwm.config_with": ["polsim.sweep:config_with"],
    "zwm.numeric_degree_of_polarization": ["polsim.sweep:numeric_degree_of_polarization"],
    "zwm.build_state": ["polsim.zwm:build_state", "polsim.sweep:build_state"],
    "zwm.output_fields": ["polsim.zwm:output_fields", "polsim.sweep:output_fields"],
    "zwm.coherence_matrix": ["polsim.zwm:coherence_matrix", "polsim.sweep:coherence_matrix"],
    "zwm.degree_of_polarization": ["polsim.zwm:degree_of_polarization",
                                   "polsim.tomography:degree_of_polarization"],
    "fock.pair_expectation": ["polsim.zwm:pair_expectation"],
    "fock.apply_creation": ["polsim.zwm:apply_creation"],
    "elements.attenuator": ["polsim.zwm:attenuator"],
    "elements.polarization_rotation": ["polsim.zwm:polarization_rotation"],
    "elements.beam_splitter": ["polsim.zwm:beam_splitter"],
    "elements.waveplate_jones": ["polsim.tomography:waveplate_jones"],
    "elements.polarizer_jones": ["polsim.tomography:polarizer_jones"],
    "gedanken.monte_carlo_detection": ["polsim.sweep:monte_carlo_detection"],
    "gedanken.degree_of_polarization_gedanken": [
        "polsim.sweep:degree_of_polarization_gedanken"],
    "kernels.mc_detection_count": ["polsim.kernels:mc_detection_count"],
    "kernels.nll_poisson_grad": ["polsim.kernels:nll_poisson_grad"],
    "kernels.nll_poisson_batch": ["polsim.kernels:nll_poisson_batch"],
    "tomography.simulate_counts": ["polsim.sweep:simulate_counts"],
    "tomography.reconstruct_run": ["polsim.sweep:reconstruct_run",
                                   "polsim.cli:reconstruct_run"],
    "tomography.mle_reconstruct": ["polsim.tomography:mle_reconstruct"],
    "tomography.read_counts_table": ["polsim.cli:read_counts_table"],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_info(args, kwargs, result):
    settings = tuple(_arg(args, kwargs, 1, "settings"))
    counts = _arg(args, kwargs, 0, "corrected_counts")
    eligible = len(settings) == 4 and workloads.linear_inversion_is_psd(settings, counts)
    return len(settings), eligible


# What a span keeps from a call besides its times. It runs after the span
# closes; if a later signature change breaks it, the call keeps no info.
_INFO = {
    "sweep.run_sweep": lambda a, k, r: len(r),
    "gedanken.monte_carlo_detection": lambda a, k, r: int(_arg(a, k, 1, "samples")),
    "tomography.mle_reconstruct": _fit_info,
}


def _info(name, args, kwargs, result):
    extract = _INFO.get(name)
    if extract is None:
        return None
    try:
        return extract(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None


class Tracer:
    """Collects (duration, self time, info) per span name."""

    def __init__(self):
        self.calls: dict[str, list[tuple[float, float, object]]] = defaultdict(list)
        self._stack: list[list[float]] = []
        self.present: set[str] = set()

    def _wrap(self, name, fn):
        record = self.calls[name].append
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            record((duration, duration - frame[0], _info(name, args, kwargs, result)))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for name, sites in SPANS.items():
                for site in sites:
                    module_name, attr = site.split(":")
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        continue
                    fn = getattr(module, attr, None)
                    if not callable(fn):
                        continue
                    originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
                    self.present.add(name)
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def _us(values) -> list[float]:
    return sorted(v * 1e6 for v in values)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1] if len(values) > 1 \
        else _median(values)


# (metric, unit, better) in report order; BENCHMARK.json lists the same.
TIMED_SPANS = {
    "config.load_config_us": "config.load_config",
    "zwm.analytic_p_general_us": "zwm.analytic_p_general",
    "zwm.config_with_us": "zwm.config_with",
    "zwm.build_state_us": "zwm.build_state",
    "zwm.output_fields_us": "zwm.output_fields",
    "zwm.coherence_matrix_us": "zwm.coherence_matrix",
    "zwm.degree_of_polarization_us": "zwm.degree_of_polarization",
    "fock.pair_expectation_us": "fock.pair_expectation",
    "gedanken.monte_carlo_detection_us": "gedanken.monte_carlo_detection",
    "gedanken.degree_of_polarization_gedanken_us": "gedanken.degree_of_polarization_gedanken",
    "kernels.mc_detection_count_us": "kernels.mc_detection_count",
    "kernels.nll_poisson_grad_us": "kernels.nll_poisson_grad",
    "tomography.simulate_counts_us": "tomography.simulate_counts",
    "tomography.fit4_us": "tomography.mle_reconstruct",
    "tomography.fit6_us": "tomography.mle_reconstruct",
    "tomography.read_counts_table_us": "tomography.read_counts_table",
}
SELF_SPANS = {
    "zwm.coherence_matrix.self_us": "zwm.coherence_matrix",
    "gedanken.monte_carlo_detection.self_us": "gedanken.monte_carlo_detection",
    "tomography.mle_reconstruct.self_us": "tomography.mle_reconstruct",
}
OTHER_METRICS = [
    ("cli.main.self_s", "s", "lower"),
    ("sweep.run_sweep.self_us_per_row", "us", "lower"),
    ("sweep.format_rows_s", "s", "lower"),
    ("sweep.rows", "count", "higher"),
    ("fock.pair_expectation.calls_per_row", "calls/row", "lower"),
    ("fock.apply_creation.calls_per_row", "calls/row", "lower"),
    ("elements.calls_per_row", "calls/row", "lower"),
    ("gedanken.samples_per_s", "1/s", "higher"),
    ("gedanken.draw_bytes", "B", "lower"),
    ("kernels.nll_poisson_grad.calls_per_fit", "calls/fit", "lower"),
    ("kernels.nll_poisson_batch.calls_per_fit", "calls/fit", "lower"),
    ("tomography.exact_eligible_ratio", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("src.lines", "lines", "lower"),
    ("fail_frac", "ratio", "lower"),
]


def per_layer_catalog() -> list[tuple[str, str, str]]:
    out = []
    for metric in TIMED_SPANS:
        out += [(metric, "us", "lower"), (metric + ".p95", "us", "lower"),
                (metric + ".calls", "count", "lower")]
    for metric in SELF_SPANS:
        out += [(metric, "us", "lower"), (metric + ".p95", "us", "lower")]
    return out + OTHER_METRICS


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def per_layer_metrics(tracer: Tracer, passes: int, rows: int, overhead_frac: float,
                      fail_frac: float, root: Path) -> dict[str, float]:
    """Per-layer metric values from the spans of `passes` traced passes that
    wrote `rows` output rows. Counts and totals are per pass."""
    calls = tracer.calls
    fits = calls["tomography.mle_reconstruct"]
    fit_settings = {"tomography.fit4_us": 4, "tomography.fit6_us": 6}

    def durations(metric, span):
        if metric in fit_settings:
            return [d for d, _, info in fits if info and info[0] == fit_settings[metric]]
        return [d for d, _, _ in calls[span]]

    out: dict[str, float] = {}
    for metric, span in TIMED_SPANS.items():
        values = _us(durations(metric, span))
        out[metric] = _median(values)
        out[metric + ".p95"] = _p95(values)
        out[metric + ".calls"] = len(values) / passes
    for metric, span in SELF_SPANS.items():
        values = _us(s for _, s, _ in calls[span])
        out[metric] = _median(values)
        out[metric + ".p95"] = _p95(values)

    def total(span, field):
        return sum(c[field] for c in calls[span])

    def info(span):
        return [i for _, _, i in calls[span] if i is not None]

    sweep_rows = sum(info("sweep.run_sweep"))
    samples = info("gedanken.monte_carlo_detection")
    mc_time = total("gedanken.monte_carlo_detection", 0)
    four = [eligible for n, eligible in info("tomography.mle_reconstruct") if n == 4]
    out.update({
        "cli.main.self_s": total("cli.main", 1) / passes,
        "sweep.run_sweep.self_us_per_row":
            total("sweep.run_sweep", 1) * 1e6 / sweep_rows if sweep_rows else 0.0,
        "sweep.format_rows_s": total("sweep.format_rows", 0) / passes,
        "sweep.rows": sweep_rows / passes,
        "fock.pair_expectation.calls_per_row": len(calls["fock.pair_expectation"]) / rows,
        "fock.apply_creation.calls_per_row": len(calls["fock.apply_creation"]) / rows,
        "elements.calls_per_row":
            sum(len(v) for k, v in calls.items() if k.startswith("elements.")) / rows,
        "gedanken.samples_per_s": sum(samples) / mc_time if mc_time else 0.0,
        "gedanken.draw_bytes": _median([24 * n for n in samples]),
        "kernels.nll_poisson_grad.calls_per_fit":
            len(calls["kernels.nll_poisson_grad"]) / len(fits) if fits else 0.0,
        "kernels.nll_poisson_batch.calls_per_fit":
            len(calls["kernels.nll_poisson_batch"]) / len(fits) if fits else 0.0,
        "tomography.exact_eligible_ratio": sum(four) / len(four) if four else 0.0,
        "trace.overhead_frac": overhead_frac,
        "src.lines": float(src_lines(root)),
        "fail_frac": fail_frac,
    })
    return out


def absent_spans(tracer: Tracer) -> list[str]:
    return sorted(set(SPANS) - tracer.present)
