"""polsim benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the repository root. The workload's commands run in-process through
`polsim.cli.main`, one at a time (a closed loop with one caller), for at
least --seconds after one untimed warm-up pass. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}:

  --trace 0  end-to-end metrics from untraced passes, each timed against
             the host probe run just before it (hostprobe.py), plus set-up
             time and peak memory measured in fresh child interpreters;
  --trace 1  per-layer metrics; each pass runs untraced and then traced on
             the same inputs, which gives the tracing overhead.

The line before it carries the machine and package info. Each run also
appends its record to perfbench/results/<workload>.jsonl for compare.py.
--smoke runs every workload once at minimal size, both ways, and checks the
metric names against BENCHMARK.json; it checks no timing.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; children inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import hostprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120

SETUP_CODE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import polsim.cli
build = getattr(polsim.cli, "_build_parser", None)
if build is not None:
    build()
from polsim.config import load_config
load_config(None)
"""

RSS_CODE = f"""
import resource, sys, tempfile
sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]
import polsim.cli, workloads
from pathlib import Path
with tempfile.TemporaryDirectory(prefix=".scratch-", dir={str(HERE)!r}) as tmp:
    p = workloads.make_pass(sys.argv[1], int(sys.argv[2]), 0, sys.argv[3], Path(tmp))
    workloads.execute(polsim.cli, p)
# VmHWM is this interpreter's own peak; ru_maxrss would also count the
# benchmark process, whose memory the child shared until exec
try:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
except (OSError, StopIteration):
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _child(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"child interpreter failed:\n{done.stderr}")
    return done.stdout


def measure_setup_s() -> float:
    """Wall time of a fresh interpreter importing polsim.cli, building the
    parser and loading the default config."""
    start = time.perf_counter()
    _child(SETUP_CODE)
    return time.perf_counter() - start


def measure_peak_rss_mb(name: str, seed: int, size: str) -> float:
    """Peak resident set of a fresh interpreter that runs one pass."""
    return int(_child(RSS_CODE, name, str(seed), size).split()[-1]) / 1024.0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    try:
        kernels = importlib.import_module("polsim.kernels")
    except ImportError:
        kernels = None
    backend = getattr(kernels, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        # a build without the backend switch has only the numpy kernels
        "kernel_backend": backend() if backend else "numpy",
        "POLSIM_NUMBA": os.environ.get("POLSIM_NUMBA"),
    }


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result object, run details)."""
    tally = workloads.Tally()
    rates, overheads = [], []
    probe = hostprobe.HostProbe(workloads.PROBE_KINDS[name])
    probe_times, ref_rates = [], []
    tracer = tracing.Tracer()
    traced_rows = 0
    smoke = size == "smoke"
    setup_times: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as tmp:
        scratch = Path(tmp)
        if not smoke:
            workloads.execute(cli, workloads.make_pass(name, seed, 0, size, scratch))
        if not trace:
            # this child also warms the file cache for the set-up spawns
            peak_rss_mb = measure_peak_rss_mb(name, seed, size)
        start = time.perf_counter()
        index = 1
        while True:
            # set-up spawns are spread evenly over the run, between passes
            elapsed_run = time.perf_counter() - start
            if not trace and len(setup_times) < setup_repeats and \
                    elapsed_run >= seconds * len(setup_times) / setup_repeats:
                setup_times.append(measure_setup_s())
            p = workloads.make_pass(name, seed, index, size, scratch)
            probe_s = probe()
            elapsed, texts = workloads.execute(cli, p)
            tally.attempted += p.rows
            p.check(texts, tally)
            rates.append(workloads.rows_written(texts) / elapsed)
            probe_times.append(probe_s)
            # the pass took elapsed * probe.reference_s / probe_s reference seconds
            ref_rates.append(rates[-1] * probe_s / probe.reference_s)
            if trace:
                with tracer.installed():
                    traced_elapsed, texts = workloads.execute(cli, p)
                tally.attempted += p.rows
                p.check(texts, tally)
                traced_rows += workloads.rows_written(texts)
                overheads.append(traced_elapsed / elapsed - 1.0)
            index += 1
            if smoke or (index > MIN_PASSES and time.perf_counter() - start >= seconds
                         and (trace or len(setup_times) == setup_repeats)):
                break
    passes = index - 1
    problems = tally.notes + tally.workload_failures(name)
    fail_frac = tally.failed / tally.attempted
    if trace:
        values = tracing.per_layer_metrics(
            tracer, passes, max(traced_rows, 1), statistics.median(overheads), fail_frac, ROOT)
        units = {m: u for m, u, _ in tracing.per_layer_catalog()}
    else:
        values = {
            "rows_per_s": statistics.median(ref_rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1.0 - fail_frac,
        }
        units = {"rows_per_s": "rows/ref_s", "setup_s": "s", "peak_rss_mb": "MB",
                 "pass_frac": "ratio"}
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    details = {"passes": passes, "problems": problems}
    if trace:
        details["absent_spans"] = tracing.absent_spans(tracer)
    else:
        details["wall_rows_per_s_best"] = max(rates)
        details["wall_rows_per_s_quartiles"] = _quartiles(rates)
        details["probe_s_quartiles"] = _quartiles(probe_times)
        details["setup_s_all"] = setup_times
        details["rows_per_s_all"] = rates
        details["probe_s_all"] = probe_times
    return result, details


def smoke(cli, seed: int) -> int:
    """Every workload once at minimal size, untraced and traced; checks the
    outputs and that the metric names and units match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, details = run_workload(cli, name, seed, 0.0, trace, "smoke", 1)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if got != expected[trace]:
                failures.append(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: checks failed: {details['problems']}")
            print(f"smoke {label}: {result['attempted']} rows checked, "
                  f"{result['failed']} failed", flush=True)
    for line in failures:
        print(f"smoke FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


def _record(name: str, args, env: dict, result: dict, details: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details, "result": result}
    with open(RESULTS / f"{name}.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="minimum measured time after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at minimal size and check the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "polsim" / "__init__.py").is_file():
        print(f"benchmark: no polsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("polsim.cli")
    except Exception as exc:  # report any import failure, then stop
        print(f"benchmark: cannot import polsim.cli: {exc!r}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke(cli, args.seed)
    env = environment()
    result, details = run_workload(cli, args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    _record(args.workload, args, env, result, details)
    print(json.dumps({"env": env, **{k: v for k, v in details.items()
                                     if k not in ("rows_per_s_all", "probe_s_all")}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
