"""Compare benchmark results taken at two commits, metric by metric.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are results directories (copies of perfbench/results/) or
single .jsonl files written by run.py. For each workload, and for each metric
both sides report, it prints the median and quartiles of each side. An
end-to-end metric also gets a verdict against its bound in BENCHMARK.json:

  worse       the AFTER median is worse than the BEFORE median by more than
              the bound
  unresolved  the BEFORE runs spread wider than the bound (interquartile
              range over median), and not every AFTER run beats every
              BEFORE run
  ok          otherwise

Records taken under different kernel backends are not comparable: the
script refuses them and exits 2. It exits 1 when any verdict is "worse".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    return [json.loads(line) for f in files for line in f.read_text(encoding="ascii").splitlines()
            if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_lo, b_med, b_hi = quartiles(before)
    a_med = quartiles(after)[1]
    if sign * (a_med - b_med) < -bound * abs(b_med):
        return "worse"
    if b_med and (b_hi - b_lo) / abs(b_med) > bound and \
            not min(sign * a for a in after) > max(sign * b for b in before):
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load(Path(a)) for a in argv)
    backends = {r["env"]["kernel_backend"] for r in before + after}
    if len(backends) > 1:
        print(f"refusing to compare results from different kernel backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    def by_metric(records):
        out = defaultdict(lambda: defaultdict(list))
        for r in records:
            for name, m in r["result"]["metrics"].items():
                out[r["workload"]][name].append(m["value"])
        return out

    b_all, a_all = by_metric(before), by_metric(after)
    worse = False
    for workload in sorted(set(b_all) & set(a_all)):
        print(f"{workload}")
        for name in b_all[workload]:
            if name not in a_all[workload]:
                continue
            b, a = b_all[workload][name], a_all[workload][name]
            line = (f"  {name:48s} before {quartiles(b)[1]:.6g} [{quartiles(b)[0]:.6g}, "
                    f"{quartiles(b)[2]:.6g}] n={len(b)}  after {quartiles(a)[1]:.6g} "
                    f"[{quartiles(a)[0]:.6g}, {quartiles(a)[2]:.6g}] n={len(a)}")
            if name in bounds:
                v = verdict(b, a, *bounds[name])
                worse |= v == "worse"
                line += f"  {v}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
