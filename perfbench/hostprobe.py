"""Host probe: a fixed piece of work, independent of polsim, timed just
before each pass to measure how fast the host runs at that moment.

The shared host the benchmark was tuned on runs all code up to 1.5x slower
for seconds to minutes at a time. A pass's wall time divided by the probe's
time is a figure of polsim alone; multiplied by the probe's reference time
it is the pass's time in reference seconds (ref_s).

Different kinds of work slow down by different amounts, so each workload's
probe is made of the kinds whose time tracked that workload's pass times
best (workloads.PROBE_KINDS):

  numeric  interpreter float loops, small numpy calls and a 4 MB array sweep
  text     building small dicts of floats and formatting them as CSV text
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median time of each kind on the 2-vCPU Xeon VM the benchmark was tuned on,
# in that VM's fast state. One ref_s is the time the probe takes there,
# divided by the sum of these for the probe's kinds.
REFERENCE_S = {"numeric": 0.0014, "text": 0.0011}


class HostProbe:
    def __init__(self, kinds: tuple[str, ...]) -> None:
        self.parts = [getattr(self, "_" + kind) for kind in kinds]
        self.reference_s = sum(REFERENCE_S[kind] for kind in kinds)
        small = np.arange(16.0).reshape(4, 4)
        self.small = small + small.T
        self.big = np.ones(1 << 19)
        self.values = [i * 0.37 + 0.001 for i in range(120)]

    def __call__(self) -> float:
        """Wall seconds the probe took this time."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def _numeric(self) -> float:
        acc = 0.0
        for i in range(1500):
            acc += math.sqrt(i)
        for i in range(60):
            acc += float(np.linalg.eigvalsh(self.small + i)[0])
        np.multiply(self.big, 1.0, out=self.big)
        return acc + float(self.big.sum())

    def _text(self) -> int:
        size = 0
        for _ in range(6):
            rows = [{"gamma": v, "t": 0.5 * v, "mode": "analytic", "p": math.cos(v)}
                    for v in self.values]
            size += len("\n".join(",".join(("%.12g" % r["gamma"], "%.12g" % r["t"], r["mode"],
                                            "%.12g" % r["p"])) for r in rows))
        return size
