"""Write reference_pipeline.json: numeric-sweep P values on a fixed lattice
for one imperfect instrument, which pipeline_grid checks rows against to 1e-12.

Run from the repository root, only on a commit whose pipeline is trusted:

    python3 perfbench/make_reference.py

The values go through `polsim.sweep.run_sweep`, the code path behind
`polsim sweep --mode numeric`, and are stored with full double precision.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from polsim.config import build_configs, parse_config_text  # noqa: E402
from polsim.sweep import SweepSpec, run_sweep  # noqa: E402

CONFIG = {"eta_idler": 0.9, "bs_tx": 0.95, "bs_ty": 0.8, "mu_overlap": 0.85,
          "phi_i_rad": 0.3}
GAMMAS = [3.0 * i for i in range(31)]
TS = [round(0.05 * j, 2) for j in range(21)]


def main() -> None:
    cfg, detector = build_configs(parse_config_text(
        "".join(f"{k} = {v!r}\n" for k, v in CONFIG.items())))
    rows = run_sweep(SweepSpec(tuple(GAMMAS), tuple(TS), "numeric"), cfg, detector)
    p = [[rows[i * len(TS) + j][3] for j in range(len(TS))] for i in range(len(GAMMAS))]
    out = {"config": CONFIG, "gamma_deg": GAMMAS, "t_abs": TS, "p": p}
    (HERE / "reference_pipeline.json").write_text(json.dumps(out) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
