"""Every config key changes some output.  Set alone to a value off its
default, each key of config.DEFAULTS changes the exit code or the written
bytes of at least one command: a sweep in a mode that reads the config, or
tomo on a fixed counts table.  A key no command reads is a key to delete."""

import functools
import tempfile
from pathlib import Path

import pytest

from polsim import cli
from polsim.config import DEFAULTS, parse_config_text

# one in-range value off the default per key; a new key needs one here
OFF_DEFAULT = {
    "g1_mag": 0.02,
    "g1_phase_rad": 0.4,
    "g2_mag": 0.005,
    "g2_phase_rad": 0.4,
    "t_phase_rad": 0.4,
    "phi_s1_rad": 0.4,
    "phi_s2_rad": 0.4,
    "phi_i_rad": 0.4,
    "eta_idler": 0.8,
    "bs_tx": 0.9,
    "bs_ty": 0.9,
    "mu_overlap": 0.8,
    "kappa_cps": 1000.0,
    "time_s": 5.0,
    "dark_cps": 10.0,
}
SWEEP_MODES = ("analytic", "numeric", "montecarlo", "tomography")
COUNTS = "\n".join(["label qwp_angle_deg polarizer_angle_deg raw_count",
                    "H 0 0 39872", "V 0 90 10131", "D 45 45 34990", "R 0 45 25114", ""])


@functools.cache
def outputs(config_text: str) -> tuple:
    """(exit code, written bytes) of every run on a config of this text."""
    with tempfile.TemporaryDirectory() as scratch:
        cfg, counts, out = (Path(scratch, name) for name in ("run.cfg", "counts.txt", "out"))
        cfg.write_text(config_text)
        counts.write_text(COUNTS)
        argvs = [["sweep", "--config", str(cfg), "--mode", mode, "--gamma", "30,60",
                  "--t", "0.5", "--replicates", "2", "--samples", "1000", "--out", str(out)]
                 for mode in SWEEP_MODES]
        argvs.append(["tomo", "--counts", str(counts), "--config", str(cfg), "--out", str(out)])
        results = []
        for argv in argvs:
            out.unlink(missing_ok=True)
            code = cli.main(argv)
            results.append((code, out.read_bytes() if out.exists() else None))
        return tuple(results)


@pytest.mark.parametrize("key", DEFAULTS)
def test_every_config_key_changes_some_output(key):
    text = f"{key} = {OFF_DEFAULT[key]!r}\n"
    assert parse_config_text(text)[key] != DEFAULTS[key]
    assert outputs(text) != outputs("")
