"""Seeded outputs pinned byte for byte across versions.

Acceptance 8 compares two runs of the same code; these tests compare against
outputs stored from an earlier version, so a refactor that changes a random
stream, a summation order or a fit path shows up here.  Regenerate the
expected text only for a change that is meant to alter these outputs, and
say so in the change log.
"""

import pytest

from polsim import cli

MONTECARLO_ARGV = ("sweep", "--mode", "montecarlo", "--gamma", "0,45,90",
                   "--t", "0,0.5,1", "--replicates", "2", "--samples", "2000",
                   "--seed", "7")
MONTECARLO_CSV = (
    "gamma_deg,t_abs,mode,p_value,p_stderr\n"
    "0,0,montecarlo,1,0\n"
    "0,0,montecarlo,1,0\n"
    "0,0.5,montecarlo,1,0\n"
    "0,0.5,montecarlo,1,0\n"
    "0,1,montecarlo,1,0\n"
    "0,1,montecarlo,1,0\n"
    "45,0,montecarlo,0.681818181818,0.0213819832677\n"
    "45,0,montecarlo,0.730526315789,0.0208927938266\n"
    "45,0.5,montecarlo,0.893792071803,0.0118458515446\n"
    "45,0.5,montecarlo,0.867052023121,0.0128041747554\n"
    "45,1,montecarlo,1,0\n"
    "45,1,montecarlo,1,0\n"
    "90,0,montecarlo,0.00511770726714,0.0278123666958\n"
    "90,0,montecarlo,0.0238568588469,0.027271863229\n"
    "90,0.5,montecarlo,0.504531722054,0.0247341783016\n"
    "90,0.5,montecarlo,0.447186574531,0.0250947734638\n"
    "90,1,montecarlo,1,0\n"
    "90,1,montecarlo,1,0\n"
)

TOMOGRAPHY_ARGV = ("sweep", "--mode", "tomography", "--gamma", "30,60",
                   "--t", "0.5,1", "--replicates", "2", "--seed", "9")
TOMOGRAPHY_CSV = (
    "gamma_deg,t_abs,mode,p_value,p_stderr\n"
    "30,0.5,tomography,0.9471523149,0\n"
    "30,0.5,tomography,0.946965864892,0\n"
    "30,1,tomography,0.990647431449,0\n"
    "30,1,tomography,0.987486851614,0\n"
    "60,0.5,tomography,0.790626429687,0\n"
    "60,0.5,tomography,0.786447090286,0\n"
    "60,1,tomography,0.999447074286,0\n"
    "60,1,tomography,0.995939059228,0\n"
)

FOUR_SETTING_TABLE = (
    "label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
    "H  0  0  39872\n"
    "V  0  90  10131\n"
    "D  45  45  34990\n"
    "R  0  45  25114\n"
)
FOUR_SETTING_CSV = (
    "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3\n"
    "0.716520539796,39872,10131,9988.5,112.5,50003,29741,19977,-225\n"
)

SIX_SETTING_TABLE = (
    "label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
    "H  0  0  39872\n"
    "V  0  90  10131\n"
    "D  45  45  34990\n"
    "A  45  -45  15006\n"
    "R  0  45  25114\n"
    "L  0  -45  24903\n"
)
SIX_SETTING_CSV = (
    "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3\n"
    "0.716628103688,39873.8600407,10131.4726224,9993.86518077,105.474844007,50005.332663,29742.3874183,19987.7303615,-210.949688014\n"
)
SIX_SETTING_DARK_CSV = (
    "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3\n"
    "0.717920339033,39828.8612884,10086.4713709,9993.86854364,105.474796955,49915.3326593,29742.3899175,19987.7370873,-210.94959391\n"
)


@pytest.mark.parametrize("argv, expected", [
    (MONTECARLO_ARGV, MONTECARLO_CSV),
    (TOMOGRAPHY_ARGV, TOMOGRAPHY_CSV),
], ids=["montecarlo", "tomography"])
def test_seeded_sweep_csv_is_pinned(tmp_path, argv, expected):
    out = tmp_path / "rows.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == expected


@pytest.mark.parametrize("table, dark_cps, expected", [
    (FOUR_SETTING_TABLE, None, FOUR_SETTING_CSV),
    (SIX_SETTING_TABLE, None, SIX_SETTING_CSV),
    (SIX_SETTING_TABLE, 3, SIX_SETTING_DARK_CSV),
], ids=["four-settings", "six-settings", "six-settings-dark"])
def test_tomo_output_is_pinned(tmp_path, capsys, table, dark_cps, expected):
    counts = tmp_path / "counts.txt"
    counts.write_text(table, encoding="ascii")
    out = tmp_path / "recon.csv"
    argv = ["tomo", "--counts", str(counts), "--out", str(out)]
    if dark_cps is not None:
        cfg = tmp_path / "detector.cfg"
        cfg.write_text(f"dark_cps = {dark_cps}\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 0
    assert out.read_text(encoding="ascii") == expected
