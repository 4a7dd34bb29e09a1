"""Sweep and tomography outputs pinned byte for byte across versions.

Acceptance 8 compares two runs of the same code; these tests compare against
outputs stored from an earlier version, so a refactor that changes a random
stream, a summation order, the order of a closed form's arithmetic or a fit
path shows up here.  Regenerate the
expected text only for a change that is meant to alter these outputs, and
say so in the change log.
"""

import hashlib
from pathlib import Path

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
    "45,0,montecarlo,0.702044790652,0.0207244903474\n"
    "45,0,montecarlo,0.709644670051,0.0210323455231\n"
    "45,0.5,montecarlo,0.900223380491,0.0114973059193\n"
    "45,0.5,montecarlo,0.893274853801,0.0117259387628\n"
    "45,1,montecarlo,1,0\n"
    "45,1,montecarlo,1,0\n"
    "90,0,montecarlo,0.0350194552529,0.0268734532888\n"
    "90,0,montecarlo,0.00495540138751,0.0272225681813\n"
    "90,0.5,montecarlo,0.496531219029,0.0245929228731\n"
    "90,0.5,montecarlo,0.523523523524,0.0243907498026\n"
    "90,1,montecarlo,1,0\n"
    "90,1,montecarlo,1,0\n"
)

TOMOGRAPHY_ARGV = ("sweep", "--mode", "tomography", "--gamma", "30,60",
                   "--t", "0.5,1", "--replicates", "2", "--seed", "9")
TOMOGRAPHY_CSV = (
    "gamma_deg,t_abs,mode,p_value,p_stderr\n"
    "30,0.5,tomography,0.956615469012,0\n"
    "30,0.5,tomography,0.953642643718,0\n"
    "30,1,tomography,0.993268105533,0\n"
    "30,1,tomography,1,0\n"
    "60,0.5,tomography,0.809246615539,0\n"
    "60,0.5,tomography,0.798320430057,0\n"
    "60,1,tomography,1,0\n"
    "60,1,tomography,1,0\n"
)

# CI's 20x11 tomography grid, 4400 rows.  %.12g hides a change in the last bits
# of P, so the whole text is pinned by its sha256 digest, and CI checks the
# console script's output against the same file; each digest's name is the text's
GRID_ARGV = ("sweep", "--mode", "tomography",
             "--gamma", ",".join(f"{4.5 * k:.1f}" for k in range(20)),
             "--t", ",".join(f"{0.1 * k:.1f}" for k in range(11)),
             "--replicates", "20", "--seed", "900")
GRID_DIGESTS = {name: digest for digest, name in map(str.split, (
    Path(__file__).with_name("tomography_grid.sha256").read_text(encoding="ascii").splitlines()))}

CLOSED_FORM_ARGV = ("--gamma", "0,12.5,30,45,60,77.25,90", "--t", "0,0.25,0.3,0.5,0.9,1")
ANALYTIC_CSV = (
    "gamma_deg,t_abs,mode,p_value,p_stderr\n"
    "0,0,analytic,1,0\n"
    "0,0.25,analytic,1,0\n"
    "0,0.3,analytic,1,0\n"
    "0,0.5,analytic,1,0\n"
    "0,0.9,analytic,1,0\n"
    "0,1,analytic,1,0\n"
    "12.5,0,analytic,0.97629600712,0\n"
    "12.5,0.25,analytic,0.985709857585,0\n"
    "12.5,0.3,analytic,0.987166108185,0\n"
    "12.5,0.5,analytic,0.992035740792,0\n"
    "12.5,0.9,analytic,0.998738254285,0\n"
    "12.5,1,analytic,1,0\n"
    "30,0,analytic,0.866025403784,0\n"
    "30,0.25,analytic,0.917402036509,0\n"
    "30,0.3,analytic,0.925558302889,0\n"
    "30,0.5,analytic,0.953254218878,0\n"
    "30,0.9,analytic,0.992470896099,0\n"
    "30,1,analytic,1,0\n"
    "45,0,analytic,0.707106781187,0\n"
    "45,0.25,analytic,0.813329143084,0\n"
    "45,0.3,analytic,0.830855676314,0\n"
    "45,0.5,analytic,0.891805812446,0\n"
    "45,0.9,analytic,0.982101325085,0\n"
    "45,1,analytic,1,0\n"
    "60,0,analytic,0.5,0\n"
    "60,0.25,analytic,0.666666666667,0\n"
    "60,0.3,analytic,0.695652173913,0\n"
    "60,0.5,analytic,0.8,0\n"
    "60,0.9,analytic,0.965517241379,0\n"
    "60,1,analytic,1,0\n"
    "77.25,0,analytic,0.220697435022,0\n"
    "77.25,0.25,analytic,0.446084982179,0\n"
    "77.25,0.3,analytic,0.488363278166,0\n"
    "77.25,0.5,analytic,0.649073055749,0\n"
    "77.25,0.9,analytic,0.934983767646,0\n"
    "77.25,1,analytic,1,0\n"
    "90,0,analytic,6.12323399574e-17,0\n"
    "90,0.25,analytic,0.25,0\n"
    "90,0.3,analytic,0.3,0\n"
    "90,0.5,analytic,0.5,0\n"
    "90,0.9,analytic,0.9,0\n"
    "90,1,analytic,1,0\n"
)
# on the ideal device the marker formula and the closed form are one
# identity (the bridge), so the two sweeps print the same numbers
GEDANKEN_CSV = ANALYTIC_CSV.replace(",analytic,", ",gedanken,")
# the pipeline prints the same digits as the closed form except at the
# P = 0 corner, where each side writes its own rounding residue
NUMERIC_CSV = ANALYTIC_CSV.replace(",analytic,", ",numeric,").replace(
    "90,0,numeric,6.12323399574e-17,0", "90,0,numeric,2.77880903236e-16,0")

# equal gain magnitudes with different phases, a complex T, idler loss and
# all three path phases, so beta takes every phase of the config
NONIDEAL_CONFIG = (
    "g1_phase_rad = 0.2\n"
    "g2_phase_rad = 1.1\n"
    "t_phase_rad = -0.54\n"
    "eta_idler = 0.9\n"
    "phi_s1_rad = 0.25\n"
    "phi_s2_rad = 0.4\n"
    "phi_i_rad = -0.3\n"
)
NONIDEAL_ARGV = ("--gamma", "0,12.045,61.013,85.534,90", "--t", "0,0.584,0.688,1")
NONIDEAL_CSV = (
    "gamma_deg,t_abs,mode,p_value,p_stderr\n"
    "0,0,analytic,1,0\n"
    "0,0.584,analytic,1,0\n"
    "0,0.688,analytic,1,0\n"
    "0,1,analytic,1,0\n"
    "12.045,0,analytic,0.977984005605,0\n"
    "12.045,0.584,analytic,0.977340015585,0\n"
    "12.045,0.688,analytic,0.97932202599,0\n"
    "12.045,1,analytic,0.992071583998,0\n"
    "61.013,0,analytic,0.484611162852,0\n"
    "61.013,0.584,analytic,0.588070746406,0\n"
    "61.013,0.688,analytic,0.651940929209,0\n"
    "61.013,1,analytic,0.897139627709,0\n"
    "85.534,0,analytic,0.0778674992937,0\n"
    "85.534,0.584,analytic,0.511667447219,0\n"
    "85.534,0.688,analytic,0.606771856622,0\n"
    "85.534,1,analytic,0.895859054681,0\n"
    "90,0,analytic,6.12323399574e-17,0\n"
    "90,0.584,analytic,0.5256,0\n"
    "90,0.688,analytic,0.6192,0\n"
    "90,1,analytic,0.9,0\n"
)
NONIDEAL_NUMERIC_CSV = NONIDEAL_CSV.replace(",analytic,", ",numeric,")

# -0 and 0 compare equal, so the sorted axes keep them in the order given;
# each prints as it was given, and the exact modes write one row per point
# whatever --replicates says
SIGNED_ZERO_ARGV = ("--gamma=0,-0,30", "--t=-0,0,0.5", "--replicates", "3")
SIGNED_ZERO_CSV = (
    "gamma_deg,t_abs,mode,p_value,p_stderr\n"
    "0,-0,analytic,1,0\n"
    "0,0,analytic,1,0\n"
    "0,0.5,analytic,1,0\n"
    "-0,-0,analytic,1,0\n"
    "-0,0,analytic,1,0\n"
    "-0,0.5,analytic,1,0\n"
    "30,-0,analytic,0.866025403784,0\n"
    "30,0,analytic,0.866025403784,0\n"
    "30,0.5,analytic,0.953254218878,0\n"
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
    "0.716628104208,39873.8605817,10131.4727516,9993.86532256,105.4753917,50005.3333333,29742.3878301,19987.7306451,-210.9507834\n"
)
SIX_SETTING_DARK_CSV = (
    "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3\n"
    "0.717920339561,39828.8618329,10086.4715004,9993.86868646,105.47534734,49915.3333333,29742.3903325,19987.7373729,-210.950694681\n"
)


@pytest.mark.parametrize("argv, expected", [
    (MONTECARLO_ARGV, MONTECARLO_CSV),
    (TOMOGRAPHY_ARGV, TOMOGRAPHY_CSV),
], ids=["montecarlo", "tomography"])
def test_seeded_sweep_csv_is_pinned(tmp_path, argv, expected):
    out = tmp_path / "rows.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == expected


@pytest.mark.parametrize("name, config", [
    ("tomography-default.csv", ""),
    ("tomography-dark.csv", "dark_cps = 7.3\n"),
])
def test_tomography_grid_csv_digest_is_pinned(tmp_path, name, config):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(config, encoding="ascii")
    out = tmp_path / name
    assert cli.main([*GRID_ARGV, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_DIGESTS[name]


@pytest.mark.parametrize("mode, expected", [
    ("analytic", ANALYTIC_CSV),
    ("gedanken", GEDANKEN_CSV),
    ("numeric", NUMERIC_CSV),
])
def test_closed_form_sweep_csv_is_pinned(tmp_path, mode, expected):
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--mode", mode, *CLOSED_FORM_ARGV, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == expected


def test_analytic_sweep_on_a_non_ideal_config_is_pinned(tmp_path):
    cfg = tmp_path / "nonideal.cfg"
    cfg.write_text(NONIDEAL_CONFIG, encoding="ascii")
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--mode", "analytic",
                     *NONIDEAL_ARGV, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == NONIDEAL_CSV


def test_numeric_sweep_on_a_non_ideal_config_is_pinned(tmp_path):
    cfg = tmp_path / "nonideal.cfg"
    cfg.write_text(NONIDEAL_CONFIG, encoding="ascii")
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--mode", "numeric",
                     *NONIDEAL_ARGV, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == NONIDEAL_NUMERIC_CSV


@pytest.mark.parametrize("mode", ["analytic", "gedanken", "numeric"])
def test_signed_zero_sweep_csv_is_pinned(tmp_path, mode):
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--mode", mode, *SIGNED_ZERO_ARGV, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == SIGNED_ZERO_CSV.replace(
        ",analytic,", f",{mode},")


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
