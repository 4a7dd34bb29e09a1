"""polsim command-line interface.

Subcommands:
  sweep     evaluate P over a (gamma, |T|) grid in one of five modes
  selftest  closed-form vs pipeline consistency checks
  tomo      reconstruct a coherence matrix from a counts table

Exit codes: 0 success, 2 config/usage error, 3 range error, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import build_configs, format_config, load_config
from .errors import ConfigRangeError, PolsimError, ZeroTraceError
from .gedanken import degree_of_polarization_gedanken
from .sweep import DEFAULT_MC_SAMPLES, MODES, SweepSpec, format_rows, sweep_grid
from .tomography import reconstruct_run, read_counts_table
from .zwm import (
    ImperfectionConfig,
    ZwmConfig,
    analytic_p_general,
    analytic_p_special,
    numeric_degree_of_polarization,
    stokes_parameters,
)


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


@functools.cache  # parse_args leaves the parser as it was: build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polsim",
        description="Degree-of-polarization simulator for a two-source "
                    "induced-coherence interferometer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate P over a (gamma, |T|) grid")
    sweep.add_argument("--config", default=None, metavar="PATH",
                       help="key=value config file (default: ideal instrument)")
    sweep.add_argument("--mode", choices=MODES, help="evaluation mode")
    sweep.add_argument("--gamma", type=_csv_floats, metavar="CSV",
                       help="rotation angles in degrees")
    sweep.add_argument("--t", type=_csv_floats, metavar="CSV",
                       help="|T| values (marker quality m for gedanken and montecarlo modes)")
    sweep.add_argument("--replicates", type=int, default=1,
                       help="independent repeats per grid point "
                            "(tomography/montecarlo only)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="root seed for the stochastic modes")
    sweep.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                       help="Monte-Carlo samples per extremum estimate")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the CSV here instead of stdout")
    sweep.add_argument("--print-config", action="store_true",
                       help="print the effective config (defaults filled in) and exit")

    sub.add_parser("selftest", help="run the built-in consistency checks")

    tomo = sub.add_parser("tomo", help="reconstruct from a counts table")
    tomo.add_argument("--counts", required=True, metavar="PATH",
                      help="whitespace table: label qwp_angle_deg "
                           "polarizer_angle_deg raw_count")
    tomo.add_argument("--out", required=True, metavar="PATH",
                      help="write the reconstruction summary CSV here")
    tomo.add_argument("--config", default=None, metavar="PATH",
                      help="config supplying kappa_cps/time_s/dark_cps")
    return parser


def _cmd_sweep(args) -> int:
    cfg, detector, values = load_config(args.config)
    if args.print_config:
        print(format_config(values), end="", flush=True)
        return 0
    if args.mode is None or args.gamma is None or args.t is None:
        print("sweep requires --mode, --gamma and --t", file=sys.stderr)
        return 2
    if values["t_mag"] != 1.0:  # the grid sets |T|; at t_mag = 1, T has t_phase_rad's phase
        cfg, _ = build_configs({**values, "t_mag": 1.0})
    spec = SweepSpec(
        gammas_deg=tuple(args.gamma),
        t_values=tuple(args.t),
        mode=args.mode,
        replicates=args.replicates,
        seed=args.seed,
        mc_samples=args.samples,
    )
    text = format_rows(spec, *sweep_grid(spec, cfg, detector))
    if args.out is None:
        print(text, end="", flush=True)
    else:
        _write_out(args.out, text)
    return 0


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise PolsimError(f"cannot write {path}: {exc}") from None


def _selftest_checks():
    # closed-form bridge: the gedanken visibility and the special-case
    # interferometer formula are one identity
    ts = np.linspace(0.0, 1.0, 101)
    gammas = np.radians(np.linspace(0.0, 90.0, 91))
    worst_bridge = max(
        abs(analytic_p_special(t, g) - degree_of_polarization_gedanken(g, t))
        for t in ts for g in gammas
    )
    yield ("closed-form bridge, 101x91 grid", worst_bridge, 1e-15)

    # biphoton-matrix pipeline against the general closed form, at three phases
    # and with unequal gains and every imperfection; both sides must find the
    # corner |T| = 1, gamma = 0, beta = pi dark (zero intensity, P undefined)
    imperfect = dict(g1=0.008j, g2=0.01 - 0.006j, phi_i=0.3, imperfections=ImperfectionConfig(
        eta_idler=0.8, bs_tx=0.9, bs_ty=0.8, mu_overlap=0.7))
    worst_pipe = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        for gamma_deg in range(0, 91, 15):
            for fields in ({}, {"phi_s2": math.pi / 3.0}, {"phi_s2": math.pi}, imperfect):
                cfg = ZwmConfig(t=t, gamma=math.radians(gamma_deg), **fields)
                try:
                    p_closed = analytic_p_general(cfg)
                except ZeroTraceError:
                    try:
                        numeric_degree_of_polarization(cfg)
                    except ZeroTraceError:
                        continue
                    worst_pipe = math.inf
                    continue
                worst_pipe = max(worst_pipe, abs(
                    numeric_degree_of_polarization(cfg) - p_closed))
    yield ("pipeline vs closed form, 11x7x4 grid", worst_pipe, 1e-10)

    # endpoint identities
    worst_end = 0.0
    for gamma_deg in range(0, 91, 15):
        gamma = math.radians(gamma_deg)
        worst_end = max(worst_end, abs(
            numeric_degree_of_polarization(ZwmConfig(t=1.0, gamma=gamma)) - 1.0))
    for t in np.linspace(0.0, 1.0, 11):
        cfg = ZwmConfig(t=t, gamma=math.pi / 2.0)
        worst_end = max(worst_end, abs(numeric_degree_of_polarization(cfg) - t))
    yield ("endpoints P(|T|=1)=1 and P(gamma=90deg)=|T|", worst_end, 1e-10)


def _cmd_selftest(args) -> int:
    failures = 0
    for name, worst, tol in _selftest_checks():
        ok = worst <= tol
        status = "ok" if ok else "FAIL"
        print(f"{status}: {name}: max |delta| = {worst:.3e} (tol {tol:.0e})", flush=True)
        failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} check(s) failed", file=sys.stderr)
        return 4
    print("selftest: all checks passed", flush=True)
    return 0


def _cmd_tomo(args) -> int:
    _, detector, _ = load_config(args.config)
    settings, raw = read_counts_table(args.counts)
    try:
        run = reconstruct_run(settings, raw, detector)
    except ZeroTraceError:
        print("tomo: all corrected counts are zero; polarization undefined",
              file=sys.stderr)
        return 3
    (gxx, gxy), (_, gyy) = run.reconstruction.matrix.tolist()
    s0, s1, s2, s3 = stokes_parameters(run.reconstruction)
    header = "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3"
    row = ",".join(f"{v:.12g}" for v in (
        run.p_estimate, gxx.real, gyy.real, gxy.real, gxy.imag, s0, s1, s2, s3))
    _write_out(args.out, header + "\n" + row + "\n")
    print(f"tomo: P = {run.p_estimate:.6f} written to {args.out}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return dict(sweep=_cmd_sweep, selftest=_cmd_selftest, tomo=_cmd_tomo)[args.command](args)
    except ConfigRangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 3
    except PolsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the commands turn every other file's OSError into a PolsimError
        # stdout, flushed at each print: drop what it still buffers, or the flush at exit fails too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
