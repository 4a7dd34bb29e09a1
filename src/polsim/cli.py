"""polsim command-line interface.

Subcommands:
  sweep     evaluate P over a (gamma, |T|) grid in one of five modes
  selftest  estimator agreement, dark-corner, endpoint and sampler checks on the sweep grid
  tomo      reconstruct a coherence matrix from a counts table

Exit codes: 0 success, 4 selftest failure, and for an error its class's exit_code:
2 for a config or usage error, 3 for a range error (ParameterError).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import format_config, load_config
from .errors import PolsimError, ZeroTraceError
from .sweep import DEFAULT_MC_SAMPLES, MODES, SweepSpec, format_rows, sweep_grid
from .tomography import reconstruct_run, read_counts_table
from .zwm import ImperfectionConfig, stokes_parameters


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


@functools.cache  # parse_args leaves the parser as it was: build it once per process
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and per command (its single-value options by name, all its options)."""
    parser = argparse.ArgumentParser(
        prog="polsim",
        description="Degree-of-polarization simulator for a two-source "
                    "induced-coherence interferometer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate P over a (gamma, |T|) grid")
    sweep_opts = [
        sweep.add_argument("--config", default=None, metavar="PATH",
                           help="key=value config file (default: ideal instrument)"),
        sweep.add_argument("--mode", choices=MODES, help="evaluation mode"),
        sweep.add_argument("--gamma", type=_csv_floats, metavar="CSV",
                           help="rotation angles in degrees"),
        sweep.add_argument("--t", type=_csv_floats, metavar="CSV",
                           help="|T| values (marker quality m for gedanken and montecarlo modes)"),
        sweep.add_argument("--replicates", type=int, default=1,
                           help="independent repeats per grid point "
                                "(tomography/montecarlo only)"),
        sweep.add_argument("--seed", type=int, default=0,
                           help="root seed for the stochastic modes"),
        sweep.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                           help="Monte-Carlo samples per extremum estimate"),
        sweep.add_argument("--out", default=None, metavar="PATH",
                           help="write the CSV here instead of stdout"),
        sweep.add_argument("--print-config", action="store_true",
                           help="print the effective config (defaults filled in) and exit"),
    ]

    sub.add_parser("selftest", help="run the built-in consistency checks")

    tomo = sub.add_parser("tomo", help="reconstruct from a counts table")
    tomo_opts = [
        tomo.add_argument("--counts", required=True, metavar="PATH",
                          help="whitespace table: label qwp_angle_deg "
                               "polarizer_angle_deg raw_count"),
        tomo.add_argument("--out", required=True, metavar="PATH",
                          help="write the reconstruction summary CSV here"),
        tomo.add_argument("--config", default=None, metavar="PATH",
                          help="config whose dark counts dark_cps * time_s are subtracted "
                               "(every key is checked; no other is read)"),
    ]
    tables = {name: ({flag: a for a in opts if a.nargs is None for flag in a.option_strings}, opts)
              for name, opts in (("sweep", sweep_opts), ("selftest", []), ("tomo", tomo_opts))}
    return parser, tables


def _plain_args(argv: list) -> argparse.Namespace | None:
    """What parse_args(argv) returns for a line `COMMAND --option value ...` of exact option
    names and values not starting with '-'; None for other lines and wherever argparse exits."""
    tables = _build_parser()[1]
    if len(argv) % 2 == 0 or not all(isinstance(a, str) for a in argv) or argv[0] not in tables:
        return None
    flags, options = tables[argv[0]]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        action = flags.get(flag)
        if action is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(command=argv[0])
    for action in options:
        if action.dest not in given and (action.required or isinstance(action.default, str)):
            return None  # argparse refuses the line, or converts the str default
        setattr(args, action.dest, given.get(action.dest, action.default))
    return args


def _cmd_sweep(args) -> int:
    cfg, detector, values = load_config(args.config)
    if args.print_config:
        print(format_config(values), end="", flush=True)
        return 0
    if args.mode is None or args.gamma is None or args.t is None:
        print("sweep requires --mode, --gamma and --t", file=sys.stderr)
        return 2
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
    # each check runs the sweep_grid call of `polsim sweep` on one 7x11 (gamma, |T|) grid
    ideal, detector, _ = load_config(None)
    t_values = np.linspace(0.0, 1.0, 11)

    def grid(mode, cfg=ideal):  # P, or in montecarlo (P, stderr), of the one replicate
        p, se = sweep_grid(SweepSpec(tuple(range(0, 91, 15)), tuple(t_values), mode), cfg, detector)
        return p[..., 0] if se is None else (p[..., 0], se[..., 0])

    # analytic at two phases and with every imperfection; gedanken models the ideal only
    imperfect = replace(ideal, g1=0.008j, g2=0.01 - 0.006j, phi_i=0.3, imperfections=(
        ImperfectionConfig(eta_idler=0.8, bs_tx=0.9, bs_ty=0.8, mu_overlap=0.7)))
    numeric = grid("numeric")
    pairs = [(grid("gedanken"), numeric)] + [(grid("analytic", cfg), grid("numeric", cfg))
             for cfg in (ideal, replace(ideal, phi_s2=math.pi / 3.0), imperfect)]
    yield ("analytic and gedanken vs numeric, 7x11 grid",
           max(float(np.max(np.abs(a - b))) for a, b in pairs), 1e-10)

    def lit(mode):  # inf if mode returns a P at the dark corner |T| = 1, gamma = 0, beta = pi
        try:
            grid(mode, replace(ideal, phi_s2=math.pi))
        except ZeroTraceError:
            return 0.0
        return math.inf
    yield ("dark corner at beta=pi: ZeroTraceError in analytic and numeric",
           max(map(lit, ("analytic", "numeric"))), 0.0)

    ends = np.concatenate([numeric[:, -1] - 1.0, numeric[-1] - t_values])
    yield ("endpoints P(|T|=1)=1 and P(gamma=90deg)=|T|", float(np.max(np.abs(ends))), 1e-10)

    mc_p, mc_se = grid("montecarlo")  # 77 rows: each lies within 5 stderr of numeric
    yield ("montecarlo vs numeric beyond 5 stderr, 7x11 grid",
           float(np.max(np.abs(mc_p - numeric) - 5.0 * mc_se, initial=0.0)), 1e-10)


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
    run = reconstruct_run(*read_counts_table(args.counts), detector)
    (gxx, gxy), (_, gyy) = run.reconstruction.matrix.tolist()
    s0, s1, s2, s3 = stokes_parameters(run.reconstruction)
    header = "p_value,g_xx,g_yy,re_g_xy,im_g_xy,s0,s1,s2,s3"
    row = ",".join(f"{v:.12g}" for v in (
        run.p_estimate, gxx.real, gyy.real, gxy.real, gxy.imag, s0, s1, s2, s3))
    _write_out(args.out, header + "\n" + row + "\n")
    print(f"tomo: P = {run.p_estimate:.6f} written to {args.out}", flush=True)
    return 0


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); return its exit code. A line of
    exact `--option value` pairs is read in one pass; argparse parses, or refuses, every other."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or _build_parser()[0].parse_args(argv)
    try:
        return dict(sweep=_cmd_sweep, selftest=_cmd_selftest, tomo=_cmd_tomo)[args.command](args)
    except PolsimError as exc:
        print(f"{'range error' if exc.exit_code == 3 else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # the commands turn every other file's OSError into a PolsimError
        # stdout, flushed at each print: drop what it still buffers, or the flush at exit fails too
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
