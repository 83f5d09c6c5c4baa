"""Command-line entry point.

Subcommands: simulate, sweep-mu, converge, audit, fit.  Exit codes:
0 success, 2 blow-up, 3 configuration or usage error (an unknown
subcommand, a missing or malformed option), with one line on stderr.
converge also exits 3 when a positive viscosity ends at distance 0 from
the mu = 0 state, and fit when its window holds fewer than 8 samples or
a time or value that is not positive (NaN included).

converge and audit evolve to their last states without sampling
diagnostics, so they exit 2 only when the fields turn non-finite, and
converge does not read k_max; simulate and sweep-mu also stop at the E1
ceiling of their samples.  VE2D_THREADS sizes the pool of sweep-mu and
converge.

simulate and audit run only the first viscosity of [run] mu and do not
read the others: with mu = 0 0.1, simulate writes run_mu0.csv alone.
sweep-mu and converge run every listed viscosity.  sweep-mu prints
max_E1_ratio and per_mu of its report, which sweep_summary.json also
holds, and converge prints its report, which is convergence.json; both
key each viscosity by its name (experiments.mu_name), as the file names
do.
"""

import argparse
import csv
import json
import sys

from .diagnostics import fit_decay
from .dynamics import BlowUpError
from .experiments import (ConfigError, RunConfig, audit, convergence_study,
                          run_simulation, sweep_viscosity)

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error as a config error: one line, exit 3,
    so that a script can tell a typo from a blow-up (exit 2).  The
    subparsers are made of this class too."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ve2d",
        description="Pseudo-spectral runs and diagnostics for 2D "
                    "incompressible viscoelasticity in potential form.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("simulate", "single run with diagnostics sampling"),
            ("sweep-mu", "run every configured viscosity from the same data"),
            ("converge", "vanishing-viscosity convergence table"),
            ("audit", "identity and inequality report")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI config file")
    fit = sub.add_parser("fit", help="decay-exponent fit of a CSV column")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--column", required=True)
    fit.add_argument("--t0", type=float, required=True)
    fit.add_argument("--t1", type=float, required=True)
    return parser


def _cmd_fit(args) -> int:
    try:
        with open(args.csv, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ts = [float(row["t"]) for row in rows]
        vals = [float(row[args.column]) for row in rows]
        p, err = fit_decay(ts, vals, args.t0, args.t1)
    except KeyError as exc:
        print(f"column {exc.args[0]!r} not found in {args.csv}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, TypeError, ValueError, csv.Error) as exc:
        # an unreadable file, a non-numeric cell or too few samples
        print(f"fit failed on {args.csv}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.column}: exponent {p:.4f} +/- {err:.4f} "
          f"over t in [{args.t0:g}, {args.t1:g}]")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fit":
        return _cmd_fit(args)
    try:
        cfg = RunConfig.from_ini(args.config)
        if args.command == "simulate":
            result = run_simulation(cfg)
            if result.blowup_t is not None:
                print(f"blow-up at t = {result.blowup_t:g}", file=sys.stderr)
                return EXIT_BLOWUP
            print(f"completed t = {result.final_state.t:g} "
                  f"(mu = {result.mu:g}, {len(result.records)} samples)")
        elif args.command == "sweep-mu":
            report = sweep_viscosity(cfg)
            print(json.dumps({k: report[k] for k in
                              ("max_E1_ratio", "per_mu")}, indent=2))
        elif args.command == "converge":
            print(json.dumps(convergence_study(cfg), indent=2))
        elif args.command == "audit":
            report = audit(cfg)
            print(json.dumps({k: report[k] for k in
                              ("identity_residuals", "inequality_ratios")},
                             indent=2))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
