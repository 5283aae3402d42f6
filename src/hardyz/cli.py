"""Command-line entry point: argument parsing, drivers and output layout.

Subcommands: verify-lemmas, identity, zeros, explore, extremal.  Output is
deterministic for a fixed (seed, precision) pair: JSON is emitted with
sorted keys, numbers are serialized to int(0.302 * precision_bits) + 1
significant digits (precision.serialize), and no timestamps or machine
identifiers appear.  identity, zeros, explore and extremal emit their
library report plus a command/seed/precision_bits envelope.

Formats: verify-lemmas json or text, zeros json or csv, the others json.
Every report is serialized by precision.serialize, and laid out here: JSON in
_emit_json, verify-lemmas' text in cmd_verify_lemmas, zeros' CSV in cmd_zeros.

Exit codes: 0 all checks passed, 1 a mathematical check failed (explore's
T included, when Z(T) is indistinguishable from zero), 2 usage error, 3 find_zeros
proved no zero in a sign-change bracket: no Newton read proved one, and
its fallback's bracket ends did not prove their signs.  main refuses an --out path whose directory is missing, or that is a
directory, before any command runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from typing import Dict, List, Optional

from mpmath import mp

from . import extremal, hardy, identity, kernel, probes
from .lemmas import SEEDED_PROBES, SUITES, _seeded_probe, _suite_rng, \
    _zero_sum_weights, run_suites
from .precision import DEFAULT_PREC, MIN_PREC, serialize, working_precision

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNCONFIRMED = 3


# ---------------------------------------------------------------------------
# subcommand drivers


def _emit(text: str, out_path: Optional[str]) -> None:
    """text, ending in a newline, to --out's file or else to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_lemmas(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = run_suites(names, args.seed, args.precision_bits)
    if args.format == "text":
        lines = []
        for s in report["suites"]:
            for c in s["checks"]:
                lines.append(f"{'PASS' if c['passed'] else 'FAIL'} "
                             f"{s['suite']}/{c['name']} margin={c['margin']}")
        lines.append(f"seed={report['seed']} precision_bits="
                     f"{report['precision_bits']} all_passed={report['all_passed']}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


def _emit_json(command: str, body: Dict, args) -> None:
    """body plus the command/seed/precision_bits envelope, as sorted JSON."""
    payload = dict(body, command=command, seed=args.seed,
                   precision_bits=args.precision_bits)
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)


def cmd_identity(args) -> int:
    prec = args.precision_bits
    rng = _suite_rng(args.seed, "identity-cmd")
    cfg = kernel.random_config(rng, args.n, prec=prec)
    if args.probe == "cardinal":
        probe = probes.cardinal_probe(cfg, prec=prec)
        rep = identity.reconstruct_f0(cfg, probe, max(args.m, args.n + 1),
                                      prec=prec)
    else:
        probe = _seeded_probe(rng, args.probe, args.m, prec)
        with working_precision(prec):
            mu = _zero_sum_weights(rng, args.n)
        rep = identity.verify_key_identity(cfg, mu, probe, args.m, prec=prec)
    _emit_json("identity", serialize(rep, prec), args)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_zeros(args) -> int:
    prec = args.precision_bits
    with working_precision(prec):
        lo = mp.mpf(args.t_lo)
        hi = mp.mpf(args.t_hi)
        # only a window find_zeros accepts scans from 0; it checks the others
        scan_lo = mp.mpf(0) if 0 <= lo <= 15 and lo < hi else lo
        found = hardy.find_zeros(scan_lo, hi, prec=prec)
        visible = dataclasses.replace(
            found, t_lo=lo, zeros=[z for z in found.zeros if z.t > lo])
        body = serialize(visible, prec)
        if args.format == "csv":
            buf = io.StringIO()
            rows = csv.writer(buf)
            rows.writerow(["index", "t", "bracket_half_width"])
            rows.writerows([i, z["t"], z["half_width"]]
                           for i, z in enumerate(body["zeros"], start=1))
            _emit(buf.getvalue(), args.out)
            return EXIT_OK
        if hi >= 10 and scan_lo == 0:
            body["count_stats"] = serialize(
                hardy.count_stats(hi, found, prec=prec), prec)
    _emit_json("zeros", body, args)
    return EXIT_OK


def cmd_explore(args) -> int:
    prec = args.precision_bits
    rep = hardy.theorem1_explore(args.T, args.C, m_cap=args.m_cap, prec=prec)
    _emit_json("explore", serialize(rep, prec), args)
    return EXIT_OK


def cmd_extremal(args) -> int:
    prec = args.precision_bits
    rep = extremal.theorem2_certificate(args.n, mp.mpf(args.c), mp.mpf(args.eps),
                                        args.m, prec=prec)
    _emit_json("extremal", serialize(rep, prec), args)
    return EXIT_OK if rep.total_below_one else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hardyz",
        description="Verification suites and explorations for the Hardy "
                    "Z-function kernel toolkit.")
    p.add_argument("--precision-bits", type=int, default=DEFAULT_PREC)
    p.add_argument("--seed", type=int, default=0)
    # parsed, with its one value, only because perfbench/worker.py passes it
    p.add_argument("--jobs", type=int, choices=(1,), default=1,
                   help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out")
    sub = p.add_subparsers(dest="command", required=True)

    vl = sub.add_parser("verify-lemmas", help="run module invariant suites")
    vl.add_argument("suite", choices=[*SUITES, "all"])
    vl.set_defaults(func=cmd_verify_lemmas, formats=("json", "text"))

    ident = sub.add_parser("identity", help="evaluate the key identity")
    ident.add_argument("--n", type=int, required=True)
    ident.add_argument("--m", type=int, required=True)
    ident.add_argument("--probe", required=True,
                       choices=SEEDED_PROBES + ("cardinal",))
    ident.set_defaults(func=cmd_identity, formats=("json",))

    zr = sub.add_parser("zeros", help="locate zeros of Z in an interval")
    zr.add_argument("t_lo", type=str)
    zr.add_argument("t_hi", type=str)
    zr.set_defaults(func=cmd_zeros, formats=("json", "csv"))

    ex = sub.add_parser("explore", help="derivative-maximum exploration report")
    ex.add_argument("T", type=str)
    ex.add_argument("C", type=str)
    ex.add_argument("m_cap", type=int)
    ex.set_defaults(func=cmd_explore, formats=("json",))

    xt = sub.add_parser("extremal", help="extremal configuration certificate")
    xt.add_argument("n", type=int)
    xt.add_argument("c", type=str)
    xt.add_argument("eps", type=str)
    xt.add_argument("m", type=int)
    xt.set_defaults(func=cmd_extremal, formats=("json",))
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision_bits < MIN_PREC:
        parser.error(f"--precision-bits must be >= {MIN_PREC}")
    if args.format not in args.formats:
        parser.error(f"{args.command} supports --format "
                     f"{' or '.join(args.formats)}, not {args.format!r}")
    # _emit opens --out only once the report exists, so its failure would
    # come after the whole computation
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        sys.stderr.write(f"error: --out {args.out!r} is not a file in an "
                         f"existing directory\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except hardy.UnconfirmedSignChangeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNCONFIRMED
    except hardy.RejectedPointError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
