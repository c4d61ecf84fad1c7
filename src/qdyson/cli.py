"""Command-line front end.

Usage:
    qdyson verify <identity> --n N --a a0,a1,... [--I i1,...] [--J j1,...]
                  [--semantics multiset|set] [--json PATH]
    qdyson sweep <identity> --n N --amax K [--m M] [--jobs P] [--seed S]
                  [--semantics multiset|set] [--json PATH]
    qdyson counterexample [--json PATH]

Identities: dyson, qdyson, firstlayer, kadell, main (sweep also: lemmas).

Exit codes:
    0   every checked instance holds (counterexample: the expected failure
        reproduced exactly)
    1   at least one instance failed verification
    2   malformed input or configuration (bad index lists, overlap,
        crossing pairing where forbidden, bad bounds)

With --json, one report object is written per line, followed (for sweeps) by
a summary object {"total", "passed", "failed", "rejected", "seed"}.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .dyson import Instance
from .kadell import reproduce_counterexample
from .paired import SEMANTICS
from .reports import dumps
from .sweeps import IDENTITIES, SweepConfig, run_sweep


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdyson",
        description="Exact verification of Dyson-style constant-term identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one instance of an identity")
    p_verify.add_argument(
        "identity", choices=[name for name, ident in IDENTITIES.items() if ident.check]
    )
    p_verify.add_argument("--n", type=int, required=True, help="largest variable index")
    p_verify.add_argument("--a", type=_int_list, required=True, help="exponents a0,a1,...")
    p_verify.add_argument("--I", type=_int_list, default=(), help="selected indices i1,i2,...")
    p_verify.add_argument("--J", type=_int_list, default=(), help="paired indices j1,j2,...")
    p_verify.add_argument("--semantics", choices=SEMANTICS, default="multiset")
    p_verify.add_argument("--json", metavar="PATH", default=None)

    p_sweep = sub.add_parser("sweep", help="check an identity over a full grid")
    p_sweep.add_argument("identity", choices=list(IDENTITIES))
    p_sweep.add_argument("--n", type=int, required=True, help="largest variable index")
    p_sweep.add_argument("--amax", type=int, required=True, help="upper bound on each exponent")
    p_sweep.add_argument("--m", type=int, default=None, help="upper bound on layer size")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (capped at the CPU count)")
    p_sweep.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p_sweep.add_argument("--semantics", choices=SEMANTICS, default="multiset")
    p_sweep.add_argument("--json", metavar="PATH", default=None)

    p_ce = sub.add_parser(
        "counterexample",
        help="reproduce the smallest failing instance of the naive q-analog",
    )
    p_ce.add_argument("--json", metavar="PATH", default=None)
    return parser


def _write_json(path: str | None, lines: list[str]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _cmd_verify(args) -> int:
    identity = IDENTITIES[args.identity]
    try:
        if identity.mmin is None and (args.I or args.J):
            raise ValueError("--I/--J do not apply to this identity")
        inst = Instance(args.n, args.a, args.I, args.J)
        report = identity.check(inst, args.semantics, None)
    except ValueError as exc:  # NpcViolationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.summary_line())
    _write_json(args.json, [report.to_json()])
    return 0 if report.holds else 1


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        identity=args.identity,
        n=args.n,
        amax=args.amax,
        mmax=args.m,
        jobs=args.jobs,
        seed=args.seed,
        semantics=args.semantics,
    )
    try:
        reports, summary = run_sweep(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for report in reports:
        if not report.holds:
            print(report.summary_line())
    print(
        f"{args.identity}: total={summary['total']} passed={summary['passed']} "
        f"failed={summary['failed']} rejected={summary['rejected']} seed={summary['seed']}"
    )
    lines = [r.to_json() for r in reports]
    lines.append(dumps(summary))
    _write_json(args.json, lines)
    return 0 if summary["failed"] == 0 else 1


def _cmd_counterexample(args) -> int:
    report = reproduce_counterexample()
    confirmed = report.params["extra"]["confirmed"]
    print(f"CT  = {report.params['extra']['ct']}")
    print(f"LHS = {report.lhs}")
    print(f"RHS = {report.rhs}")
    if confirmed:
        print("expected failure confirmed: LHS != RHS, both sides as pinned")
    else:  # pragma: no cover - would indicate a kernel regression
        print("UNEXPECTED: instance did not reproduce the pinned values")
    _write_json(args.json, [report.to_json()])
    return 0 if confirmed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_counterexample(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
