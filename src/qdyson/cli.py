"""Command-line front end.

Usage:
    qdyson verify <identity> --n N --a a0,a1,... [--I i1,...] [--J j1,...] [--json PATH]
    qdyson sweep <identity> --n N --amax K [--m M] [--jobs P] [--seed S] [--json PATH]
    qdyson counterexample [--json PATH]

Identities: dyson, qdyson, firstlayer, kadell, main (sweep also: lemmas).
--I/--J and --m apply only to the layer identities firstlayer, kadell and
main; the others reject them.

Exit codes:
    0   every checked instance holds (counterexample: the expected failure
        reproduced exactly)
    1   at least one instance failed verification
    2   malformed input or configuration (bad index lists, overlap,
        crossing pairing where forbidden, bad bounds, a grid sweep of more
        than sweeps.MAX_SWEEP_CHECKS checks, a lemma suite past
        sweeps.MAX_LEMMA_N or sweeps.MAX_LEMMA_AMAX, a --json path that
        cannot be opened for writing: every command checks it after the
        input and before the first pass)

With --json, one report object is written per line, followed (for sweeps) by
a summary object {"total", "passed", "failed", "rejected", "seed"}.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .kadell import reproduce_counterexample
from .reports import open_jsonl, write_jsonl
from .sweeps import IDENTITIES, SweepConfig, prepare_verify, run_sweep


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; each
    subcommand names the function that runs it as ``run``."""
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
    p_verify.add_argument("--json", metavar="PATH", default=None)
    p_verify.set_defaults(run=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="check an identity over a full grid")
    p_sweep.add_argument("identity", choices=list(IDENTITIES))
    p_sweep.add_argument("--n", type=int, required=True, help="largest variable index")
    p_sweep.add_argument("--amax", type=int, required=True, help="upper bound on each exponent")
    p_sweep.add_argument("--m", type=int, default=None, help="upper bound on layer size")
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="processes that run checks, this one included, so 2 starts one child "
        "(capped at the usable CPUs)",
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p_sweep.add_argument("--json", metavar="PATH", default=None)
    p_sweep.set_defaults(run=_cmd_sweep)

    p_ce = sub.add_parser(
        "counterexample",
        help="reproduce the smallest failing instance of the naive q-analog",
    )
    p_ce.add_argument("--json", metavar="PATH", default=None)
    p_ce.set_defaults(run=_cmd_counterexample)
    return parser


def _cmd_verify(args) -> int:
    run = prepare_verify(args.identity, args.n, args.a, args.I, args.J)
    with open_jsonl(args.json) as out:  # after the input, before the pass
        report = run()
        write_jsonl(out, [report])
    print(report.summary_line())
    return 0 if report.holds else 1


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        identity=args.identity,
        n=args.n,
        amax=args.amax,
        mmax=args.m,
        jobs=args.jobs,
        seed=args.seed,
    )
    config.validate()
    with open_jsonl(args.json) as out:  # after the input, before any pass
        reports, summary = run_sweep(config)
        write_jsonl(out, reports, summary)
    for report in reports:
        if not report.holds:
            print(report.summary_line())
    print(
        f"{args.identity}: total={summary['total']} passed={summary['passed']} "
        f"failed={summary['failed']} rejected={summary['rejected']} seed={summary['seed']}"
    )
    return 0 if summary["failed"] == 0 else 1


def _cmd_counterexample(args) -> int:
    with open_jsonl(args.json) as out:  # before the pass
        report = reproduce_counterexample()
        write_jsonl(out, [report])
    confirmed = report.extra["confirmed"]
    print(f"CT  = {report.extra['ct']}")
    print(f"LHS = {report.lhs}")
    print(f"RHS = {report.rhs}")
    if confirmed:
        print("expected failure confirmed: LHS != RHS, both sides as pinned")
    else:  # would indicate a kernel regression
        print("UNEXPECTED: instance did not reproduce the pinned values")
    return 0 if confirmed else 1


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # NpcViolationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
