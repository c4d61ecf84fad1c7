#!/usr/bin/env python3
"""Compare the two readings of the insertion-step j-values on a full grid.

The chain exponent consults, at each insertion step, the j-values paired with
the current subset that exceed the step's minimum.  When J contains repeats
those values can coincide, and it matters whether they are counted with
multiplicity ("multiset") or collapsed ("set").  This script sweeps the
paired identity under both readings over every layout with n <= nmax and
a_i <= amax and reports which reading survives brute force.

    python scripts/adjudicate_semantics.py
    python scripts/adjudicate_semantics.py --nmax 3 --amax 2 --show 5
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qdyson.sweeps import SweepConfig, run_sweep  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=3)
    parser.add_argument("--amax", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--show", type=int, default=3,
                        help="failing instances to print per reading")
    args = parser.parse_args(argv)

    verdicts = {}
    for semantics in ("multiset", "set"):
        total = failed = 0
        failures = []
        t0 = time.perf_counter()
        for n in range(1, args.nmax + 1):
            config = SweepConfig(
                identity="main", n=n, amax=args.amax,
                jobs=args.jobs, semantics=semantics,
            )
            reports, summary = run_sweep(config)
            total += summary["total"]
            failed += summary["failed"]
            failures.extend(r for r in reports if not r.holds)
        secs = time.perf_counter() - t0
        verdicts[semantics] = failed
        print(f"{semantics:<9} {total - failed}/{total} hold  ({secs:.1f}s)")
        for report in failures[: args.show]:
            print(f"    {report.summary_line()}")
        if len(failures) > args.show:
            print(f"    ... and {len(failures) - args.show} more")

    survivors = [s for s, f in verdicts.items() if f == 0]
    if len(survivors) == 1:
        print(f"\nonly {survivors[0]!r} matches brute force on the full grid")
        return 0
    if not survivors:
        print("\nneither reading matches brute force")
        return 1
    print("\nboth readings match on this grid; enlarge it to separate them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
