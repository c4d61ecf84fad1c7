#!/usr/bin/env python3
"""Run the full verification campaign over the standard grids.

Sweeps every identity over the largest grids that finish quickly on a laptop
and prints one summary row per sweep: its counts, its wall time and the
median and largest ``elapsed_ms`` of its reports.  Use --json-dir to keep
the raw per-instance reports.

    python scripts/run_grids.py
    python scripts/run_grids.py --jobs 4 --json-dir out/
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qdyson.reports import write_jsonl  # noqa: E402
from qdyson.sweeps import SweepConfig, run_sweep  # noqa: E402

# (identity, n, amax, mmax)
CAMPAIGN = [
    ("dyson", 1, 2, None),
    ("dyson", 2, 2, None),
    ("dyson", 3, 2, None),
    ("dyson", 4, 1, None),
    ("qdyson", 2, 3, None),
    ("qdyson", 3, 2, None),
    ("firstlayer", 2, 2, None),
    ("firstlayer", 3, 2, 2),
    ("kadell", 2, 2, None),
    ("kadell", 3, 2, None),
    ("main", 2, 2, None),
    ("main", 3, 2, None),
    ("lemmas", 6, 5, None),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="worker processes per sweep")
    parser.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    parser.add_argument("--json-dir", default=None, help="directory for raw JSONL reports")
    args = parser.parse_args(argv)

    json_dir = pathlib.Path(args.json_dir) if args.json_dir else None
    if json_dir:
        json_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'identity':<11} {'n':>2} {'amax':>4} {'total':>6} {'passed':>6} "
          f"{'failed':>6} {'rejected':>8} {'secs':>7} {'p50_ms':>7} {'max_ms':>7}")
    any_failed = False
    for identity, n, amax, mmax in CAMPAIGN:
        config = SweepConfig(
            identity=identity, n=n, amax=amax, mmax=mmax, jobs=args.jobs, seed=args.seed
        )
        t0 = time.perf_counter()
        reports, summary = run_sweep(config)
        secs = time.perf_counter() - t0
        elapsed = [report.elapsed_ms for report in reports]
        print(f"{identity:<11} {n:>2} {amax:>4} {summary['total']:>6} "
              f"{summary['passed']:>6} {summary['failed']:>6} "
              f"{summary['rejected']:>8} {secs:>7.2f} "
              f"{statistics.median(elapsed):>7.3f} {max(elapsed):>7.3f}")
        if summary["failed"]:
            any_failed = True
            for report in reports:
                if not report.holds:
                    print(f"  FAIL {report.summary_line()}")
        if json_dir:
            write_jsonl(str(json_dir / f"{identity}_n{n}_a{amax}.jsonl"), reports, summary)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
