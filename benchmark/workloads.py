"""The benchmark's workloads: which ``qdyson.cli.main`` calls one pass makes.

A *unit* is one ``cli.main`` call.  Its ``key`` is the argument list without
``--jobs`` and ``--json`` (neither changes the reports) and names its pinned
outputs in ``pins.json``.  Everything a seed can draw comes from fixed pools,
so every unit of every seed is pinned.

Why these workloads:

- ``grid-expand``: exhaustive sweeps, one product expansion per exponent
  vector and many coefficient lookups in it.  Where a coefficient cache,
  a single extraction path or right-hand-side reuse would show.
- ``deep-pruned``: single ``verify`` calls, one pruned extraction per product,
  built fresh each time.  The same kernel as ``grid-expand`` in the opposite
  pattern, and where faster ``QPoly`` multiplication would show.
- ``lemma-suite``: pure integer combinatorics, no extraction or expansion.
  Kernel changes should not move it.
- ``grid-pool``: the ``grid-expand`` grids through the process pool, the only
  workload that runs it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import traceback

WORKLOADS = ("grid-expand", "deep-pruned", "lemma-suite", "grid-pool")

# Slot names stay the same across grid sets, so per-grid metrics keep their
# names.  The held-out set has similar cost (about 10.6k checks, 32 NPC
# rejections against 12.4k and 32) and is for checking a claim on grids not
# used while the change was written.
GRID_SETS = {
    "default": (
        ("main", ("sweep", "main", "--n", "3", "--amax", "2")),
        ("firstlayer", ("sweep", "firstlayer", "--n", "3", "--amax", "2")),
        ("kadell", ("sweep", "kadell", "--n", "3", "--amax", "2")),
        ("npc", ("sweep", "main", "--n", "4", "--amax", "1")),
    ),
    "heldout": (
        ("main", ("sweep", "main", "--n", "2", "--amax", "5")),
        ("firstlayer", ("sweep", "firstlayer", "--n", "3", "--amax", "2", "--m", "2")),
        ("kadell", ("sweep", "kadell", "--n", "2", "--amax", "5")),
        ("npc", ("sweep", "main", "--n", "4", "--amax", "1", "--m", "3")),
    ),
}

LEMMA_ARGV = ("sweep", "lemmas", "--n", "7", "--amax", "5")
LEMMA_SEED_POOL = tuple(range(64))
LEMMA_SEEDS_PER_PASS = 20


def pool_jobs() -> int:
    """Worker processes for ``grid-pool``: never above 2 or the CPU count,
    because the program itself does not cap ``--jobs``."""
    return max(1, min(2, os.cpu_count() or 1))


def _csv(values) -> str:
    return ",".join(map(str, values))


def _crosses(I, J) -> bool:  # noqa: E741
    """The crossing pattern j_t < i_s < j_u < i_t at positions s < t < u."""
    return any(
        J[t] < I[s] < J[u] < I[t] for s, t, u in itertools.combinations(range(len(I)), 3)
    )


def _layouts(n: int, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every non-crossing (I, J) with |I| = m: I a subset of 0..n, J a
    multiset drawn from the rest."""
    out = []
    for I in itertools.combinations(range(n + 1), m):  # noqa: E741
        rest = [x for x in range(n + 1) if x not in I]
        for J in itertools.combinations_with_replacement(rest, m):
            if not _crosses(I, J):
                out.append((I, J))
    return out


def _layer_pool(identity: str, n: int, avecs, m: int) -> list[tuple[str, ...]]:
    return [
        ("verify", identity, "--n", str(n), "--a", _csv(a), "--I", _csv(I), "--J", _csv(J))
        for a in avecs
        for I, J in _layouts(n, m)  # noqa: E741
    ]


def _qdyson(*avecs) -> list[tuple[str, ...]]:
    return [("verify", "qdyson", "--n", str(len(a) - 1), "--a", _csv(a)) for a in avecs]


_LIGHT_A3 = ((1, 2, 2, 3), (2, 2, 2, 2), (3, 2, 1, 2))


def deep_cells() -> list[tuple[str, int, list[tuple[str, ...]]]]:
    """(cell, checks drawn per pass, pool).  Costs within a cell are close,
    so a pass costs about the same for every seed: one long-q instance
    (about 2 s), two of 1 s, twenty of 0.1-0.2 s that set the p90, and about
    a hundred of 5-50 ms that set the p50."""
    return [
        ("long-q", 1, _qdyson((16, 16, 16))),
        ("qdyson-n2", 2, _qdyson(*sorted(set(itertools.permutations((11, 12, 13)))))),
        ("main-n4", 7, _layer_pool("main", 4, [(2,) * 5], 2)),
        ("firstlayer-n4", 7, _layer_pool("firstlayer", 4, [(2,) * 5], 2)),
        ("kadell-n3", 6, _layer_pool("kadell", 3, [(3,) * 4], 2)),
        ("main-n3", 25, _layer_pool("main", 3, _LIGHT_A3, 2)),
        ("firstlayer-n3", 25, _layer_pool("firstlayer", 3, _LIGHT_A3, 2)),
        ("kadell-n3-light", 20, _layer_pool("kadell", 3, _LIGHT_A3, 2)),
        ("main-n4-npc", 25, _layer_pool("main", 4, [(1,) * 5, (0, 1, 1, 1, 1)], 3)),
        ("qdyson-small", 5, _qdyson((3, 3, 3, 3), (2, 3, 3, 4), (2,) * 5, (1, 2, 2, 2, 3), (1,) * 6)),
        ("counterexample", 1, [("counterexample",)]),
    ]


def _unit(key_argv, slot=None, jobs=None) -> dict:
    argv = list(key_argv)
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return {"key": " ".join(key_argv), "argv": argv, "slot": slot}


def _lemma_unit(seed: int) -> dict:
    return _unit(LEMMA_ARGV + ("--seed", str(seed)), slot="lemmas")


def draw(workload: str, seed: int, grid_set: str = "default") -> list[dict]:
    """The units of one pass.  The same seed gives the same units; the grid
    workloads are exhaustive and ignore the seed."""
    if workload in ("grid-expand", "grid-pool"):
        jobs = 1 if workload == "grid-expand" else pool_jobs()
        return [_unit(argv, slot, jobs) for slot, argv in GRID_SETS[grid_set]]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "lemma-suite":
        return [_lemma_unit(s) for s in rng.sample(LEMMA_SEED_POOL, LEMMA_SEEDS_PER_PASS)]
    if workload == "deep-pruned":
        units = [_unit(argv) for _, k, pool in deep_cells() for argv in rng.sample(pool, k)]
        rng.shuffle(units)
        return units
    raise ValueError(f"unknown workload {workload!r}")


def call(cli_main, unit: dict, json_path: str):
    """Run one unit through ``cli.main`` with its printed output discarded.
    Returns the exit code, or ``"exception"`` if the call raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(unit["argv"] + ["--json", json_path])
    except Exception:  # a crashing check is scored as failed, the pass goes on
        traceback.print_exc()
        return "exception"


def all_units() -> list[dict]:
    """Every unit any seed or grid set can draw, for pinning."""
    units = [_unit(argv, slot) for grids in GRID_SETS.values() for slot, argv in grids]
    units += [_lemma_unit(s) for s in LEMMA_SEED_POOL]
    units += [_unit(argv) for _, _, pool in deep_cells() for argv in pool]
    return units
