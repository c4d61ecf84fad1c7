"""The identity table, grid enumeration and (optionally parallel) sweeps.

``IDENTITIES`` is the one table of identities, used by ``qdyson verify`` and
``qdyson sweep`` alike.  A sweep walks every exponent vector a in
[0..amax]^(n+1) — and, for layer identities, every admissible (I, J) layout —
and verifies the chosen identity on one ``Instance`` (n, a, I, J) each.  The
no-crossing filter of ``main`` reads layouts only, before any a is drawn.
Work is chunked by exponent vector so each worker expands the q-Dyson product
once and reuses it across layouts; results are merged in grid order
regardless of completion order.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .dyson import Instance, q_dyson_source, verify_dyson, verify_q_dyson
from .firstlayer import verify_first_layer
from .kadell import verify_kadell
from .paired import (
    SEMANTICS,
    matrix_choice_property,
    npc_holds,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
)
from .reports import VerificationReport, make_params


@dataclass(frozen=True)
class Identity:
    """``check(inst, semantics, source)`` verifies one ``Instance``, with
    ``source`` its q-Dyson product or None; None marks the lemma suite, which
    only sweeps."""

    check: Callable[..., VerificationReport] | None
    mmin: int | None = None  # smallest layer size; None: no layer
    admissible: Callable[[tuple, tuple], bool] = lambda I, J: True  # layouts a sweep checks
    nmin: int = 1  # smallest n a sweep accepts


# The checks look the verify functions up when called, not when this table is
# built, so rebinding a module-level name (as a tracer does) reaches them.
IDENTITIES = {
    "dyson": Identity(lambda inst, semantics, source: verify_dyson(inst, source)),
    "qdyson": Identity(lambda inst, semantics, source: verify_q_dyson(inst, source)),
    "firstlayer": Identity(
        lambda inst, semantics, source: verify_first_layer(inst, source), mmin=1
    ),
    "kadell": Identity(lambda inst, semantics, source: verify_kadell(inst, source), mmin=0),
    "main": Identity(
        lambda inst, semantics, source: verify_paired(inst, semantics, source),
        mmin=0,
        admissible=npc_holds,
    ),
    # random_instance draws n from 2..nmax
    "lemmas": Identity(None, nmin=2),
}

FACTORIZATION_DRAWS = 500
TAIL_CANCEL_DRAWS = 100
CHOICE_PRODUCT_SIZES = (2, 3, 4, 5)


@dataclass
class SweepConfig:
    identity: str
    n: int
    amax: int
    mmax: int | None = None
    jobs: int = 1
    seed: int = 0
    semantics: str = "multiset"

    def validate(self) -> None:
        if self.identity not in IDENTITIES:
            raise ValueError(f"unknown identity {self.identity!r}; choose from {tuple(IDENTITIES)}")
        nmin = IDENTITIES[self.identity].nmin
        if self.n < nmin:
            raise ValueError(f"n must be at least {nmin} for {self.identity}")
        if self.amax < 0:
            raise ValueError("amax must be nonnegative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.mmax is not None and self.mmax < 0:
            raise ValueError("m bound must be nonnegative")
        if self.semantics not in SEMANTICS:
            raise ValueError(f"semantics must be one of {SEMANTICS}")


def a_grid(n: int, amax: int) -> list[tuple[int, ...]]:
    """All exponent vectors, lexicographic."""
    return list(itertools.product(range(amax + 1), repeat=n + 1))


def layout_grid(n: int, mmin: int, mmax: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (I, J) layouts with mmin <= m <= mmax: I runs over m-subsets of
    0..n, J over weakly increasing m-tuples from the complement."""
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for m in range(mmin, min(mmax, n) + 1):
        if m == 0:
            out.append(((), ()))
            continue
        for I in itertools.combinations(range(n + 1), m):  # noqa: E741
            rest = [x for x in range(n + 1) if x not in I]
            for J in itertools.combinations_with_replacement(rest, m):
                out.append((I, J))
    return out


# -- per-exponent-vector workers (top level so they pickle) -------------------


def _run_task(task) -> list[VerificationReport]:
    """Check (identity, n, a, layouts, semantics).  Layer identities look up
    many coefficients of one product, so it is expanded once."""
    name, n, a, layouts, semantics = task
    identity = IDENTITIES[name]
    source = None if identity.mmin is None else q_dyson_source(Instance(n, a), expand=True)
    return [identity.check(Instance(n, a, I, J), semantics, source) for I, J in layouts]


def pool_workers(jobs: int, tasks: int) -> int:
    """At most one worker per task and per CPU: under fork the pool starts
    all its workers at once, however many ``--jobs`` asks for."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _execute(tasks: Sequence[tuple], jobs: int) -> list[VerificationReport]:
    workers = pool_workers(jobs, len(tasks))
    if workers <= 1:
        out: list[VerificationReport] = []
        for t in tasks:
            out.extend(_run_task(t))
        return out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(_run_task, tasks)
        out = []
        for chunk in chunks:
            out.extend(chunk)
        return out


# -- randomized lemma suite ----------------------------------------------------


def random_instance(rng: random.Random, nmax: int, amax: int, mmin: int = 1) -> Instance:
    """Uniform-ish draw of an instance with m >= mmin, n <= nmax and every
    a_k <= amax; draws n, m, I, J, then a."""
    n = rng.randint(max(2, mmin), nmax)
    m = rng.randint(mmin, n)
    I = tuple(sorted(rng.sample(range(n + 1), m)))  # noqa: E741
    rest = [x for x in range(n + 1) if x not in I]
    J = tuple(sorted(rng.choices(rest, k=m)))
    a = tuple(rng.randint(0, amax) for _ in range(n + 1))
    return Instance(n, a, I, J)


def lemma_suite_reports(
    nmax: int,
    amax: int,
    seed: int,
    factorization_draws: int = FACTORIZATION_DRAWS,
    tail_cancel_draws: int = TAIL_CANCEL_DRAWS,
    semantics: str = "multiset",
) -> list[VerificationReport]:
    """Randomized checks of the supporting combinatorial statements:
    factorization of subset sums (with the vanishing product under the
    no-crossing condition), tail cancellation, and the exhaustive
    inversion-pair property of choice products."""
    rng = random.Random(seed)
    reports: list[VerificationReport] = []

    for _ in range(factorization_draws):
        inst = random_instance(rng, nmax, amax, mmin=2)
        usize = rng.randint(1, inst.m - 1)
        U = tuple(sorted(rng.sample(inst.I, usize)))
        floors = [x for x in inst.I if x <= min(U)]
        i_v = rng.choice(floors)
        reports.append(verify_factorization(inst, U, i_v, semantics))

    for _ in range(tail_cancel_draws):
        inst = random_instance(rng, nmax, amax, mmin=2)
        for h in range(2, inst.m + 1):
            reports.append(verify_tail_cancel(inst, h, semantics))

    for size in CHOICE_PRODUCT_SIZES:
        ok = matrix_choice_property(size)
        reports.append(
            VerificationReport(
                identity="choiceproduct",
                params=make_params(Instance(size, (0,) * (size + 1))),
                holds=ok,
                lhs="every choice product",
                rhs="contains an inversion pair",
                elapsed_ms=0.0,
            )
        )
    return reports


# -- top-level sweep ------------------------------------------------------------


def run_sweep(config: SweepConfig) -> tuple[list[VerificationReport], dict]:
    """Execute a sweep; returns the reports in grid order plus a summary
    {"total", "passed", "failed", "rejected", "seed"}."""
    config.validate()
    identity = IDENTITIES[config.identity]
    n, amax = config.n, config.amax
    rejected = 0

    if identity.check is None:
        reports = lemma_suite_reports(n, amax, config.seed, semantics=config.semantics)
    else:
        avecs = a_grid(n, amax)
        if identity.mmin is None:
            layouts = [((), ())]
        else:
            mmax = n if config.mmax is None else config.mmax
            candidates = layout_grid(n, identity.mmin, mmax)
            layouts = [lay for lay in candidates if identity.admissible(*lay)]
            rejected = (len(candidates) - len(layouts)) * len(avecs)
        tasks = [(config.identity, n, a, layouts, config.semantics) for a in avecs]
        reports = _execute(tasks, config.jobs)

    passed = sum(1 for r in reports if r.holds)
    summary = {
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "rejected": rejected,
        "seed": config.seed,
    }
    return reports, summary
