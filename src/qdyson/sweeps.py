"""The identity table, the one-instance check, grid enumeration and
(optionally parallel) sweeps.

``IDENTITIES`` is the one table of identities, used by ``qdyson verify`` and
``qdyson sweep`` alike.  Each row names the check, the layers it accepts,
its read rule (the box of exponent vectors its check reads from the q-Dyson
product) and its headroom rule (the spare bits of k its check needs to
compute on the packed coefficients), both worked out from the compiled
layout.  Every check reads a product its caller built, and ``_run_task`` is
the one caller that builds it: one pruned pass over a box, with the most
headroom any of the task's layouts needs, then every check of the task.

A task is ``(context, orbit)``.  The context (identity, n, layouts, box) is
what every task of one sweep shares, built once per sweep: the identity's
name, n, the compiled layouts and the bounding box of what they read.  The
orbit is a tuple of exponent vectors that one pass serves.  ``verify`` runs
one instance as a task of one a and one layout, read over that layout's
box, after rejecting any layer the row does not accept and validating
(n, a, I, J) as an ``Instance``.  A sweep walks every exponent vector a in
[0..amax]^(n+1) — and, for layer identities, every admissible (I, J)
layout — and checks the chosen identity on each pair of a and layout.  The
no-crossing filter of ``main`` reads layouts only, before any a is drawn.
So does ``compile_layout``: the sweep compiles and validates every
admissible layout once, the one carrier of (n, I, J) that a check and its
report read, and each check evaluates its exponents at its a by dot
products.  A layer sweep makes one task per cyclic orbit (a, rot(a), ...)
of the grid, rot(a) = (a_n, a_0, ..., a_{n-1}): one pass for a, the one
``Instance`` the task validates, stepped one rotation further
(``FactoredProduct.rotated``) for each next member, which the union box
allows because it is a cube, as the sweep asserts.  The constant-term
sweeps keep one task and one pass per a, so each product is checked on its
own.  With ``--jobs`` above one, a process pool gets the context once per
worker, through its initializer, and then one orbit per task, largest
first; each worker encodes its reports, each line joined from its parts
by ``VerificationReport.to_json``, and only rows (holds, JSON line) travel
back.  The parent wraps them as ``ReportRow``s, which parse their line,
``params`` and all, only when a field other than those two is read, such
as a failing check's summary line.  A task keys each member's reports by
its a, and so do ``_execute`` and the pool's rows: ``run_sweep`` reads them
back a by a in grid order.  Before any of that, ``SweepConfig.validate``
counts the checks of a grid sweep by formula and refuses one of more than
``MAX_SWEEP_CHECKS``, so that no grid too large to enumerate is built, and
refuses a lemma suite with n past ``MAX_LEMMA_N`` or amax past
``MAX_LEMMA_AMAX``, before anything is drawn.
"""
from __future__ import annotations

import itertools
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .dyson import Instance, Layout, q_dyson_source, verify_dyson, verify_q_dyson
from .firstlayer import first_layer_headroom, verify_first_layer
from .kadell import verify_kadell
from .paired import (
    NpcViolationError,
    compile_layout,
    matrix_choice_property,
    npc_holds,
    paired_headroom,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
)
from .reports import ReportRow, VerificationReport, report


Box = tuple[tuple[int, ...], tuple[int, ...]]


def _target(layout: Layout) -> Box:
    """The first-layer target alone: the flipped monomial of S = I."""
    return layout.subsets[-1][0], layout.subsets[-1][0]


@dataclass(frozen=True)
class Identity:
    """``check(a, layout, source)`` verifies the identity for the exponent
    vector a on the compiled ``layout``, with ``source`` the q-Dyson product
    of a, read over a box that holds ``reads(layout)`` and packed with at
    least ``headroom(layout)`` spare bits; a check of None marks the lemma
    suite, which only sweeps."""

    check: Callable[..., VerificationReport] | None
    reads: Callable[[Layout], Box] = lambda layout: layout.box
    headroom: Callable[[Layout], int] = lambda layout: 0
    mmin: int | None = None  # smallest layer size; None: no layer
    admissible: Callable[[tuple, tuple], bool] = lambda I, J: True  # layouts a sweep checks
    nmin: int = 1  # smallest n a sweep accepts


# The checks look the verify functions up when called, not when this table is
# built, so rebinding a module-level name (as a tracer does) reaches them.
IDENTITIES = {
    "dyson": Identity(lambda a, layout, source: verify_dyson(a, layout, source)),
    "qdyson": Identity(lambda a, layout, source: verify_q_dyson(a, layout, source)),
    "firstlayer": Identity(
        lambda a, layout, source: verify_first_layer(a, layout, source),
        reads=_target,
        headroom=first_layer_headroom,
        mmin=1,
    ),
    "kadell": Identity(lambda a, layout, source: verify_kadell(a, layout, source), mmin=0),
    "main": Identity(
        lambda a, layout, source: verify_paired(a, layout, source),
        headroom=paired_headroom,
        mmin=0,
        admissible=npc_holds,
    ),
    # random_instance draws n from 2..nmax
    "lemmas": Identity(None, nmin=2),
}

# The most checks a grid sweep may make, counted before anything is
# enumerated; the largest grid in use, main n=4 amax=2, makes 30,375.
MAX_SWEEP_CHECKS = 1_000_000

# The largest n and amax a lemma suite may draw from, checked before any
# draw: its time grows exponentially in n and its polynomials' lengths
# with amax.  One ``qdyson sweep lemmas`` process, 2-core VM, Python 3.11:
# 0.2 s at n = 7 with amax = 5, the pinned suites, 0.8 s at n = 16 with
# amax = 5 and 0.7 s at both limits, whose draws differ.
MAX_LEMMA_N = 16
MAX_LEMMA_AMAX = 256

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
        mmin = IDENTITIES[self.identity].mmin
        if self.mmax is not None:
            if mmin is None:
                raise ValueError(f"{self.identity} has no layer, so no m bound applies")
            if self.mmax < mmin:
                raise ValueError(f"m bound must be at least {mmin} for {self.identity}")
        if IDENTITIES[self.identity].check is None:
            if self.n > MAX_LEMMA_N:
                raise ValueError(f"the lemma suite takes n up to MAX_LEMMA_N = {MAX_LEMMA_N}")
            if self.amax > MAX_LEMMA_AMAX:
                raise ValueError(
                    f"the lemma suite takes amax up to MAX_LEMMA_AMAX = {MAX_LEMMA_AMAX}"
                )
        elif self.grid_checks() > MAX_SWEEP_CHECKS:
            raise ValueError(
                f"the sweep would make more than MAX_SWEEP_CHECKS = {MAX_SWEEP_CHECKS:,} "
                "checks; lower n, amax or the m bound"
            )

    def grid_checks(self) -> int:
        """The checks of the grid sweep, counted without enumerating it: the
        (amax + 1)^(n + 1) exponent vectors times the candidate layouts,
        one for the constant terms, else the sum over layer sizes m of
        C(n + 1, m) C(n, m) (I an m-subset of 0..n, J an m-multiset of the
        other n + 1 - m indices).  Exact up to MAX_SWEEP_CHECKS; past it,
        some larger number, so that a huge n builds no huge power or
        binomial."""
        n, cap = self.n, MAX_SWEEP_CHECKS
        vectors = (self.amax + 1) ** min(n + 1, cap.bit_length())  # 2^bit_length > cap
        mmin = IDENTITIES[self.identity].mmin
        if mmin is None:
            return vectors
        layouts = 0
        for m in range(mmin, min(n if self.mmax is None else self.mmax, n) + 1):
            layouts += math.comb(n + 1, m) * math.comb(n, m)
            if layouts > cap:
                break
        return vectors * layouts


def a_grid(n: int, amax: int) -> list[tuple[int, ...]]:
    """All exponent vectors, lexicographic."""
    return list(itertools.product(range(amax + 1), repeat=n + 1))


def cyclic_orbits(avecs: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], ...]]:
    """The exponent vectors, closed under rot(a) = (a_n, a_0, ..., a_{n-1}),
    as cyclic orbits (a, rot(a), rot^2(a), ...) that end before a comes
    round again, each led by its first vector in the given order."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for a in avecs:
        if a in seen:
            continue
        orbit, b = [a], a[-1:] + a[:-1]
        while b != a:
            orbit.append(b)
            b = b[-1:] + b[:-1]
        seen.update(orbit)
        out.append(tuple(orbit))
    return out


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


# -- per-orbit workers (top level so they pickle) -----------------------------


def _run_task(task) -> tuple[float, dict[tuple[int, ...], list[VerificationReport]]]:
    """Check a task ``(context, orbit)``, context = (identity, n, compiled
    layouts, box), on one product per member of the orbit, a tuple (a,
    rot(a), rot^2(a), ...): one pass for a, validated here as the one
    ``Instance`` of the task, read over the box and packed
    with the headroom every layout's check needs, then rotated one step
    for each next member before its checks start their clocks.  Returns
    the pass's time in ms with each member's reports, in layout order,
    keyed by its exponent vector."""
    (name, n, layouts, box), orbit = task
    identity = IDENTITIES[name]
    headroom = max(map(identity.headroom, layouts), default=0)
    t0 = time.perf_counter()
    member = q_dyson_source(Instance(n, orbit[0]), *box, headroom)
    pass_ms = (time.perf_counter() - t0) * 1000.0
    reports = {}
    for a in orbit:
        if reports:
            member = member.rotated()
        reports[a] = [identity.check(a, lay, member) for lay in layouts]
    return pass_ms, reports


def pool_workers(jobs: int, tasks: int) -> int:
    """At most one worker per task and per usable CPU, those of the
    process's affinity set where the platform has one: under fork the pool
    starts all its workers at once, however many ``--jobs`` asks for."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(jobs, tasks, len(affinity(0)) if affinity else os.cpu_count() or 1)


# The context (identity, n, layouts, box) of the pool's sweep, set once in
# each worker by the pool's initializer.  The parent never sets it.
_shared: tuple | None = None


def _share(context: tuple) -> None:
    global _shared
    _shared = context


def _run_orbit(orbit: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], list[tuple[bool, str]]]:
    """A pool task: ``_run_task`` (looked up when called, so a rebinding
    reaches it) on the worker's shared context and this orbit, then each
    report as the row (holds, JSON line) that goes back to the parent in
    its place, keyed by its member's exponent vector, in layout order."""
    reports = _run_task((_shared, orbit))[1]
    return {a: [(rep.holds, rep.to_json()) for rep in reps] for a, reps in reports.items()}


def _execute(orbits: Sequence[tuple], context: tuple, jobs: int) -> dict[tuple[int, ...], list]:
    """The reports of every member a of the orbits, each in layout order,
    keyed by a, from the tasks (context, orbit), one per orbit: serially in
    the given order, as ``VerificationReport``s; in a pool, which gets the
    context once per worker, largest orbit first, as ``ReportRow``s of the
    rows its workers send back."""
    workers = pool_workers(jobs, len(orbits))
    if workers <= 1:
        return {a: reps for orbit in orbits for a, reps in _run_task((context, orbit))[1].items()}
    largest_first = sorted(orbits, key=len, reverse=True)
    with ProcessPoolExecutor(max_workers=workers, initializer=_share, initargs=(context,)) as pool:
        return {
            a: [ReportRow(*row) for row in rows]
            for member_rows in pool.map(_run_orbit, largest_first)
            for a, rows in member_rows.items()
        }


# -- one instance --------------------------------------------------------------


def verify(name: str, n: int, a: Sequence[int], I=(), J=()) -> VerificationReport:  # noqa: E741
    """Check one instance (n, a, I, J) of the identity ``name``, read over
    the box its table row names.  A layer the row does not accept is
    rejected before any product is built: (I, J) where the identity has no
    layer, an empty layer where it needs one, a layout a sweep would not
    admit.  ``elapsed_ms`` covers the product's pass as well as the check."""
    identity = IDENTITIES.get(name)
    if identity is None or identity.check is None:
        checked = tuple(key for key, row in IDENTITIES.items() if row.check)
        raise ValueError(f"cannot verify {name!r} on one instance; choose from {checked}")
    if identity.mmin is None and (I or J):
        raise ValueError(f"{name} has no layer, so I and J do not apply")
    inst = Instance(n, a, I, J)
    if inst.m < (identity.mmin or 0):
        raise ValueError("layer must select at least one index")
    if not identity.admissible(inst.I, inst.J):
        raise NpcViolationError(f"crossing pattern in pairing {inst.pairs}")
    layout = compile_layout(n, inst.I, inst.J)
    context = (name, n, [layout], identity.reads(layout))
    pass_ms, reports = _run_task((context, (inst.a,)))
    [rep] = reports[inst.a]
    return replace(rep, elapsed_ms=round(rep.elapsed_ms + pass_ms, 3))


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
        reports.append(verify_factorization(inst, U, i_v))

    for _ in range(tail_cancel_draws):
        inst = random_instance(rng, nmax, amax, mmin=2)
        for h in range(2, inst.m + 1):
            reports.append(verify_tail_cancel(inst, h))

    for size in CHOICE_PRODUCT_SIZES:
        inst = Instance(size, (0,) * (size + 1))
        t0 = time.perf_counter()
        reports.append(report(
            "choiceproduct", inst.a, inst, t0, matrix_choice_property(size),
            "every choice product", "contains an inversion pair",
        ))
    return reports


# -- top-level sweep ------------------------------------------------------------


def run_sweep(config: SweepConfig) -> tuple[list[VerificationReport | ReportRow], dict]:
    """Execute a sweep; returns the reports in grid order plus a summary
    {"total", "passed", "failed", "rejected", "seed"}.  A pool sweep's
    reports are ``ReportRow``s, read like the serial ``VerificationReport``s."""
    config.validate()
    identity = IDENTITIES[config.identity]
    n, amax = config.n, config.amax
    rejected = 0

    if identity.check is None:
        reports = lemma_suite_reports(n, amax, config.seed)
    else:
        avecs = a_grid(n, amax)
        if identity.mmin is None:  # the constant terms: one pass per a
            grid, orbits = [((), ())], [(a,) for a in avecs]
        else:
            mmax = n if config.mmax is None else config.mmax
            candidates = layout_grid(n, identity.mmin, mmax)
            grid = [lay for lay in candidates if identity.admissible(*lay)]
            rejected = (len(candidates) - len(grid)) * len(avecs)
            orbits = cyclic_orbits(avecs)
        layouts = [compile_layout(n, I, J) for I, J in grid]
        los, his = zip(*map(identity.reads, layouts))
        box = tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))
        assert len(set(box[0])) == len(set(box[1])) == 1, f"{box} is not a cube"
        by_a = _execute(orbits, (config.identity, n, layouts, box), config.jobs)
        reports = [rep for a in avecs for rep in by_a[a]]

    passed = sum(1 for r in reports if r.holds)
    summary = {
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "rejected": rejected,
        "seed": config.seed,
    }
    return reports, summary
