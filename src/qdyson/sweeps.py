"""The identity table, the one-instance check, grid enumeration and
(optionally parallel) sweeps.

``IDENTITIES`` is the one table of identities, used by ``qdyson verify`` and
``qdyson sweep`` alike.  Each row names the check, the layers it accepts,
and its read rule: a function of the compiled layout that returns
(lo, hi, headroom), the box of exponent vectors its check reads from the
q-Dyson product and the spare bits of k its check needs to compute on the
packed coefficients.  These are the arguments of ``q_dyson_source`` and of
the check's guard ``FactoredProduct.reads``, which each check calls with
the same rule (``dyson.dyson_reads``, ``firstlayer.first_layer_reads``,
``paired.paired_reads``, and for ``kadell`` the row default
(*layout.box, 0), the box of the layout with no spare bits).  A rule
refuses a layout its check cannot read with ``ValueError``: the empty
layer for the first layer, any other for the constant terms.  Every check
reads a product its caller built, and ``_run_task`` is the one caller that
builds it: one pruned pass, built with the union of its layouts' rules,
then every check of the task.  A check is ``check(layout, source)`` and
takes its exponent vector a from the source, which records the a it was
built from.

A task is ``(context, orbit)``.  The context (identity, n, layouts, reads)
is what every task of one sweep shares, built once per sweep by
``_context``: the identity's name, n, the compiled layouts and
reads = (lo, hi, headroom), the rules of their checks united, the
bounding box of their boxes with the most headroom any needs.  The orbit
is a tuple of exponent vectors that one pass serves.  ``verify`` runs one
instance as a task of one a and one layout, with that layout's rule as
its context's, after rejecting any layer the row does not accept and
validating (n, a, I, J) as an ``Instance``; ``prepare_verify`` does the
rejecting and validating and returns the pass still to run, so the
command line can check its output path in between.  A sweep walks every
exponent vector a in [0..amax]^(n+1) — and, for layer identities, every
candidate (I, J) layout — and checks the chosen identity on each pair of
a and admitted layout.  It compiles every candidate layout once, before any a
is drawn, with ``compile_layout``, the one carrier of (n, I, J) that a
check and its report read, which also keeps the no-crossing verdict; the
row's ``admissible`` reads the compiled layout, so ``main`` admits a
layout off that verdict, computed once per layout.  Each check evaluates
its exponents at its a by dot products.  A layer sweep makes one task
per cyclic orbit (a, rot(a), ...) of the grid,
rot(a) = (a_n, a_0, ..., a_{n-1}): one pass for a, the one ``Instance``
the task validates, stepped one rotation further
(``FactoredProduct.rotated``) for each next member, which the united box
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

from .dyson import Instance, Layout, dyson_reads, q_dyson_source, verify_dyson, verify_q_dyson
from .firstlayer import first_layer_reads, verify_first_layer
from .kadell import verify_kadell
from .paired import (
    NpcViolationError,
    compile_layout,
    matrix_choice_property,
    paired_reads,
    verify_factorization,
    verify_paired,
    verify_tail_cancel,
)
from .reports import ReportRow, VerificationReport, report


Reads = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class Identity:
    """``check(layout, source)`` verifies the identity on the compiled
    ``layout`` for the exponent vector a of ``source``, the q-Dyson product
    of a.  ``reads(layout)`` is the check's read rule, (lo, hi, headroom):
    the source must hold the box lo..hi and be packed with at least
    ``headroom`` spare bits, which the check's guard
    (``FactoredProduct.reads``), called with the same rule, makes sure of
    before it reads.  ``admissible(layout)`` says whether a sweep checks
    the compiled layout and ``verify`` accepts it.  A check of None marks
    the lemma suite, which only sweeps."""

    check: Callable[..., VerificationReport] | None
    reads: Callable[[Layout], Reads] = lambda layout: (*layout.box, 0)
    mmin: int | None = None  # smallest layer size; None: no layer
    admissible: Callable[[Layout], bool] = lambda layout: True
    nmin: int = 1  # smallest n a sweep accepts


# The checks look the verify functions up when called, not when this table is
# built, so rebinding a module-level name (as a tracer does) reaches them.
IDENTITIES = {
    "dyson": Identity(lambda layout, source: verify_dyson(layout, source), reads=dyson_reads),
    "qdyson": Identity(lambda layout, source: verify_q_dyson(layout, source), reads=dyson_reads),
    "firstlayer": Identity(
        lambda layout, source: verify_first_layer(layout, source),
        reads=first_layer_reads,
        mmin=1,
    ),
    "kadell": Identity(lambda layout, source: verify_kadell(layout, source), mmin=0),
    "main": Identity(
        lambda layout, source: verify_paired(layout, source),
        reads=paired_reads,
        mmin=0,
        admissible=lambda layout: layout.npc,
    ),
    # random_instance draws n from 2..nmax
    "lemmas": Identity(None, nmin=2),
}

# The most checks a grid sweep may make, counted before anything is
# enumerated; the largest grid in use, main n=4 amax=2, makes 30,375.
MAX_SWEEP_CHECKS = 1_000_000

# The largest n and amax a lemma suite may draw from, checked before any
# draw: its time grows exponentially in n and its polynomials' lengths
# with amax.  One ``qdyson sweep lemmas`` process, interpreter start
# included, median of 5 on a 2-core VM, Python 3.11: 0.2 s at n = 7 with
# amax = 5, the pinned suites, 0.45 s at n = 16 with amax = 5 and 0.49 s
# at both limits, whose draws differ.
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
    0..n, J over weakly increasing m-tuples from the complement, so m = 0
    gives the empty layout alone."""
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for m in range(mmin, min(mmax, n) + 1):
        for I in itertools.combinations(range(n + 1), m):  # noqa: E741
            rest = [x for x in range(n + 1) if x not in I]
            for J in itertools.combinations_with_replacement(rest, m):
                out.append((I, J))
    return out


# -- per-orbit workers (top level so they pickle) -----------------------------


def _context(name: str, n: int, layouts: Sequence[Layout]) -> tuple:
    """The context (identity, n, layouts, reads) that every task of a sweep,
    or ``verify``'s one task, shares: reads = (lo, hi, headroom) unites the
    read rules of the identity's checks on the compiled layouts, the
    bounding box of their boxes with the most spare bits any needs."""
    los, his, headrooms = zip(*map(IDENTITIES[name].reads, layouts))
    box = tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))
    return name, n, layouts, (*box, max(headrooms))


def _run_task(task) -> tuple[float, dict[tuple[int, ...], list[VerificationReport]]]:
    """Check a task ``(context, orbit)``, context = (identity, n, compiled
    layouts, reads), on one product per member of the orbit, a tuple (a,
    rot(a), rot^2(a), ...): one pass for a, validated here as the one
    ``Instance`` of the task, built with the united read rule, then rotated
    one step for each next member before its checks start their clocks.
    Returns the pass's time in ms with each member's reports, in layout
    order, keyed by its exponent vector."""
    (name, n, layouts, reads), orbit = task
    identity = IDENTITIES[name]
    t0 = time.perf_counter()
    member = q_dyson_source(Instance(n, orbit[0]), *reads)
    pass_ms = (time.perf_counter() - t0) * 1000.0
    reports = {}
    for a in orbit:
        if reports:
            member = member.rotated()
        reports[a] = [identity.check(lay, member) for lay in layouts]
    return pass_ms, reports


def pool_workers(jobs: int, tasks: int) -> int:
    """At most one worker per task and per usable CPU, those of the
    process's affinity set where the platform has one: under fork the pool
    starts all its workers at once, however many ``--jobs`` asks for."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(jobs, tasks, len(affinity(0)) if affinity else os.cpu_count() or 1)


# The context (identity, n, layouts, reads) of the pool's sweep, set once in
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
    """Check one instance (n, a, I, J) of the identity ``name``, on a
    product built with the read rule its table row names: the check
    ``prepare_verify`` validates, run at once."""
    return prepare_verify(name, n, a, I, J)()


def prepare_verify(
    name: str, n: int, a: Sequence[int], I=(), J=()  # noqa: E741
) -> Callable[[], VerificationReport]:
    """The check of one instance (n, a, I, J) of the identity ``name``,
    validated, as a function of no arguments that runs its pass and returns
    the report.  A layer the row does not accept is rejected here, before
    any product is built: (I, J) where the identity has no layer, a
    compiled layout a sweep would not admit, and one its read rule refuses,
    as ``first_layer_reads`` refuses the empty layer when ``_context``
    applies it.  ``elapsed_ms`` covers the product's pass as well as the
    check."""
    identity = IDENTITIES.get(name)
    if identity is None or identity.check is None:
        checked = tuple(key for key, row in IDENTITIES.items() if row.check)
        raise ValueError(f"cannot verify {name!r} on one instance; choose from {checked}")
    if identity.mmin is None and (I or J):
        raise ValueError(f"{name} has no layer, so I and J do not apply")
    inst = Instance(n, a, I, J)
    layout = compile_layout(n, inst.I, inst.J)
    if not identity.admissible(layout):
        raise NpcViolationError(f"crossing pattern in pairing {inst.pairs}")
    task = (_context(name, n, [layout]), (inst.a,))

    def run() -> VerificationReport:
        pass_ms, reports = _run_task(task)
        [rep] = reports[inst.a]
        return replace(rep, elapsed_ms=round(rep.elapsed_ms + pass_ms, 3))

    return run


# -- randomized lemma suite ----------------------------------------------------


def random_instance(rng: random.Random, nmax: int, amax: int) -> Instance:
    """Uniform-ish draw of an instance with 2 <= m <= n <= nmax and every
    a_k <= amax, as the lemmas need two selected indices; draws n, m, I, J,
    then a."""
    n = rng.randint(2, nmax)
    m = rng.randint(2, n)
    I = tuple(sorted(rng.sample(range(n + 1), m)))  # noqa: E741
    rest = [x for x in range(n + 1) if x not in I]
    J = tuple(sorted(rng.choices(rest, k=m)))
    a = tuple(rng.randint(0, amax) for _ in range(n + 1))
    return Instance(n, a, I, J)


def lemma_suite_reports(nmax: int, amax: int, seed: int) -> list[VerificationReport]:
    """Randomized checks of the supporting combinatorial statements:
    ``FACTORIZATION_DRAWS`` of the factorization of subset sums (with the
    vanishing product under the no-crossing condition),
    ``TAIL_CANCEL_DRAWS`` of tail cancellation, and the exhaustive
    inversion-pair property of choice products at
    ``CHOICE_PRODUCT_SIZES``."""
    rng = random.Random(seed)
    reports: list[VerificationReport] = []

    for _ in range(FACTORIZATION_DRAWS):
        inst = random_instance(rng, nmax, amax)
        usize = rng.randint(1, inst.m - 1)
        U = tuple(sorted(rng.sample(inst.I, usize)))
        floors = [x for x in inst.I if x <= min(U)]
        i_v = rng.choice(floors)
        reports.append(verify_factorization(inst, U, i_v))

    for _ in range(TAIL_CANCEL_DRAWS):
        inst = random_instance(rng, nmax, amax)
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
            candidates, orbits = [((), ())], [(a,) for a in avecs]
        else:
            mmax = n if config.mmax is None else config.mmax
            candidates = layout_grid(n, identity.mmin, mmax)
            orbits = cyclic_orbits(avecs)
        compiled = [compile_layout(n, I, J) for I, J in candidates]
        layouts = [lay for lay in compiled if identity.admissible(lay)]
        rejected = (len(compiled) - len(layouts)) * len(avecs)
        context = _context(config.identity, n, layouts)
        lo, hi, _ = context[-1]
        assert len(set(lo)) == len(set(hi)) == 1, f"{lo}..{hi} is not a cube"
        by_a = _execute(orbits, context, config.jobs)
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
