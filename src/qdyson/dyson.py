"""The Dyson product, its q-analog, and their constant-term evaluations.

For nonnegative integers a_0..a_n the classical product is

    prod_{i != j} (1 - x_i/x_j)^{a_i}

whose constant term is the multinomial coefficient (a_0+...+a_n)! / prod a_i!.
The q-analog replaces each unordered pair {i < j} by

    (x_i/x_j; q)_{a_i} * (q x_j/x_i; q)_{a_j}

and its constant term is the q-multinomial coefficient.  Each pair's two
q-shifted factorials are one factor, a ``laurent.Pair`` given by i, j and
the two lengths (``pair_factors``), so the product has n(n+1)/2 factors,
which the box pass expands.  At q = 1 the q-analog is the classical
product pair by pair, so only the q-analog is built and classical values
are read off it at q = 1; ``dyson_factors`` is the tests' independent
oracle for them, a list of ``LaurentPoly`` binomials.

``Instance`` validates the input: n, a and a layer (I, J) paired
positionally, and ``Instance.layer_monomial`` builds the layer monomial
x_{J(S)}/x_S of a subset S of I.  A check is ``check(layout, source)``.
The ``Layout`` holds everything the identities need of n and (I, J),
compiled and validated once by ``paired.compile_layout`` before any a is
drawn, with each chain exponent kept as an affine function of a that
``evaluate`` turns into a number by one dot product, and every layer
exponent read off one prefix sum.  The layout is the one carrier of
(n, I, J) a check and its report read.  The products built here read
only n and a: ``pair_factors`` is the one loop over the pairs,
given the lengths of each pair's two q-shifted factorials, for the
q-Dyson product and for ``kadell``'s modified one, which no check reads:
its own pass is the independent oracle that confirms the pinned
counterexample.  A check builds no product: ``source`` is one pruned pass
its caller made over a box that holds what the check reads, and it
carries the a of its q-Dyson product, the one carrier of a a check and
its report read.  A check runs four steps in order: its guard, its clock,
its arithmetic and its report.  The guard, ``FactoredProduct.reads``, is
the one step that touches the source: it refuses with ``ValueError`` a
source that holds no q-Dyson product, lacks the spare bits the check
computes with, or does not hold the check's box, and with
``AmbientMismatchError`` a box of another width than the source's, and
otherwise hands back (packed, a, k), all the check reads.  A check calls
it with its read rule, (lo, hi, headroom) as a function of the layout,
which is also the rule of its row in ``sweeps.IDENTITIES`` and the
arguments ``q_dyson_source`` takes after the instance.  For the constant
terms here it is ``dyson_reads``: the origin, the box of the empty layer,
with no spare bits; a layout with a layer raises ``ValueError`` there, as
its box is not the origin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import le, lt, mul
from typing import Callable, Sequence

from .laurent import FactoredProduct, LaurentPoly, Pair
from .qpoly import ONE, multinomial, packed_at_q1, q_multinomial_at, q_multinomial_poly, unpack
from .reports import VerificationReport, report


@dataclass(frozen=True)
class Instance:
    """One instance of the identities over variables x_0..x_n: the exponent
    vector a and a layer of m <= n selected indices I (strictly increasing)
    with m indices J (weakly increasing, disjoint from I), paired
    positionally, i_k with j_k.  The plain Dyson identities take the empty
    layer.  All input validation happens here, once: n and every entry of
    a, I and J must be of type ``int`` exactly, so that a bool or a float
    is refused here, not written into a report or met deep in a pass."""

    n: int
    a: tuple[int, ...]
    I: tuple[int, ...] = ()  # noqa: E741 - interface name
    J: tuple[int, ...] = ()

    def __post_init__(self):
        n, a, I, J = self.n, tuple(self.a), tuple(self.I), tuple(self.J)  # noqa: E741
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        if type(n) is not int or not set(map(type, a + I + J)) <= {int}:
            raise ValueError("n and the entries of a, I and J must be integers")
        if n < 0:
            raise ValueError("need at least one variable")
        if len(a) != n + 1:
            raise ValueError(f"expected {n + 1} exponents, got {len(a)}")
        if min(a) < 0:
            raise ValueError("exponents must be nonnegative")
        if len(I) != len(J):
            raise ValueError("index lists must have equal length")
        if len(I) > n:
            raise ValueError("at most n indices may be selected")
        indices = I + J
        if indices and not 0 <= min(indices) <= max(indices) <= n:
            v = next(v for v in indices if not 0 <= v <= n)  # the first out of range
            raise ValueError(f"index {v} out of range 0..{n}")
        if not all(map(lt, I, I[1:])):
            raise ValueError("I must be strictly increasing")
        if not all(map(le, J, J[1:])):
            raise ValueError("J must be weakly increasing")
        if not set(I).isdisjoint(J):
            raise ValueError("I and J must be disjoint")

    @property
    def m(self) -> int:
        return len(self.I)

    @property
    def total(self) -> int:
        return sum(self.a)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.I, self.J))

    def layer_monomial(self, subset: Sequence[int]) -> tuple[int, ...]:
        """Exponent vector of the layer monomial x_{J(S)}/x_S, the product of
        x_{j_k}/x_{i_k} over the selected indices i_k in S.  It is -1 exactly
        on S among the entries of I, so distinct subsets give distinct
        monomials."""
        exps = [0] * (self.n + 1)
        for i in subset:
            exps[i] -= 1
            exps[self.J[self.I.index(i)]] += 1
        return tuple(exps)


Affine = tuple[int, tuple[int, ...]]


def evaluate(affine: Affine, a: Sequence[int]) -> int:
    """The value c0 + sum of c_k * a_k of affine = (c0, c) at a."""
    c0, c = affine
    return c0 + sum(map(mul, c, a))


@dataclass(frozen=True)
class Layout:
    """A layer (I, J) over x_0..x_n compiled for every exponent vector at
    once, validated when ``paired.compile_layout`` built it.  Each
    q-exponent is an ``Affine`` (c0, c), read at a by ``evaluate``.

    ``subsets`` holds one row per subset S of I (the empty one first, then
    by size, lexicographic within): S itself; the flipped layer monomial,
    the negated ``layer_monomial(S)``; the sign (-1)^|S|; and the chain
    exponent of S, which is 0 for the empty subset, whose weight is 1.  No
    two subsets share a monomial.  ``levels`` is (t, L), the prefix sum
    ``paired.layer_levels`` of I: the layer exponent of a nonempty T is
    t + sum over k of L_k a_k less the sum over k in T of L_k a_k, so the
    first-layer closed form reads every T's exponent off it; for the empty
    layer it is zero.  The naive weights of ``kadell.verify_q_kadell`` are
    read off the rows and the pairs, in that module.  ``box`` is (lo, hi)
    of the exponent vectors the layer identities read from the product:
    the box spanned by the origin and the flipped monomial of S = I, which
    holds every flipped monomial; for the empty layer it is the origin.
    ``npc`` is the verdict of ``paired.npc_holds`` on (I, J): whether the
    pairing avoids the crossing pattern the paired identity excludes,
    which ``main`` admits a layout by."""

    n: int
    I: tuple[int, ...]  # noqa: E741 - interface name
    J: tuple[int, ...]
    subsets: tuple[tuple[tuple[int, ...], tuple[int, ...], int, Affine], ...]
    levels: Affine
    box: tuple[tuple[int, ...], tuple[int, ...]]
    npc: bool


def _unit(n: int, i: int, j: int) -> tuple[int, ...]:
    """Exponent vector of x_i / x_j."""
    z = [0] * (n + 1)
    z[i] += 1
    z[j] -= 1
    return tuple(z)


def pair_factors(n: int, length: Callable[[int, int], int]) -> list[Pair]:
    """One ``Pair`` per pair i < j: with z = x_i/x_j, a = length(i, j) and
    b = length(j, i), the factor (z; q)_a (q/z; q)_b.  The pass expands it
    (``laurent.packed_in_box``), so a product of n(n+1)/2 pairs is built
    as n(n+1)/2 records of four integers."""
    return [
        Pair(i, j, length(i, j), length(j, i))
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]


def q_dyson_factors(inst: Instance) -> list[Pair]:
    """The q-Dyson product's factors: (x_i/x_j; q) has length a_i."""
    return pair_factors(inst.n, lambda i, j: inst.a[i])


def dyson_factors(inst: Instance) -> list[LaurentPoly]:
    """Binomial factors (1 - x_i/x_j), each repeated a_i times, over all
    ordered pairs i != j.  Used only by the tests, as an oracle."""
    n = inst.n
    out = []
    for i in range(n + 1):
        if inst.a[i] == 0:
            continue
        for j in range(n + 1):
            if j == i:
                continue
            binom = LaurentPoly(
                n, {(0,) * (n + 1): ONE, _unit(n, i, j): -ONE}
            )
            out.extend([binom] * inst.a[i])
    return out


def q_dyson_source(
    inst: Instance, lo: Sequence[int], hi: Sequence[int], headroom: int = 0
) -> FactoredProduct:
    """The q-Dyson product's coefficients over the box lo <= e <= hi,
    packed with ``headroom`` spare bits for the checks that compute on
    them, and recording inst.a, which every check reads as its a.
    (lo, hi, headroom) is what a check's read rule returns, so
    ``q_dyson_source(inst, *rule(layout))`` serves that check."""
    return FactoredProduct(inst.n, q_dyson_factors(inst), lo, hi, headroom, inst.a)


def dyson_reads(layout: Layout) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """What ``verify_dyson`` and ``verify_q_dyson`` read, as the arguments
    (lo, hi, headroom) of their guard ``FactoredProduct.reads`` and of
    ``q_dyson_source``: the origin alone, the box of the empty layer, with
    no spare bits.  The constant term has no layer, and a layout with one
    raises ``ValueError``, as its box is not the origin."""
    if layout.I:
        raise ValueError("the constant term has no layer, so I and J do not apply")
    return (*layout.box, 0)


def verify_q_dyson(layout: Layout, source: FactoredProduct) -> VerificationReport:
    """Constant term of the q-Dyson product held by ``source`` against the
    q-multinomial of its a; ``layout`` is the empty layer over x_0..x_n,
    whose box is the origin, as its read rule ``dyson_reads`` requires.

    Both sides are compared packed, as integers at q = 2^k, the constant
    term as the source holds it and the q-multinomial by
    ``qpoly.q_multinomial_at``.  That is exact with no spare bits: the
    constant term is one coefficient of the product, so its
    q-coefficients have L1 norm at most B, the bound of
    ``laurent.packed_in_box``, and the q-multinomial's sum to
    multinomial(a) <= B (see ``paired.paired_reads``).  Every coefficient
    of both lies below B < 2^(k - 1), where the base-2^k digits of a
    polynomial are unique.  The constant term is unpacked once, for the
    text; only a failing check renders ``qpoly.q_multinomial_poly``.  The
    guard hands the check its packed coefficients, a and k, before the
    clock starts."""
    packed, a, k = source.reads(*dyson_reads(layout))  # raises on a layer: source untouched
    t0 = time.perf_counter()
    v = packed.get(layout.box[0], 0)
    holds = v == q_multinomial_at(a, k)
    ct = unpack(v, k, 0)
    return report("qdyson", a, layout, t0, holds, ct, ct if holds else q_multinomial_poly(a))


def verify_dyson(layout: Layout, source: FactoredProduct) -> VerificationReport:
    """Constant term of the classical product of the source's a, the
    q-Dyson constant term at q = 1, read packed by one residue
    (``qpoly.packed_at_q1``), against the multinomial; ``layout`` is the
    empty layer over x_0..x_n, whose box is the origin, as its read rule
    ``dyson_reads`` requires.  The guard hands the check its packed
    coefficients, a and k, before the clock starts."""
    packed, a, k = source.reads(*dyson_reads(layout))  # raises on a layer: source untouched
    t0 = time.perf_counter()
    ct = packed_at_q1(packed.get(layout.box[0], 0), k)
    rhs = multinomial(a)
    return report("dyson", a, layout, t0, ct == rhs, ct, rhs)
