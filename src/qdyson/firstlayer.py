"""First-layer coefficients of the q-Dyson product and their closed forms.

A layer selects m >= 1 distinct indices I = {i_1 < ... < i_m} and m indices
J = {j_1 <= ... <= j_m} (repeats allowed) disjoint from I.  The first-layer
coefficient is the constant term of

    (x_{j_1} ... x_{j_m}) / (x_{i_1} ... x_{i_m}) * q-Dyson product,

equivalently the coefficient of (prod x_i) / (prod x_j) in the product
itself, the flipped layer monomial of S = I, which a compiled ``Layout``
lists last among its subsets.  The brute-force side is that one
coefficient: ``verify_first_layer`` reads it, and nothing else, from the
source its caller built (the read rule of ``firstlayer`` in
``sweeps.IDENTITIES``).  The closed form is a signed sum over nonempty
subsets T of I whose q-exponents are the layer exponents computed here.  Its
q = 1 value, the first-layer coefficient of the classical product, is read
off the same extracted q-coefficient.

``layer_coefficients`` is one formula read straight off the layout, whatever
the smallest selected index: the layer exponent as an affine function of a.
Its coefficients are one prefix sum over 0..n, of +1 at each selected index
and -1 at each paired j, so a layer exponent costs one pass over the
layout however many indices it counts below each k.
It also takes the exponent within the layer of a subset X of I (X with its
paired j's), which is how ``paired`` uses it.  A ``Layout`` holds these
coefficients for every T, compiled once per layout, so the closed form of
each check reads every exponent by one dot product with a.

``verify_first_layer`` compares the brute coefficient with the closed form
without dividing and without ``QPoly`` arithmetic: both cross-multiplied
sides are integers at q = 2^k, as the source keeps the coefficients, with
the spare bits of k that ``first_layer_headroom`` derives.
``first_layer_closed`` builds the closed form as a ``QRat`` to render it
when a check fails.  The q = 1 closed value depends on I and a only and is
computed once per pair, its terms grouped by denominator as on the q side
and folded as integers into one ``Fraction``.  Like every check, these read
an exponent vector a and the compiled ``Layout`` of the layer.
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction
from typing import Iterator, Sequence

from .dyson import Affine, Instance, Layout, evaluate
from .laurent import FactoredProduct
from .qpoly import (
    ONE, ZERO, QPoly, QRat, multinomial, one_minus_q, packed_equal, q_multinomial_at,
    q_multinomial_poly,
)
from .reports import VerificationReport, report


def nonempty_subsets(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets in a fixed order: by size, lexicographic within."""
    for size in range(1, len(values) + 1):
        yield from itertools.combinations(values, size)


def layer_coefficients(
    T: Sequence[int], inst: Instance, within: Sequence[int] | None = None
) -> Affine:
    """The q-exponent attached to a nonempty subset T of the layer (X, J_X),
    as (c0, c) with the exponent c0 + sum of c_k * a_k: X is ``within``
    (all of I by default) and J_X its paired j's.  Reads only n, I and J.
    With count_upto(k, V) = #{v in V : v <= k}, counted with multiplicity,
    and t = #{j in J_X : j < min X}, c0 = t and

        c_k = t + count_upto(k, X) - count_upto(k, J_X)  for k not in T,
        c_k = 0                                          for k in T.

    The first line, for every k at once, is one prefix sum over the layout
    (``layer_levels``), which the entries on T then overwrite.

    It is the split form, for i_1 = min X,

        t + sum_{k=i_1..n} (count_upto(k, X) - count_upto(k, J+)) * w_k
          + sum_{k<i_1} (t - count_upto(k, J-)) * a_k

    with J- = {j < i_1}, J+ = {j > i_1} and w the copy of a zeroed on T.
    Both sums have the coefficient above: no j equals i_1 (I and J are
    disjoint), so count_upto(k, J_X) = t + count_upto(k, J+) for k >= i_1;
    and for k < i_1, count_upto(k, X) = 0, every j <= k lies in J-, and
    k is not in T.  With t = 0 it is the form for layers starting at x_0.
    """
    if not T:
        raise ValueError("subset must be nonempty")
    X = inst.I if within is None else within
    levels, t = layer_levels(inst, X)
    for k in T:
        levels[k] = 0
    return t, tuple(levels)


def layer_levels(inst: Instance, X: Sequence[int]) -> tuple[list[int], int]:
    """([t + count_upto(k, X) - count_upto(k, J_X) for k = 0..n], t), with
    J_X the j's paired with X and t = #{j in J_X : j < min X}: a prefix sum
    of +1 at each x in X and -1 at each paired j, started at t.  Raises
    ``ValueError`` on an index of X outside I."""
    I, J = inst.I, inst.J  # noqa: E741
    lo = min(X)
    delta = [0] * (inst.n + 1)
    t = 0
    for x in X:
        try:
            j = J[I.index(x)]
        except ValueError:
            raise ValueError("subset must consist of selected indices") from None
        delta[x] += 1
        delta[j] -= 1
        t += j < lo
    delta[0] += t
    return list(itertools.accumulate(delta)), t


def layer_exponent(
    T: Sequence[int], inst: Instance, within: Sequence[int] | None = None
) -> int:
    """The q-exponent of ``layer_coefficients`` at inst.a."""
    return evaluate(layer_coefficients(T, inst, within), inst.a)


def first_layer_closed(a: tuple[int, ...], layout: Layout) -> QRat:
    """Closed form of the first-layer coefficient at a, from the compiled
    layout:

        qmultinomial(a) * sum over nonempty T subset I of
            (-1)^|T| q^(layer exponent of T)
            * (1 - q^(sum of a over T)) / (1 - q^(1 + total - sum of a over T))

    The terms are grouped by their denominator d = 1 + total - (sum of a
    over T), so the sum is one numerator over the product of the distinct
    (1 - q^d), each taken once; the q-multinomial multiplies the numerator.
    Layers with m = 0 are rejected.
    """
    if not layout.terms:
        raise ValueError("layer must select at least one index")
    total = sum(a)
    groups: dict[int, QPoly] = {}
    for sign, T, exponent in layout.terms:
        s_t = sum(a[k] for k in T)
        term = one_minus_q(s_t).shifted(evaluate(exponent, a))
        d = 1 + total - s_t
        groups[d] = groups.get(d, ZERO) + (term if sign > 0 else -term)
    num, den = ZERO, ONE
    for d, part in groups.items():
        factor = one_minus_q(d)
        num, den = num * factor + part * den, den * factor
    return QRat(q_multinomial_poly(a) * num, den)


def first_layer_closed_q1(a: tuple[int, ...], layout: Layout) -> Fraction:
    """The q = 1 specialisation of the closed form at a:

        multinomial(a) * sum over nonempty T subset I of
            (-1)^|T| * (sum of a over T) / (1 + total - sum of a over T)

    Independent of J, so it is computed once per (I, a).  As on the q side
    (``first_layer_closed``), the terms are grouped by their denominator
    d = 1 + total - (sum of a over T) and folded as integers into one
    numerator over the product of the distinct d, so it builds a single
    ``Fraction``.
    """
    if not layout.I:
        raise ValueError("layer must select at least one index")
    return _closed_q1(layout.I, a)


@functools.lru_cache(maxsize=1024)
def _closed_q1(I: tuple[int, ...], a: tuple[int, ...]) -> Fraction:  # noqa: E741
    total = sum(a)
    groups: dict[int, int] = {}
    for T in nonempty_subsets(I):
        s_t = sum(a[k] for k in T)
        d = 1 + total - s_t
        groups[d] = groups.get(d, 0) + (-s_t if len(T) % 2 else s_t)
    num, den = 0, 1
    for d, part in groups.items():
        num, den = num * d + part * den, den * d
    return Fraction(multinomial(a) * num, den)


def first_layer_headroom(layout: Layout) -> int:
    """Spare bits of k that ``verify_first_layer`` needs to compare its two
    sides packed (``qpoly.packed_equal``): m + D - 1, with D = 2^m - 1 the
    most distinct denominators the 2^m - 1 subsets T can give; 0 for the
    empty layer, which the check rejects.

    With B the bound of ``laurent.packed_in_box``, 2^(k - 1 - headroom) > B.
    The sides are brute * den and qmult(a) * num, where den is the product
    of the D distinct (1 - q^d) and num sums, over the subsets T,
    +-q^L(T) (1 - q^(s_T)) times the D - 1 factors of den other than T's.
    By L1 norms: brute, one coefficient of the product, is at most B, so
    brute * den is at most 2^D B; each subset's term of num is at most 2^D,
    and qmult(a) at most B (see ``paired.paired_headroom``), so
    qmult(a) * num is at most (2^m - 1) 2^D B.  So |X_i| + |Y_i| <=
    2^(m + D) B < 2^(k + m + D - 1 - headroom), and headroom m + D - 1 puts
    it below 2^k.
    """
    m = len(layout.I)
    return m + 2**m - 2 if m else 0


def verify_first_layer(
    a: tuple[int, ...], layout: Layout, source: FactoredProduct
) -> VerificationReport:
    """Brute-force first-layer coefficient of the product of a against the
    closed form, plus its q = 1 value against the classical closed sum, on
    the compiled layout.

    The closed form is compared without division, as brute * den against
    qmult(a) * num in the terms of ``first_layer_closed``, with both sides
    packed at q = 2^k as ``source`` holds the coefficients: den and num are
    folded up group by group, each factor (1 - q^d) a shift and a
    subtraction, and qmult(a) at 2^k is built once per (a, k) by
    ``qpoly.q_multinomial_at``.  A check that holds
    prints the brute's text on both sides, which is what the closed form
    renders to; only a failing one builds and renders
    ``first_layer_closed``.  The one target is read once, by ``coeff``,
    which checks the box; its packed integer is then a plain dict lookup.
    An empty layer is rejected before anything is read, and a source with
    less headroom than ``first_layer_headroom``, or not the product of a,
    with ``ValueError``."""
    if not layout.terms:
        raise ValueError("layer must select at least one index")
    if source.headroom < first_layer_headroom(layout):
        raise ValueError("source packed with too little headroom for the first-layer check")
    source.check_a(a)
    t0 = time.perf_counter()
    total, k = sum(a), source.k
    exponents = [evaluate(exponent, a) for _, _, exponent in layout.terms]
    base = min(exponents)
    groups: dict[int, int] = {}
    for (sign, T, _), e in zip(layout.terms, exponents):
        s_t = sum(a[i] for i in T)
        term = 1 << (k * (e - base))
        term -= term << (k * s_t)
        d = 1 + total - s_t
        groups[d] = groups.get(d, 0) + (term if sign > 0 else -term)
    num, den = 0, 1
    for d, part in groups.items():
        num, den = num - (num << (k * d)) + part * den, den - (den << (k * d))
    target = layout.subsets[-1][0]
    brute = source.coeff(target)
    brute_den = source.packed.get(target, 0) * den
    q1_brute = brute.at_q1()
    q1_closed = first_layer_closed_q1(a, layout)
    holds = (
        packed_equal(brute_den, q_multinomial_at(a, k) * num, -base, k)
        and q1_closed == q1_brute
    )
    return report(
        "firstlayer", a, layout, t0, holds, brute,
        brute if holds else first_layer_closed(a, layout),
        lambda: {"q1_brute": str(q1_brute), "q1_closed": str(q1_closed)},
    )
