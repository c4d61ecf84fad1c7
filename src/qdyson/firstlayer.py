"""First-layer coefficients of the q-Dyson product and their closed forms.

The layer of an ``Instance`` selects m >= 1 distinct indices
I = {i_1 < ... < i_m} and m indices J = {j_1 <= ... <= j_m} (repeats allowed)
disjoint from I.  The first-layer coefficient is the constant term of

    (x_{j_1} ... x_{j_m}) / (x_{i_1} ... x_{i_m}) * q-Dyson product,

equivalently the coefficient of (prod x_i) / (prod x_j) in the product
itself.  The brute-force side reads that one coefficient, and nothing else,
from the source its caller built (the read rule of ``firstlayer`` in
``sweeps.IDENTITIES``).  The closed form is a signed sum over nonempty
subsets T of I whose q-exponents are the layer exponents computed here.  Its
q = 1 value, the first-layer coefficient of the classical product, is read
off the same extracted q-coefficient.

``layer_coefficients`` is one formula read straight off the layout, whatever
the smallest selected index: the layer exponent as an affine function of a.
It also takes the exponent within the layer of a subset X of I (X with its
paired j's), which is how ``paired`` uses it.  A ``Layout`` holds these
coefficients for every T, compiled once per layout, so the closed form of
each check reads every exponent by one dot product with a.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .dyson import Affine, Instance, Layout, evaluate
from .laurent import FactoredProduct
from .qpoly import ONE, ZERO, QPoly, QRat, multinomial, one_minus_q, q_multinomial_poly
from .reports import VerificationReport, report


def count_upto(k: int, values: Iterable[int]) -> int:
    """Number of entries <= k, counted with multiplicity."""
    return sum(1 for v in values if v <= k)


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
    With t = #{j in J_X : j < min X}, c0 = t and

        c_k = t + count_upto(k, X) - count_upto(k, J_X)  for k not in T,
        c_k = 0                                          for k in T.

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
    js = inst.paired_js(X)
    t = count_upto(min(X) - 1, js)
    tset, xset = set(T), set(X)
    coeffs, level = [], t
    for k in range(inst.n + 1):
        level += (k in xset) - js.count(k)  # t + count_upto(k, X) - count_upto(k, J_X)
        coeffs.append(0 if k in tset else level)
    return t, tuple(coeffs)


def layer_exponent(
    T: Sequence[int], inst: Instance, within: Sequence[int] | None = None
) -> int:
    """The q-exponent of ``layer_coefficients`` at inst.a."""
    return evaluate(layer_coefficients(T, inst, within), inst.a)


def first_layer_target(inst: Instance) -> tuple[int, ...]:
    """Exponent vector whose coefficient in the q-Dyson product is the
    first-layer coefficient: the flipped layer monomial of S = I."""
    return tuple(-e for e in inst.layer_monomial(inst.I))


def first_layer_brute(inst: Instance, source: FactoredProduct) -> QPoly:
    """First-layer coefficient straight out of the product."""
    return source.coeff(first_layer_target(inst))


def first_layer_closed(inst: Instance, layout: Layout) -> QRat:
    """Closed form of the first-layer coefficient, from the compiled layout
    of inst:

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
    a, total = inst.a, inst.total
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


def first_layer_closed_q1(inst: Instance) -> Fraction:
    """The q = 1 specialisation of the closed form:

        multinomial(a) * sum over nonempty T subset I of
            (-1)^|T| * (sum of a over T) / (1 + total - sum of a over T)

    Independent of J.
    """
    if inst.m == 0:
        raise ValueError("layer must select at least one index")
    acc = Fraction(0)
    for T in nonempty_subsets(inst.I):
        s_t = sum(inst.a[k] for k in T)
        term = Fraction(s_t, 1 + inst.total - s_t)
        acc += -term if len(T) % 2 else term
    return multinomial(inst.a) * acc


def verify_first_layer(
    inst: Instance, layout: Layout, source: FactoredProduct
) -> VerificationReport:
    """Brute-force first-layer coefficient against the closed form, plus its
    q = 1 value against the classical closed sum; ``layout`` is the compiled
    layout of inst."""
    t0 = time.perf_counter()
    closed = first_layer_closed(inst, layout)
    brute = first_layer_brute(inst, source)
    q1_brute = brute.at_q1()
    q1_closed = first_layer_closed_q1(inst)
    holds = QRat(brute) == closed and q1_closed == q1_brute
    return report(
        "firstlayer", inst, t0, holds, brute, closed,
        lambda: {"q1_brute": str(q1_brute), "q1_closed": str(q1_closed)},
    )
