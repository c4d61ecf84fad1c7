"""Corrected Dyson products: Kadell's identity and the failed q-modification.

Multiplying the classical Dyson product by (1 - x_{j_1}/x_{i_1}) ... for the
layer (I, J) of an ``Instance``, one binomial per positional pair, scales the
constant term by a clean rational factor:

    (1 + total - sum of a over I) * CT = (1 + total) * multinomial(a).

The correction binomials carry no q, so the corrected classical constant term
is read off the corrected q-Dyson one at q = 1.  Multiplied out they are the
signed layer monomials of a compiled ``Layout``, so the check reads the
product at the layout's flipped monomials and adds the values with signs.

The q-analog obtained by bumping the affected q-shifted factorial lengths by
one does NOT satisfy the corresponding identity; ``reproduce_counterexample``
pins down the smallest failing instance exactly.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .dyson import Instance, Layout, _unit, q_dyson_source
from .laurent import FactoredProduct, LaurentPoly, ct_of_factor_list, shifted_factorial
from .qpoly import QPoly, multinomial, one_minus_q, q_multinomial_poly
from .reports import VerificationReport, make_params


def corrected_ct(
    inst: Instance, layout: Layout, source: FactoredProduct | None = None
) -> int:
    """CT of prod_k (1 - x_{j_k}/x_{i_k}) * classical Dyson product, taken
    at q = 1 from ``source``, the q-Dyson product, with ``layout`` the
    compiled layout of inst.  The binomials multiply out to the sum over
    subsets S of I of (-1)^|S| x_{J(S)}/x_S, so the constant term is the
    sum of (-1)^|S| times the coefficient at the flipped monomial."""
    if source is None:
        source = q_dyson_source(inst, *layout.box)
    return sum(sign * source.coeff(flipped).at_q1() for flipped, sign, _ in layout.subsets)


def corrected_dyson_rhs(inst: Instance) -> int:
    return (1 + inst.total) * multinomial(inst.a)


def corrected_ct_closed(inst: Instance) -> Fraction:
    """Closed form of the corrected constant term itself:

        (1 + (sum of a over I) / (1 + total - sum of a over I)) * multinomial(a)

    Only defined for nonempty I.
    """
    if inst.m == 0:
        raise ValueError("layer must select at least one index")
    s_i = inst.selected_total
    return (1 + Fraction(s_i, 1 + inst.total - s_i)) * multinomial(inst.a)


def verify_kadell(
    inst: Instance, layout: Layout, source: FactoredProduct | None = None
) -> VerificationReport:
    """Scaled corrected constant term against its product-free value, and the
    corrected constant term itself against its closed form; ``layout`` is
    the compiled layout of inst."""
    t0 = time.perf_counter()
    ct = corrected_ct(inst, layout, source)
    lhs = (1 + inst.total - inst.selected_total) * ct
    rhs = corrected_dyson_rhs(inst)
    holds = lhs == rhs
    extra: dict = {"ct": str(ct)}
    if inst.m > 0:
        closed = corrected_ct_closed(inst)
        extra["ct_closed"] = str(closed)
        holds = holds and closed == ct
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="kadell",
        params=make_params(inst, extra=extra),
        holds=holds,
        lhs=str(lhs),
        rhs=str(rhs),
        elapsed_ms=round(elapsed, 3),
    )


def modified_q_product(inst: Instance) -> list[LaurentPoly]:
    """q-analog product with pair-adjusted factorial lengths: for s < t the
    factor (x_s/x_t; q) has length a_s plus one if (t, s) is a pair, and
    (q x_t/x_s; q) has length a_t plus one if (s, t) is a pair."""
    n, a = inst.n, inst.a
    pair_set = set(inst.pairs)
    out = []
    for s in range(n + 1):
        for t in range(s + 1, n + 1):
            len_st = a[s] + (1 if (t, s) in pair_set else 0)
            len_ts = a[t] + (1 if (s, t) in pair_set else 0)
            out.append(shifted_factorial(_unit(n, s, t), len_st, offset=0))
            out.append(shifted_factorial(_unit(n, t, s), len_ts, offset=1))
    return out


def verify_q_kadell(inst: Instance) -> VerificationReport:
    """The would-be q-analog of the corrected identity:

        (1 - q^(1 + total - sum of a over I)) * CT(modified product)
            =? (1 - q^(1 + total)) * qmultinomial(a)

    This equality is FALSE in general; the report records whether it holds
    for the given instance.
    """
    t0 = time.perf_counter()
    ct = ct_of_factor_list(modified_q_product(inst), (0,) * (inst.n + 1))
    lhs = one_minus_q(1 + inst.total - inst.selected_total) * ct
    rhs = one_minus_q(1 + inst.total) * q_multinomial_poly(inst.a)
    holds = lhs == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="qkadell",
        params=make_params(inst, extra={"ct": ct.render()}),
        holds=holds,
        lhs=lhs.render(),
        rhs=rhs.render(),
        elapsed_ms=round(elapsed, 3),
    )


# Known values for the smallest failing instance of the q-modification:
# n=2, I={0}, J={1}, a=(1,1,1).  The modified product has constant term
# 1 + 2q + 3q^2 + 2q^3, so the two sides differ as polynomials.
_CE = Instance(2, (1, 1, 1), (0,), (1,))


def _expected_counterexample() -> tuple[QPoly, QPoly, QPoly]:
    ct = QPoly(0, (1, 2, 3, 2))
    lhs = one_minus_q(3) * ct
    rhs = one_minus_q(4) * QPoly(0, (1, 1)) * QPoly(0, (1, 1, 1))
    return ct, lhs, rhs


def reproduce_counterexample() -> VerificationReport:
    """Evaluate the pinned failing instance and confirm both sides come out
    as the known polynomials (which are unequal)."""
    report = verify_q_kadell(_CE)
    ct_expected, lhs_expected, rhs_expected = _expected_counterexample()
    confirmed = (
        not report.holds
        and report.params["extra"]["ct"] == ct_expected.render()
        and report.lhs == lhs_expected.render()
        and report.rhs == rhs_expected.render()
    )
    report.params["extra"]["expected_failure"] = True
    report.params["extra"]["confirmed"] = confirmed
    return report
