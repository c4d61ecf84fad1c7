"""The Dyson product, its q-analog, and their constant-term evaluations.

For nonnegative integers a_0..a_n the classical product is

    prod_{i != j} (1 - x_i/x_j)^{a_i}

whose constant term is the multinomial coefficient (a_0+...+a_n)! / prod a_i!.
The q-analog replaces each unordered pair {i < j} by

    (x_i/x_j; q)_{a_i} * (q x_j/x_i; q)_{a_j}

and its constant term is the q-multinomial coefficient.  At q = 1 the q-analog
is the classical product factor by factor, so only the q-analog is built and
classical values are read off it at q = 1; ``dyson_factors`` is the tests'
independent oracle for them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .laurent import FactoredProduct, LaurentPoly, shifted_factorial
from .qpoly import ONE, QRat, multinomial, q_multinomial, q_multinomial_poly
from .reports import VerificationReport, make_params


@dataclass(frozen=True)
class DysonSpec:
    """Number of variables minus one, and the exponent vector a."""

    n: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("need at least one variable")
        if len(self.a) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} exponents, got {len(self.a)}")
        if any(ai < 0 for ai in self.a):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "a", tuple(self.a))

    @property
    def a_total(self) -> int:
        return sum(self.a)


def _unit(n: int, i: int, j: int) -> tuple[int, ...]:
    """Exponent vector of x_i / x_j."""
    z = [0] * (n + 1)
    z[i] += 1
    z[j] -= 1
    return tuple(z)


def q_dyson_factors(spec: DysonSpec) -> list[LaurentPoly]:
    """One factor per q-shifted factorial: for each pair i < j, the pair
    contributes (x_i/x_j; q)_{a_i} and (q x_j/x_i; q)_{a_j}, each expanded
    once.  Keeping factors small and few is what makes pruning effective."""
    n = spec.n
    out = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            out.append(shifted_factorial(_unit(n, i, j), spec.a[i], offset=0))
            out.append(shifted_factorial(_unit(n, j, i), spec.a[j], offset=1))
    return out


def dyson_factors(spec: DysonSpec) -> list[LaurentPoly]:
    """Binomial factors (1 - x_i/x_j), each repeated a_i times, over all
    ordered pairs i != j.  Used only by the tests, as an oracle."""
    n = spec.n
    out = []
    for i in range(n + 1):
        if spec.a[i] == 0:
            continue
        for j in range(n + 1):
            if j == i:
                continue
            binom = LaurentPoly(
                n, {(0,) * (n + 1): ONE, _unit(n, i, j): -ONE}
            )
            out.extend([binom] * spec.a[i])
    return out


def q_dyson_source(spec: DysonSpec, expand: bool = False) -> FactoredProduct:
    return FactoredProduct(spec.n, q_dyson_factors(spec), expand=expand)


def verify_q_dyson(spec: DysonSpec, source: FactoredProduct | None = None) -> VerificationReport:
    """Constant term of the q-analog product against the q-multinomial."""
    t0 = time.perf_counter()
    if source is None:
        source = q_dyson_source(spec)
    ct = source.constant_term()
    rhs = q_multinomial(spec.a)
    holds = QRat(ct) == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="qdyson",
        params=make_params(spec.n, spec.a),
        holds=holds,
        lhs=ct.render(),
        rhs=q_multinomial_poly(spec.a).render(),
        elapsed_ms=round(elapsed, 3),
    )


def verify_dyson(spec: DysonSpec, source: FactoredProduct | None = None) -> VerificationReport:
    """Constant term of the classical product, read off the q-product's
    constant term at q = 1, against the multinomial."""
    t0 = time.perf_counter()
    if source is None:
        source = q_dyson_source(spec)
    ct = source.constant_term().at_q1()
    rhs = multinomial(spec.a)
    holds = ct == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="dyson",
        params=make_params(spec.n, spec.a),
        holds=holds,
        lhs=str(ct),
        rhs=str(rhs),
        elapsed_ms=round(elapsed, 3),
    )
