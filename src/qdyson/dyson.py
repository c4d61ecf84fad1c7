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

Every check takes one validated ``Instance``: n, a and a layer (I, J) paired
positionally.  The products built here read only n and a.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .laurent import FactoredProduct, LaurentPoly, shifted_factorial
from .qpoly import ONE, multinomial, q_multinomial_poly
from .reports import VerificationReport, make_params


@dataclass(frozen=True)
class Instance:
    """One instance of the identities over variables x_0..x_n: the exponent
    vector a and a layer of m <= n selected indices I (strictly increasing)
    with m indices J (weakly increasing, disjoint from I), paired
    positionally, i_k with j_k.  The plain Dyson identities take the empty
    layer.  All input validation happens here, once."""

    n: int
    a: tuple[int, ...]
    I: tuple[int, ...] = ()  # noqa: E741 - interface name
    J: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("a", "I", "J"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.n < 0:
            raise ValueError("need at least one variable")
        if len(self.a) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} exponents, got {len(self.a)}")
        if any(ai < 0 for ai in self.a):
            raise ValueError("exponents must be nonnegative")
        if len(self.I) != len(self.J):
            raise ValueError("index lists must have equal length")
        if len(self.I) > self.n:
            raise ValueError("at most n indices may be selected")
        for v in self.I + self.J:
            if not 0 <= v <= self.n:
                raise ValueError(f"index {v} out of range 0..{self.n}")
        if any(x >= y for x, y in zip(self.I, self.I[1:])):
            raise ValueError("I must be strictly increasing")
        if any(x > y for x, y in zip(self.J, self.J[1:])):
            raise ValueError("J must be weakly increasing")
        if set(self.I) & set(self.J):
            raise ValueError("I and J must be disjoint")

    @property
    def m(self) -> int:
        return len(self.I)

    @property
    def total(self) -> int:
        return sum(self.a)

    @property
    def selected_total(self) -> int:
        """Sum of a over I."""
        return sum(self.a[i] for i in self.I)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.I, self.J))

    def position(self, value: int) -> int:
        """1-based position of a selected index within I."""
        return self.I.index(value) + 1

    def paired_js(self, subset: Sequence[int]) -> list[int]:
        """The j-values paired with the given selected indices (with
        multiplicity, sorted)."""
        return sorted(self.J[self.I.index(u)] for u in subset)


def _unit(n: int, i: int, j: int) -> tuple[int, ...]:
    """Exponent vector of x_i / x_j."""
    z = [0] * (n + 1)
    z[i] += 1
    z[j] -= 1
    return tuple(z)


def q_dyson_factors(inst: Instance) -> list[LaurentPoly]:
    """One factor per q-shifted factorial: for each pair i < j, the pair
    contributes (x_i/x_j; q)_{a_i} and (q x_j/x_i; q)_{a_j}, each expanded
    once.  Keeping factors small and few is what makes pruning effective."""
    n = inst.n
    out = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            out.append(shifted_factorial(_unit(n, i, j), inst.a[i], offset=0))
            out.append(shifted_factorial(_unit(n, j, i), inst.a[j], offset=1))
    return out


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


def q_dyson_source(inst: Instance, expand: bool = False) -> FactoredProduct:
    return FactoredProduct(inst.n, q_dyson_factors(inst), expand=expand)


def verify_q_dyson(inst: Instance, source: FactoredProduct | None = None) -> VerificationReport:
    """Constant term of the q-analog product against the q-multinomial."""
    t0 = time.perf_counter()
    if source is None:
        source = q_dyson_source(inst)
    ct = source.constant_term()
    rhs = q_multinomial_poly(inst.a)
    holds = ct == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="qdyson",
        params=make_params(inst),
        holds=holds,
        lhs=ct.render(),
        rhs=rhs.render(),
        elapsed_ms=round(elapsed, 3),
    )


def verify_dyson(inst: Instance, source: FactoredProduct | None = None) -> VerificationReport:
    """Constant term of the classical product, read off the q-product's
    constant term at q = 1, against the multinomial."""
    t0 = time.perf_counter()
    if source is None:
        source = q_dyson_source(inst)
    ct = source.constant_term().at_q1()
    rhs = multinomial(inst.a)
    holds = ct == rhs
    elapsed = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity="dyson",
        params=make_params(inst),
        holds=holds,
        lhs=str(ct),
        rhs=str(rhs),
        elapsed_ms=round(elapsed, 3),
    )
