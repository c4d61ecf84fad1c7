"""Products of pair factors over x_0..x_n, read in one pruned pass.

Every product this package builds is a product of pair factors
(x_i/x_j; q)_a (q x_j/x_i; q)_b, i < j, each given by its four integers as
a ``Pair``.  The heavy operation is reading a few coefficients out of a
large such product.  ``packed_in_box`` multiplies the pairs incrementally
and discards every partial monomial that can no longer reach the box of
exponent vectors the caller reads, using per-variable bounds on what the
remaining pairs may still contribute.  One test before the first pair
decides whether the box can be reached at all, and one forward pass over
the pairs then plans every step with constant state per pair.  At one
partial monomial the usable terms of a pair are one interval of powers of
x_i/x_j, and only terms some partial monomial can use are built.  Inside
the pass an exponent vector is one integer key, a mixed-radix number over
the hull of these bounds, so a term adds a fixed integer to it, and a step
reads only the two digits its pair moves.  Each q-coefficient is one
integer too, its value at q = 2^k (Kronecker substitution), with k read
off the pairs' lengths, so each surviving coefficient unpacks to a unique
``QPoly``.  The pass
builds its Gaussian binomials as such integers (``qpoly.q_binomial_row``)
and a term from one of them by a shift, so it builds no ``QPoly``.  A
caller that goes on computing with the packed values asks for
``headroom`` extra bits of k, enough for the coefficients of whatever it
computes.

``FactoredProduct`` runs the pass once per product and keeps the packed
integers and, for a q-Dyson product, its exponent vector a, the one a
check reads.  Every check passes one guard before it reads anything
(``reads``): the source holds a q-Dyson product, packed with the spare
bits the check computes with, over a box that holds the check's reads.
The guard hands back what it guarded, (packed, a, k), and the check
reads nothing else of the source: each coefficient is a plain
``dict.get`` with default 0, as the pass keeps no zero and drops nothing
else inside its box; ``coeff`` unpacks one coefficient of any product
after the same box check.
``rotated`` turns the q-Dyson product D(a) over a cube into D(rot(a))'s
over the same cube without a pass, by rotating each key one place and
shifting its packed integer: a layer sweep makes one pass per cyclic
orbit of a and steps it once per further member.
``ct_of_factor_list`` is the pass over a single point.

``LaurentPoly`` is a sparse multivariate Laurent polynomial over ``QPoly``:
the type of ``FactoredProduct.expanded``, and of the tests' oracles, which
``expand_product`` multiplies out without pruning, through
``LaurentPoly.one`` and ``__mul__``.  No check builds one; they stay in
this module because ``benchmark/tracing.py`` traces them here.
"""

from __future__ import annotations

import functools
import math
from operator import gt, lt, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .qpoly import ONE, ZERO, QPoly, q_binomial_row, unpack

Monomial = tuple[int, ...]


class AmbientMismatchError(ValueError):
    """Operands live over different variable sets x_0..x_n."""


class LaurentPoly:
    """Map from exponent vectors (length n+1, entries may be negative) to
    nonzero ``QPoly`` coefficients.  Zero coefficients are dropped on
    construction; instances are treated as immutable."""

    __slots__ = ("n", "terms")

    n: int
    terms: dict[Monomial, QPoly]

    def __init__(self, n: int, terms: Mapping[Monomial, QPoly] | None = None) -> None:
        if n < 0:
            raise ValueError("need at least one variable")
        width = n + 1
        clean: dict[Monomial, QPoly] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise AmbientMismatchError(
                        f"exponent vector {exps!r} does not fit {width} variables"
                    )
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(n: int) -> "LaurentPoly":
        return LaurentPoly(n, {(0,) * (n + 1): ONE})

    # -- queries -----------------------------------------------------------

    def num_terms(self) -> int:
        return len(self.terms)

    def coeff(self, exps: Sequence[int]) -> QPoly:
        """Coefficient of the given exponent vector (zero if absent)."""
        key = tuple(exps)
        if len(key) != self.n + 1:
            raise AmbientMismatchError(
                f"exponent vector {key!r} does not fit {self.n + 1} variables"
            )
        return self.terms.get(key, ZERO)

    def _check(self, other: "LaurentPoly") -> None:
        if self.n != other.n:
            raise AmbientMismatchError(f"{self.n + 1} variables vs {other.n + 1}")

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, QPoly] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return LaurentPoly(self.n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"LaurentPoly(n={self.n}, {len(self.terms)} terms)"


def expand_product(factors: Iterable[LaurentPoly], n: int) -> LaurentPoly:
    """Multiply the factors outright (no pruning)."""
    result = LaurentPoly.one(n)
    for f in factors:
        result = result * f
    return result


class Pair(NamedTuple):
    """The pair factor (x_i/x_j; q)_a (q x_j/x_i; q)_b, i < j, of a product
    over x_0..x_n: a + b + 1 terms, one per power of x_i/x_j (see
    ``packed_in_box``)."""

    i: int
    j: int
    a: int
    b: int

    def num_terms(self) -> int:
        return self.a + self.b + 1


def packed_in_box(
    n: int, pairs: Sequence[Pair], lo: Sequence[int], hi: Sequence[int], headroom: int = 0
) -> tuple[dict[Monomial, int], int]:
    """Every term c * x^e of the product of ``pairs`` over x_0..x_n with
    lo <= e <= hi, coordinatewise, packed: (the nonzero coefficients by
    exponent vector, k), where each coefficient c is the polynomial in q
    whose value at q = 2^k is its integer.  Before any work, a box of
    another width raises ``AmbientMismatchError``, and a pair outside
    0 <= i < j <= n or with a negative length ``ValueError``.

    With z = x_i/x_j, the finite form of Jacobi's triple product writes a
    pair out as

        (z; q)_a (q/z; q)_b = sum over r = -b..a of
                              (-1)^r q^(r(r-1)/2) [a+b choose a-r]_q z^r,

    so its term r moves e_i by r and e_j by -r.  The Gaussian binomials
    come from the row ``q_binomial_row(a + b, depth, k)``, their values at
    q = 2^k, built at most once per pass for all the pairs with that a + b,
    and dropped with the pass.  [a+b choose a-r]_q is read as
    [a+b choose min(a-r, b+r)]_q, by the symmetry of the row, so the row
    runs only as deep as the usable r of its pairs reach.  Term r is then
    that entry shifted left by k r(r-1)/2 bits, negated for odd r.

    Pairs are multiplied in ascending order of term count (stable on ties).
    After the first t pairs, a partial monomial lies in window t: the box
    of exponent vectors that the first t pairs can produce, cut down to
    those from which the box lo..hi can still be reached with what the
    remaining pairs may contribute, per variable.  Every other partial
    monomial is dropped.  At one partial monomial the terms that land in
    window t + 1 are those whose r lies in one interval, bounded by -b and
    a and by window t + 1 along x_i and along x_j; a term is built only
    if its r lies in that interval for some vector of window t.  An empty
    pair list is the constant 1.

    Along x_v let high and low be the most and least a pair moves e_v by
    (a and -b at v = i, b and -a at v = j, 0 elsewhere), most_t and
    least_t their sums over the first t pairs, and floor_t and ceiling_t
    lo_v and hi_v minus the sums of high and of low over the rest.  Window
    t along x_v is max(floor_t, least_t)..min(ceiling_t, most_t).  Both
    floor_t - most_t = lo_v - (sum of every high) and least_t - ceiling_t
    = (sum of every low) - hi_v are the same at every t, least_t <= most_t,
    and floor_t - ceiling_t <= lo_v - hi_v, with equality at the end.  So
    if lo <= hi, window t is empty exactly when window 0 is, that is when
    lo_v exceeds the sum of every high or hi_v falls below the sum of
    every low, for some v; if lo_v > hi_v, the last window is empty.  One
    test before the first pair therefore decides whether any window is
    empty, and then the product has no term in the box.  Otherwise window
    0 is the origin, and one forward pass over the pairs plans every step:
    at pair t it reads window t along x_i and x_j, adds the pair's moves to
    most and least, reads window t + 1 there, and keeps that and the
    usable interval of r, constant state per pair.

    Inside the pass an exponent vector is one integer, a mixed-radix number
    whose digit v is e_v minus the least value of coordinate v over all the
    windows, in base the width of the windows' hull along v.  A pair
    changes the windows only along its x_i and x_j, so the plan extends
    the hull there, from the origin.  Term r adds r (stride_i - stride_j)
    to the key, so a step decodes only digits i and j.  Every key stays
    inside the hull, so no digit carries into the next.  The survivors
    are decoded to exponent tuples once, at the end.

    Coefficients travel through the pass as integers, their values at
    q = 2^k, so partial coefficients are multiplied and added as plain ints
    and tested for zero with ``c == 0``.  As r(r-1)/2 >= 0, every term's
    coefficient is a polynomial in q, and so is every coefficient of the
    product: no power of q needs dividing out.  Pruning never changes the
    coefficient of a monomial that survives, so each partial coefficient
    is an exact coefficient of a product of the first pairs, and none of
    its q-coefficients exceeds B, the product of the pairs' L1 norms (the
    sum of |c| over all their q-coefficients).  The same holds summed over
    monomials: the q-coefficients of all the terms of the product together
    have L1 norm at most B.  A Gaussian binomial has nonnegative
    coefficients, so a pair's L1 norm is the sum of C(a+b, a-r) over r,
    2^(a+b), and B = 2^(sum of a + b).  k = B.bit_length() + 1 + headroom,
    the sum of a + b plus 2 + headroom, so 2^(k-1-headroom) > B and
    ``unpack`` reads each coefficient back exactly.
    """
    width = n + 1
    if len(lo) != width or len(hi) != width:
        raise AmbientMismatchError(f"box {lo!r}..{hi!r} does not fit {width} variables")
    # floor and ceiling: the box minus what all the pairs may add
    floor, ceiling = list(lo), list(hi)
    for pair in pairs:
        i, j, a, b = pair
        if not 0 <= i < j <= n or a < 0 or b < 0:
            raise ValueError(f"{pair!r} is no pair factor over x_0..x_{n}")
        floor[i] -= a
        floor[j] -= b
        ceiling[i] += b
        ceiling[j] += a
    ordered = sorted(pairs, key=Pair.num_terms)
    k = sum(a + b for _, _, a, b in ordered) + 2 + headroom
    # some window is empty exactly when one of these holds (see above)
    if any(map(gt, lo, hi)) or any(f > 0 or c < 0 for f, c in zip(floor, ceiling)):
        return {}, k

    least, most = [0] * width, [0] * width  # what the pairs so far can add

    # window t along x_v, as floor_t = floor + most_t and ceiling_t = ceiling + least_t
    def window(v: int) -> tuple[int, int]:
        return max(floor[v] + most[v], least[v]), min(ceiling[v] + least[v], most[v])

    base, top = [0] * width, [0] * width  # the windows' hull; window 0 is the origin
    plan = []
    depth: dict[int, int] = {}
    for i, j, a, b in ordered:
        (lo1i, hi1i), (lo1j, hi1j) = window(i), window(j)
        least[i] -= b
        most[i] += a
        least[j] -= a
        most[j] += b
        (lo2i, hi2i), (lo2j, hi2j) = window(i), window(j)
        base[i], top[i] = min(base[i], lo2i), max(top[i], hi2i)
        base[j], top[j] = min(base[j], lo2j), max(top[j], hi2j)
        # r is usable from window t if e_i + r and e_j - r lie in window t + 1
        r0, r1 = max(-b, lo2i - hi1i, lo1j - hi2j), min(a, hi2i - lo1i, hi1j - lo2j)
        # min(a - r, b + r) peaks at r = (a - b) // 2, or at the nearer end
        r = min(max((a - b) // 2, r0), r1)
        depth[a + b] = max(depth.get(a + b, 0), min(a - r, b + r))
        plan.append((i, j, a, b, r0, r1, lo2i, hi2i, lo2j, hi2j))

    radix = [t - g + 1 for g, t in zip(base, top)]
    stride = [math.prod(radix[:v]) for v in range(width)]
    rows = {m: q_binomial_row(m, d, k) for m, d in depth.items()}
    partial = {-sum(map(mul, base, stride)): 1}
    for i, j, a, b, r0, r1, lo2i, hi2i, lo2j, hi2j in plan:
        row, delta = rows[a + b], stride[i] - stride[j]
        terms = [(r, row[min(a - r, b + r)] << k * (r * (r - 1) // 2)) for r in range(r0, r1 + 1)]
        steps = [(r * delta, -v if r % 2 else v) for r, v in terms]
        # at digits d_i, d_j the usable steps are steps[start:stop]
        si, ri, sj, rj = stride[i], radix[i], stride[j], radix[j]
        bi, ti = lo2i - base[i] - r0, hi2i - base[i] - r0 + 1
        bj, tj = hi2j - base[j] + r0, lo2j - base[j] + r0 - 1
        grown: dict[int, int] = {}
        for key, c1 in partial.items():
            di, dj = key // si % ri, key // sj % rj
            for delta, c2 in steps[max(0, bi - di, dj - bj):max(0, min(ti - di, dj - tj))]:
                key2 = key + delta
                grown[key2] = grown.get(key2, 0) + c1 * c2
        partial = {e: c for e, c in grown.items() if c != 0}
    return {
        tuple(key // s % r + g for s, r, g in zip(stride, radix, base)): c
        for key, c in partial.items()
    }, k


def ct_of_factor_list(pairs: Sequence[Pair], target: Sequence[int]) -> QPoly:
    """Coefficient of x^target in the product of ``pairs``: the box pass
    over the single point target."""
    return FactoredProduct(len(target) - 1, pairs, target, target).coeff(target)


class FactoredProduct:
    """Coefficient source for a product kept in factored form: the
    coefficients at every exponent vector of the box lo <= e <= hi, taken
    in one pruned pass at construction and kept packed, with ``headroom``
    spare bits of k for the caller's arithmetic on them (see
    ``packed_in_box``).  ``a`` is the exponent vector of the q-Dyson
    product the source holds, which ``dyson.q_dyson_source`` records and
    the guard ``reads`` hands every check as its a, and None for any other
    product, which no check reads.  The box is the set of coefficients the
    caller's checks read; reading outside it raises ``ValueError`` instead
    of returning a zero that was never computed.  ``coeff`` unpacks one
    coefficient; ``expanded`` is the whole box unpacked, once; ``rotated``
    makes the product of a rotated exponent vector from a q-Dyson
    product."""

    def __init__(
        self,
        n: int,
        pairs: Sequence[Pair],
        lo: Sequence[int],
        hi: Sequence[int],
        headroom: int = 0,
        a: tuple[int, ...] | None = None,
    ) -> None:
        self.n = n
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.headroom = headroom
        self.a = a
        self.packed, self.k = packed_in_box(n, pairs, lo, hi, headroom)

    def reads(
        self, lo: Sequence[int], hi: Sequence[int], headroom: int = 0
    ) -> tuple[dict[Monomial, int], tuple[int, ...], int]:
        """(packed, a, k) for a check of the q-Dyson product that reads only
        inside the box lo..hi and computes on its coefficients with
        ``headroom`` spare bits of k: the packed coefficients by exponent
        vector, where every vector missing from the dict has coefficient 0
        (the pass keeps no zero), the product's exponent vector a, and the
        k they are packed at.  The one guard of every check, before
        anything is read, and all a check reads of the source but
        ``coeff``: ``ValueError`` unless the source holds a q-Dyson product
        (``a`` is not None), was packed with at least ``headroom`` spare
        bits, and its box holds lo..hi; a box lo..hi of another width than
        the source's x_0..x_n raises ``AmbientMismatchError``, a
        ``ValueError``."""
        if self.a is None:
            raise ValueError("the source holds no q-Dyson product")
        if self.headroom < headroom:
            raise ValueError(
                f"the source was packed with {self.headroom} spare bits, not {headroom}"
            )
        self._check_box(lo, hi)
        return self.packed, self.a, self.k

    def _check_box(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        if len(lo) != len(self.lo) or len(hi) != len(self.hi):  # map stops at the shorter
            raise AmbientMismatchError(f"box {lo!r}..{hi!r} does not fit {len(self.lo)} variables")
        if any(map(lt, lo, self.lo)) or any(map(gt, hi, self.hi)):
            raise ValueError(
                f"exponents {tuple(lo)!r}..{tuple(hi)!r} outside the box {self.lo!r}..{self.hi!r}"
            )

    def coeff(self, target: Sequence[int]) -> QPoly:
        """The coefficient at ``target``, unpacked; a target outside the box
        raises ``ValueError``, and one of another width
        ``AmbientMismatchError``."""
        key = tuple(target)
        self._check_box(key, key)
        return unpack(self.packed.get(key, 0), self.k, 0)

    def rotated(self) -> "FactoredProduct":
        """For this product the q-Dyson product D(a) over a cube, the same
        box of D(rot a), rot(a) = (a_n, a_0, ..., a_{n-1}), made without a
        pass.  It is one step of the cyclic symmetry behind Lv-Xin-Zhou's
        pi operation:

            [x^f] D(a) = q^(f_n) [x^(rot f)] D(rot a),

        so each packed key e becomes e[-1:] + e[:-1] and its int is divided
        by q^(e_n), a shift right by k e_n bits (left when e_n < 0).  The
        shift is exact, as the coefficients of both products are
        polynomials in q (see ``packed_in_box``).  k and headroom carry
        over, as k reads only the sum of the pairs' lengths, n total, which
        rotation keeps, and a becomes rot(a).  A box that is not a cube
        raises ``ValueError``, as only a cube is closed under rot."""
        if len(set(self.lo)) > 1 or len(set(self.hi)) > 1:
            raise ValueError(f"the box {self.lo!r}..{self.hi!r} is not a cube")
        k = self.k
        packed = {}
        for e, c in self.packed.items():
            s = k * e[-1]
            packed[e[-1:] + e[:-1]] = c >> s if s >= 0 else c << -s
        out = object.__new__(FactoredProduct)
        out.n, out.lo, out.hi, out.headroom = self.n, self.lo, self.hi, self.headroom
        out.a = None if self.a is None else self.a[-1:] + self.a[:-1]
        out.packed, out.k = packed, k
        return out

    @functools.cached_property
    def expanded(self) -> LaurentPoly:
        return LaurentPoly(self.n, {e: unpack(c, self.k, 0) for e, c in self.packed.items()})
