"""Sparse multivariate Laurent polynomials in x_0..x_n over ``QPoly``.

The heavy operation in this package is reading a few coefficients out of a
large product of small factors.  ``packed_in_box`` multiplies the factors
incrementally and discards every partial monomial that can no longer reach
the box of exponent vectors the caller reads, using per-variable bounds on
what the remaining factors may still contribute, and packs only the terms
of a factor that some surviving partial monomial can use.  Inside the pass
an exponent vector is one integer key, a mixed-radix number over the hull
of these bounds, so a factor's term adds a fixed integer to it, and a step
checks only the coordinates its factor moves.  Each q-coefficient is packed
into one integer too, its value at q = 2^k (Kronecker substitution), after
dividing each factor by its lowest power of q so that negative powers need
no second loop.  k is read off the factors: 2^(k-1) exceeds B, the product
of the factors' L1 norms, which bounds every q-coefficient a partial
product can have, so each surviving coefficient unpacks to a unique
``QPoly``.  A caller that goes on computing with the packed values asks for
``headroom`` extra bits of k, enough for the coefficients of whatever it
computes.

``FactoredProduct`` runs the pass once per product and keeps the packed
integers: the layer checks read them as they are (``packed_coeff``) and do
their sums and products on integers, and ``coeff`` unpacks one coefficient
on each read.  A read looks its key up first and checks the box only when
the key is missing.  ``rotated`` turns the q-Dyson product D(a) over a cube
into D(rot(a))'s over the same cube without a pass, by relabelling the
keys and shifting the packed integers: a layer sweep makes one pass per
cyclic orbit of a.  ``ct_of_factor_list`` is the pass over a single point.
``LaurentPoly`` holds the factors.  ``expand_product`` multiplies them
outright, without pruning, through ``LaurentPoly.one`` and ``__mul__``.
Nothing in the program calls these: they are only the tests' oracle, and
they stay in this module because ``benchmark/tracing.py`` traces them here.
"""

from __future__ import annotations

import functools
import math
from operator import gt, le, mul, sub
from typing import Iterable, Mapping, Sequence

from .qpoly import ONE, ZERO, QPoly

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


def pack(p: QPoly, low: int, k: int) -> int:
    """p * q^-low at q = 2^k, for p with no power of q below ``low``."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << k) + c
    return v << (k * (p.min_exp - low))


def unpack(v: int, k: int, low: int) -> QPoly:
    """The ``QPoly`` p * q^low, where p(2^k) = v and every coefficient of p
    is below 2^(k-1) in absolute value: read base-2^k digits from the
    bottom, each in [-2^(k-1), 2^(k-1)), borrowing from the next digit when
    one is negative."""
    digits = []
    mask, half, base = (1 << k) - 1, 1 << (k - 1), 1 << k
    while v:
        d = v & mask
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> k
    return QPoly(low, digits)


def packed_equal(x: int, x_low: int, y: int, y_low: int, k: int) -> bool:
    """Whether q^x_low X = q^y_low Y, for polynomials X and Y with
    X(2^k) = x and Y(2^k) = y whose coefficients satisfy |X_i| + |Y_i| < 2^k
    at every power of q.  Under that bound the comparison of integers is
    exact: were X != Y after aligning the two at the lower power of q, the
    lowest nonzero coefficient of their difference would be a nonzero
    multiple of 2^k.  A caller makes the bound hold by asking the pass for
    enough headroom."""
    if x_low >= y_low:
        return x << (k * (x_low - y_low)) == y
    return x == y << (k * (y_low - x_low))


def packed_in_box(
    factors: Sequence[LaurentPoly], lo: Sequence[int], hi: Sequence[int], headroom: int = 0
) -> tuple[dict[Monomial, int], int, int]:
    """Every term c * x^e of the product of ``factors`` with lo <= e <= hi,
    coordinatewise, packed: (the nonzero coefficients by exponent vector,
    k, low), where each coefficient c is q^low times the polynomial whose
    value at q = 2^k is its integer.

    Factors are multiplied in ascending order of term count (stable on ties).
    After the first t factors, a partial monomial lies in window t: the box
    of exponent vectors that the first t factors can produce, cut down to
    those from which the box lo..hi can still be reached with what the
    remaining factors may contribute, per variable.  Every other partial
    monomial is dropped.  A factor's term is packed only if it can move some
    vector of window t into window t + 1.  An empty factor list is the
    constant 1.

    Inside the pass an exponent vector is one integer, a mixed-radix number
    whose digit v is e_v minus the least value of coordinate v over all the
    windows, in base the width of the windows' hull along v.  A term of a
    factor adds a fixed integer to the key.  A factor moves only the
    coordinates in its support, where some term has a nonzero exponent, and
    the windows of the other coordinates are the same before and after it.
    So for each partial monomial the step decodes and checks only the
    support's digits, and does so once per distinct digit tuple: the terms
    that keep those digits inside window t + 1 are kept as a list of key
    increments.  Every key stays inside the hull, so no digit carries into
    the next.  The survivors are decoded to exponent tuples once, at the end.

    Coefficients travel through the pass as integers: each factor's
    coefficients are divided by its lowest power of q and evaluated at
    q = 2^k, so partial coefficients are multiplied and added as plain ints
    and tested for zero with ``c == 0``; low is the sum of the factors'
    lowest powers.  Pruning never changes the coefficient of a monomial that
    survives, so each partial coefficient is an exact coefficient of a
    product of the first factors, and none of its q-coefficients exceeds B,
    the product of the factors' L1 norms (the sum of |c| over all
    q-coefficients of a factor).  The same holds summed over monomials: the
    q-coefficients of all the terms of the product together have L1 norm at
    most B.  A zero factor makes B = 0, but it has no terms, so it sorts
    first and empties the pass.  k = B.bit_length() + 1 + headroom, so
    2^(k-1-headroom) > B and ``unpack`` reads each coefficient back exactly.
    B and low are taken over every term, packed or not.
    """
    width = len(lo)
    n = width - 1
    for f in factors:
        if f.n != n:
            raise AmbientMismatchError(f"{f.n + 1} variables vs {width}")

    ordered = sorted(factors, key=LaurentPoly.num_terms)
    columns = [list(zip(*f.terms)) for f in ordered]
    lows = [min((c.min_exp for c in f.terms.values()), default=0) for f in ordered]
    bound = math.prod(
        sum(sum(map(abs, coeff.coeffs)) for coeff in f.terms.values()) for f in ordered
    )
    k = bound.bit_length() + 1 + headroom

    # backward: the box minus what factors t..end may still add
    floor, ceiling = list(lo), list(hi)
    reach = [(lo, hi)]
    for cols in reversed(columns):
        for v, column in enumerate(cols):
            floor[v] -= max(column)
            ceiling[v] -= min(column)
        reach.append((tuple(floor), tuple(ceiling)))
    reach.reverse()
    # forward: what factors 0..t-1 can produce; window t is the intersection
    least, most = [0] * width, [0] * width
    windows = []
    for cols, (floor, ceiling) in zip(columns + [[]], reach):
        window = tuple(map(max, floor, least)), tuple(map(min, ceiling, most))
        if any(map(gt, *window)):
            return {}, k, sum(lows)
        windows.append(window)
        for v, column in enumerate(cols):
            least[v] += min(column)
            most[v] += max(column)

    base = [min(w[0][v] for w in windows) for v in range(width)]
    radix = [max(w[1][v] for w in windows) - base[v] + 1 for v in range(width)]
    stride = [math.prod(radix[:v]) for v in range(width)]

    partial = {-sum(map(mul, base, stride)): 1}
    for f, cols, low, (before, after) in zip(ordered, columns, lows, zip(windows, windows[1:])):
        support = [v for v, column in enumerate(cols) if any(column)]
        moves = [
            ([e[v] for v in support], sum(e[v] * stride[v] for v in support), pack(c, low, k))
            for e, c in f.terms.items()
            if all(after[0][v] - before[1][v] <= e[v] <= after[1][v] - before[0][v]
                   for v in support)
        ]
        digits = [(stride[v], radix[v]) for v in support]
        bottom = [after[0][v] - base[v] for v in support]
        top = [after[1][v] - base[v] for v in support]
        usable: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        grown: dict[int, int] = {}
        for key, c1 in partial.items():
            at = tuple([key // s % r for s, r in digits])
            steps = usable.get(at)
            if steps is None:
                lower, upper = list(map(sub, bottom, at)), list(map(sub, top, at))
                steps = usable[at] = [
                    (delta, c2) for d, delta, c2 in moves
                    if all(map(le, lower, d)) and all(map(le, d, upper))
                ]
            for delta, c2 in steps:
                key2 = key + delta
                grown[key2] = grown.get(key2, 0) + c1 * c2
        partial = {e: c for e, c in grown.items() if c != 0}
    return {
        tuple(key // s % r + g for s, r, g in zip(stride, radix, base)): c
        for key, c in partial.items()
    }, k, sum(lows)


def ct_of_factor_list(factors: Sequence[LaurentPoly], target: Sequence[int]) -> QPoly:
    """Coefficient of x^target in the product of ``factors``: the box pass
    over the single point target."""
    return FactoredProduct(len(target) - 1, factors, target, target).coeff(target)


class FactoredProduct:
    """Coefficient source for a product kept in factored form: the
    coefficients at every exponent vector of the box lo <= e <= hi, taken
    in one pruned pass at construction and kept packed, with ``headroom``
    spare bits of k for the caller's arithmetic on them (see
    ``packed_in_box``).  The box is the set of coefficients the caller's
    checks read; reading outside it raises ``ValueError`` instead of
    returning a zero that was never computed.  ``coeff`` unpacks one
    coefficient; ``expanded`` is the whole box unpacked, once; ``rotated``
    makes the product of a rotated exponent vector from a q-Dyson
    product."""

    def __init__(
        self,
        n: int,
        factors: Sequence[LaurentPoly],
        lo: Sequence[int],
        hi: Sequence[int],
        headroom: int = 0,
    ) -> None:
        self.n = n
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.headroom = headroom
        self.packed, self.k, self.low = packed_in_box(factors, lo, hi, headroom)

    def _absent(self, key: Monomial) -> int:
        """The packed coefficient at a key the pass did not keep: 0 inside
        the box, where the pass dropped only zeros.  Every kept key lies in
        the box, so a read checks the box here alone, on a miss."""
        for e, b, c in zip(key, self.lo, self.hi):
            if e < b or e > c:
                raise ValueError(f"exponent {key!r} outside the box {self.lo!r}..{self.hi!r}")
        return 0

    def packed_coeff(self, target: Sequence[int]) -> int:
        """The coefficient at ``target`` as q^-low times it at q = 2^k."""
        key = tuple(target)
        value = self.packed.get(key)
        return self._absent(key) if value is None else value

    def coeff(self, target: Sequence[int]) -> QPoly:
        return unpack(self.packed_coeff(target), self.k, self.low)

    def rotated(self, r: int) -> "FactoredProduct":
        """For this product the q-Dyson product D(a) over a cube, the same
        box of D(rot^r a), with rot(a) = (a_n, a_0, ..., a_{n-1}), made
        without a pass.  It is the cyclic symmetry behind Lv-Xin-Zhou's pi
        operation: with pi^r moving exponent i to position (i + r) mod
        (n + 1),

            [x^f] D(a) = q^s [x^(pi^r f)] D(rot^r a),
            s = sum of floor((i + r) / (n + 1)) f_i,

        so each packed key is relabelled by pi^r and its int divided by q^s,
        a shift right by k s bits (left when s < 0).  The shift is exact:
        every factor of a q-Dyson product has lowest power q^0, so low is 0
        and every coefficient is a polynomial in q.  k, low and headroom
        carry over, as B = 2^(n total) does not change under rotation.
        r = 0 gives this product itself; any other r raises ``ValueError``
        on a box that is not a cube, as only a cube is closed under pi."""
        width = self.n + 1
        if r % width == 0:
            return self
        if len(set(self.lo)) > 1 or len(set(self.hi)) > 1:
            raise ValueError(f"the box {self.lo!r}..{self.hi!r} is not a cube")
        cut = width - r % width  # the coordinates i with i + r >= n + 1
        k = self.k
        packed = {}
        for e, c in self.packed.items():
            s = k * sum(e[cut:])
            packed[e[cut:] + e[:cut]] = c >> s if s >= 0 else c << -s
        out = object.__new__(FactoredProduct)
        out.n, out.lo, out.hi, out.headroom = self.n, self.lo, self.hi, self.headroom
        out.packed, out.k, out.low = packed, k, self.low
        return out

    def constant_term(self) -> QPoly:
        return self.coeff((0,) * (self.n + 1))

    @functools.cached_property
    def expanded(self) -> LaurentPoly:
        return LaurentPoly(self.n, {e: unpack(c, self.k, self.low) for e, c in self.packed.items()})
