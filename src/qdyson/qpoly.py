"""Exact coefficient arithmetic: Laurent polynomials in q over the integers.

``QPoly`` stores a dense coefficient window together with the exponent of its
lowest term, so negative powers of q cost nothing extra.  ``QRat`` is a formal
numerator/denominator pair over ``QPoly`` with no arithmetic of its own: it is
built once, compared by cross-multiplication, and divided out only to render.
Both types are immutable after construction.

The Gaussian binomials and q-multinomial coefficients are built as
integers, their values at q = 2^k (Kronecker substitution), by one exact
step, ``_times_ratio``, which multiplies by 1 - q^e and divides by 1 - q^i:
``q_multinomial_at`` runs it along a chain of binomials, ``q_binomial_row``
once per entry of a row.  ``unpack`` reads such an integer back as a
``QPoly``, ``packed_at_q1`` reads its value at q = 1 without unpacking it
and ``packed_equal`` compares two of them, so the packed format lives in
this module; ``q_multinomial_poly`` is the chain unpacked.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence


class InexactDivisionError(ArithmeticError):
    """Exact polynomial division was requested but a remainder is left."""


class QPoly:
    """Laurent polynomial in q with arbitrary-precision integer coefficients.

    Canonical form: the zero polynomial has ``coeffs == ()`` and
    ``min_exp == 0``; otherwise the first and last entries of ``coeffs`` are
    nonzero, and ``coeffs[k]`` is the coefficient of ``q**(min_exp + k)``.
    Two polynomials are equal iff their canonical forms coincide.
    """

    __slots__ = ("min_exp", "coeffs")

    min_exp: int
    coeffs: tuple[int, ...]

    def __init__(self, min_exp: int = 0, coeffs: Sequence[int] = ()) -> None:
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("QPoly is immutable")

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        """Exponent of the highest term (undefined for zero)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.min_exp + len(self.coeffs) - 1

    def at_q1(self) -> int:
        """Value at q = 1."""
        return sum(self.coeffs)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QPoly":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, int):
            return QPoly(0, (other,))
        return NotImplemented

    def __add__(self, other) -> "QPoly":
        other = QPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for k, c in enumerate(self.coeffs):
            out[self.min_exp - lo + k] += c
        for k, c in enumerate(other.coeffs):
            out[other.min_exp - lo + k] += c
        return QPoly(lo, out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QPoly":
        other = QPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        other = QPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(self.min_exp + other.min_exp, out)

    __rmul__ = __mul__

    def shifted(self, e: int) -> "QPoly":
        """Multiply by q**e (cheap exponent shift)."""
        if not self.coeffs:
            return self
        return QPoly(self.min_exp + e, self.coeffs)

    def __eq__(self, other) -> bool:
        other = QPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.min_exp, self.coeffs))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: ascending exponents, ``c*q^e`` per term,
        ``q`` for exponent 1 and a bare coefficient for exponent 0, joined
        by " + " / " - "."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + k
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = f"{mag}*q"
            else:
                body = f"{mag}*q^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QPoly({self.min_exp}, {self.coeffs})"


ZERO = QPoly()
ONE = QPoly(0, (1,))


def q_power(e: int, c: int = 1) -> QPoly:
    """c * q**e."""
    return QPoly(e, (c,))


def one_minus_q(e: int) -> QPoly:
    """1 - q**e (the zero polynomial when e == 0)."""
    if e == 0:
        return ZERO
    if e > 0:
        return QPoly(0, (1,) + (0,) * (e - 1) + (-1,))
    return QPoly(e, (-1,) + (0,) * (-e - 1) + (1,))


def divexact(num: QPoly, den: QPoly) -> QPoly:
    """Quotient num/den when it is again a Laurent polynomial over Z.

    Division runs from the lowest coefficient up; any nonzero remainder (or a
    non-integer quotient coefficient) raises ``InexactDivisionError``.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ZERO
    nc = list(num.coeffs)
    dc = den.coeffs
    qlen = len(nc) - len(dc) + 1
    if qlen <= 0:
        raise InexactDivisionError(f"({num.render()}) not divisible by ({den.render()})")
    d0 = dc[0]
    quot = [0] * qlen
    for k in range(qlen):
        c = nc[k]
        if c % d0:
            raise InexactDivisionError(f"({num.render()}) not divisible by ({den.render()})")
        step = c // d0
        quot[k] = step
        if step:
            for j, dj in enumerate(dc):
                nc[k + j] -= step * dj
    if any(nc):
        raise InexactDivisionError(f"({num.render()}) not divisible by ({den.render()})")
    return QPoly(num.min_exp - den.min_exp, quot)


def q_pochhammer(m: int) -> QPoly:
    """(1 - q)(1 - q^2)...(1 - q^m)."""
    if m < 0:
        raise ValueError("negative length")
    result = ONE
    for k in range(1, m + 1):
        result = result * one_minus_q(k)
    return result


def multinomial(a: Iterable[int]) -> int:
    """(a_0 + ... + a_n)! / (a_0! ... a_n!)."""
    a = list(a)
    out = math.factorial(sum(a))
    for ai in a:
        out //= math.factorial(ai)
    return out


def q_multinomial(a: Iterable[int]) -> "QRat":
    """Formal quotient (q)_{a_0+...+a_n} / ((q)_{a_0} ... (q)_{a_n})."""
    a = list(a)
    den = ONE
    for ai in a:
        den = den * q_pochhammer(ai)
    return QRat(q_pochhammer(sum(a)), den)


def _times_ratio(v: int, e: int, i: int, k: int) -> int:
    """p (1 - q^e) / (1 - q^i) at q = 2^k, for p(2^k) = v > 0 and e >= 1:
    Q = x / (2^M - 1), with x = v (2^(ke) - 1) and M = ki.  When the
    quotient is a polynomial with integer coefficients, its value at 2^k
    is an integer, so the division is exact at every k >= 1.  Being exact,
    it runs from the low bits up: Q (2^M - 1) = x gives
    Q = -x (1 + 2^M + 2^(2M) + ...) modulo any 2^L, and Q < 2^L for
    L = x.bit_length() - M + 2.  The series is summed by doubling its
    length, one shift and add on L bits each time, where long division
    would take time L times M."""
    x, m = (v << k * e) - v, k * i
    mask = (1 << x.bit_length() - m + 2) - 1
    y = x & mask
    while m < mask.bit_length():
        y, m = (y + (y << m)) & mask, 2 * m
    return -y & mask


@functools.lru_cache(maxsize=1024)
def q_multinomial_at(a: tuple[int, ...], k: int) -> int:
    """The q-multinomial coefficient at q = 2^k: the chain of Gaussian
    binomials prod_k [s_k choose a_k]_q, with s_k = a_0 + ... + a_k.
    [s + r choose r]_q is the product over i = 1..r of
    (1 - q^(s+i)) / (1 - q^i), and after each i the running product is the
    earlier binomials times [s + i choose i]_q, a polynomial, so each step
    is one exact ``_times_ratio``.  Cached once per (a, k): a sweep's
    tasks each keep one k."""
    v, s = 1, 0
    for r in a:
        for i in range(1, r + 1):
            v = _times_ratio(v, s + i, i, k)
        s += r
    return v


def q_multinomial_poly(a: Iterable[int]) -> QPoly:
    """The q-multinomial coefficient as an honest polynomial: the chain of
    ``q_multinomial_at`` unpacked.  Its coefficients are nonnegative and sum
    to multinomial(a), so k = multinomial(a).bit_length() + 1 reads each of
    them back exactly."""
    a = tuple(a)
    k = multinomial(a).bit_length() + 1
    return unpack(q_multinomial_at(a, k), k, 0)


def q_binomial_row(m: int, depth: int, k: int) -> tuple[int, ...]:
    """The Gaussian binomials [m choose s]_q at q = 2^k for s = 0..depth,
    depth <= m, one ``_times_ratio`` step per s, by
    [m choose s+1]_q = [m choose s]_q (1 - q^(m-s)) / (1 - q^(s+1)).
    [m choose s]_q = [m choose m-s]_q, so a row to depth m // 2 holds
    every entry.  Not cached: ``laurent.packed_in_box`` builds each row it
    needs once per pass, only as deep as it reads, and drops it with the
    pass."""
    row = [1]
    for s in range(depth):
        row.append(_times_ratio(row[-1], m - s, s + 1, k))
    return tuple(row)


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


def packed_at_q1(v: int, k: int) -> int:
    """p(1), for the polynomial p in q with p(2^k) = v and |p(1)| below
    2^(k-1): as 2^k = 1 modulo 2^k - 1, so is every power of it, and
    v = p(2^k) = p(1) modulo 2^k - 1; under the bound p(1) is the one
    residue of absolute value below 2^(k-1).  One ``%``, no ``unpack``.
    |p(1)| is at most the L1 norm of p's coefficients, so an L1 norm below
    2^(k-1) is enough."""
    m = (1 << k) - 1
    r = v % m
    return r - m if r >> (k - 1) else r


def packed_equal(x: int, y: int, shift: int, k: int) -> bool:
    """Whether q^shift X = Y, for polynomials X and Y with X(2^k) = x and
    Y(2^k) = y whose coefficients satisfy |X_i| + |Y_i| < 2^k at every
    power of q.  Under that bound the comparison of integers is exact:
    were the two sides unequal after aligning them at the lower power of
    q, the lowest nonzero coefficient of their difference would be a
    nonzero multiple of 2^k.  A caller makes the bound hold by asking the
    box pass for enough headroom."""
    if shift >= 0:
        return x << (k * shift) == y
    return x == y << (-k * shift)


class QRat:
    """Formal quotient of two ``QPoly`` values: a compared pair with no
    arithmetic.

    No gcd reduction is performed, ever: ``num`` and ``den`` stay exactly as
    built, and equality means ``num1*den2 == num2*den1``.  A ``QPoly`` or int
    compares as itself over 1.
    """

    __slots__ = ("num", "den")

    num: QPoly
    den: QPoly

    def __init__(self, num, den=ONE) -> None:
        num = QPoly._coerce(num)
        den = QPoly._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("QRat parts must be QPoly or int")
        if den.is_zero():
            raise ZeroDivisionError("QRat with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("QRat is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, (QPoly, int)):
            other = QRat(other)
        elif not isinstance(other, QRat):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def to_poly(self) -> QPoly:
        """Exact polynomial value; raises if the quotient is not polynomial."""
        return divexact(self.num, self.den)

    def render(self) -> str:
        """Polynomial rendering when the quotient divides out, else a
        parenthesised num/den pair."""
        try:
            return self.to_poly().render()
        except InexactDivisionError:
            return f"({self.num.render()}) / ({self.den.render()})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QRat({self.num!r}, {self.den!r})"
