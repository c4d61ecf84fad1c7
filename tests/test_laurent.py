"""Multivariate kernel: arithmetic and pruned extraction.  Also checks the
tests' own helpers for rotation, degree and q = 1, and holds the box pass
with ``QPoly`` arithmetic over general ``LaurentPoly`` factors as the
oracle of the packed pass over pairs, each pair written out by
``pair_oracle``, and the product of binomials as the oracle of the
q-binomial form of ``shifted_factorial``."""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from benchmark.workloads import GRID_SETS
from qdyson import cli, laurent, sweeps
from qdyson.dyson import Instance, q_dyson_factors, q_dyson_source
from qdyson.laurent import (
    AmbientMismatchError,
    FactoredProduct,
    LaurentPoly,
    Pair,
    ct_of_factor_list,
    expand_product,
    packed_in_box,
)
from qdyson.paired import compile_layout
from qdyson.qpoly import ONE, ZERO, QPoly, packed_equal, q_pochhammer, q_power, unpack
from qdyson.sweeps import IDENTITIES, SweepConfig, run_sweep
from tests.test_acceptance import pi_action
from tests.test_dyson import (
    ct_times,
    eval_q1,
    homogeneous_degree,
    oracle_factors,
    shifted_factorial,
)
from tests.test_qpoly import pack


def box_pass_oracle(factors, lo, hi):
    """The pruned box pass of ``packed_in_box`` over any ``LaurentPoly``
    factors, with ``QPoly`` arithmetic at every step: the same factor order
    and the same pruning, but no packing into integers."""
    width = len(lo)
    ordered = sorted(factors, key=LaurentPoly.num_terms)
    floor, ceiling = list(lo), list(hi)
    reach = [(lo, hi)]
    for f in reversed(ordered):
        for v, column in enumerate(zip(*f.terms)):
            floor[v] -= max(column)
            ceiling[v] -= min(column)
        reach.append((tuple(floor), tuple(ceiling)))
    reach.reverse()

    partial = {}
    if all(b <= 0 <= c for b, c in zip(*reach[0])):
        partial[(0,) * width] = ONE
    for f, (floor, ceiling) in zip(ordered, reach[1:]):
        grown = {}
        for e1, c1 in partial.items():
            for e2, c2 in f.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                if all(b <= x <= c for b, x, c in zip(floor, key, ceiling)):
                    grown[key] = grown.get(key, ZERO) + c1 * c2
        partial = {e: c for e, c in grown.items() if not c.is_zero()}
    return LaurentPoly(width - 1, partial)


def l1_norm(f):
    """Sum of |c| over every q-coefficient of a factor."""
    return sum(abs(c) for coeff in f.terms.values() for c in coeff.coeffs)


def assert_pass_matches_oracle(n, pairs, lo, hi, headroom=0):
    """The packed pass over ``pairs`` keeps exactly the terms of the oracle
    pass over their ``pair_oracle`` factors, each packed at k =
    B.bit_length() + 1 + headroom, with B the product of those factors' L1
    norms, every one of which has lowest power q^0."""
    factors = oracle_factors(n, pairs)
    packed, k = packed_in_box(n, pairs, lo, hi, headroom)
    assert k == math.prod(map(l1_norm, factors)).bit_length() + 1 + headroom
    assert all(min(c.min_exp for c in f.terms.values()) == 0 for f in factors)
    unpacked = {e: unpack(v, k, 0) for e, v in packed.items()}
    assert unpacked == box_pass_oracle(factors, lo, hi).terms


@st.composite
def small_qpolys(draw):
    return QPoly(draw(st.integers(-2, 2)), draw(st.lists(st.integers(-5, 5), max_size=3)))


@st.composite
def pair_instances(draw, nmax=3):
    n = draw(st.integers(0, nmax))
    width = n + 1
    pairs = []
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True)))
        pairs.append(Pair(i, j, draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    target = tuple(draw(st.integers(-3, 3)) for _ in range(width))
    lo = tuple(t - draw(st.integers(0, 2)) for t in target)
    hi = tuple(t + draw(st.integers(0, 2)) for t in target)
    return n, pairs, target, lo, hi


def test_zero_coefficients_dropped():
    f = LaurentPoly(1, {(1, -1): ZERO, (0, 0): ONE})
    assert f.num_terms() == 1
    assert f.coeff((1, -1)) == ZERO


def test_known_binomial_product():
    # (1 - x0/x1)(1 - x1/x0) = 2 - x0/x1 - x1/x0
    f = LaurentPoly(1, {(0, 0): ONE, (1, -1): -ONE}) * LaurentPoly(1, {(0, 0): ONE, (-1, 1): -ONE})
    assert f.coeff((0, 0)) == q_power(0, 2)
    assert f.coeff((1, -1)) == q_power(0, -1)
    assert f.coeff((-1, 1)) == q_power(0, -1)
    assert f.num_terms() == 3


def test_ambient_mismatch_rejected():
    with pytest.raises(AmbientMismatchError):
        LaurentPoly.one(1) * LaurentPoly.one(2)
    with pytest.raises(AmbientMismatchError):
        LaurentPoly(1, {(0, 0, 0): ONE})
    with pytest.raises(AmbientMismatchError):
        LaurentPoly.one(2).coeff((0, 0))


def test_shifted_factorial_example():
    # (q x1/x0)(q^2 x1/x0): 1 - (q + q^2) x1/x0 + q^3 (x1/x0)^2
    f = shifted_factorial((-1, 1), 2, offset=1)
    assert f.coeff((0, 0)) == ONE
    assert f.coeff((-1, 1)) == QPoly(1, (-1, -1))
    assert f.coeff((-2, 2)) == q_power(3)
    assert shifted_factorial((1, -1), 0).num_terms() == 1


def shifted_factorial_oracle(z, m, offset=0):
    """(1 - q^offset x^z)(1 - q^(offset+1) x^z) ..., m factors, multiplied
    out one binomial at a time."""
    n = len(z) - 1
    result = LaurentPoly.one(n)
    for k in range(m):
        result = result * LaurentPoly(n, {(0,) * (n + 1): ONE, tuple(z): QPoly(offset + k, (-1,))})
    return result


@pytest.mark.parametrize("z", [(-1, 1), (1, -1), (0, 2, -1), (-2, 0, 1)])
@pytest.mark.parametrize("offset", [0, 1])
def test_shifted_factorial_matches_the_product(z, offset):
    """The q-binomial form equals the product of its binomials for every
    length m <= 16, on monomials with negative exponents too."""
    for m in range(17):
        assert shifted_factorial(z, m, offset) == shifted_factorial_oracle(z, m, offset), m


def test_shifted_factorial_of_the_constant_monomial():
    """With z = 0 every term lands on x^0 and they add up to the
    q-Pochhammer symbol (1 - q)...(1 - q^m)."""
    for m in range(6):
        assert shifted_factorial((0, 0), m, offset=1) == LaurentPoly(1, {(0, 0): q_pochhammer(m)})


def test_ct_of_factor_list_edges():
    """The empty pair list is the constant 1; a target out of a pair's
    reach, or of nonzero degree, reads zero."""
    assert ct_of_factor_list([], (0, 0)) == ONE
    assert ct_of_factor_list([], (1, 0)) == ZERO
    # (1 - x0/x1)(1 - q x1/x0) = (1 + q) - x0/x1 - q x1/x0
    pair = [Pair(0, 1, 1, 1)]
    assert ct_of_factor_list(pair, (0, 0)) == QPoly(0, (1, 1))
    assert ct_of_factor_list(pair, (-1, 1)) == q_power(1, -1)
    assert ct_of_factor_list(pair, (2, -2)) == ZERO
    assert ct_of_factor_list(pair, (1, 0)) == ZERO


@settings(max_examples=150)
@given(pair_instances())
def test_pruned_extraction_is_lossless(instance):
    """The pruned extractor agrees with full expansion on every coefficient:
    at a single target, and at every point of a box around it, where the
    box source holds exactly the expansion's terms inside the box.  On both
    boxes the packed pass gives what the ``QPoly`` pass gives."""
    n, pairs, target, lo, hi = instance
    full = expand_product(oracle_factors(n, pairs), n)
    assert ct_of_factor_list(pairs, target) == full.coeff(target)

    source = FactoredProduct(n, pairs, lo, hi)
    box = list(itertools.product(*(range(b, c + 1) for b, c in zip(lo, hi))))
    for e in box:
        assert source.coeff(e) == full.coeff(e)
    assert source.expanded == LaurentPoly(n, {e: full.coeff(e) for e in box})
    assert_pass_matches_oracle(n, pairs, lo, hi)
    assert_pass_matches_oracle(n, pairs, target, target)


def moves(n, pairs):
    """(most, least): per coordinate, the sums over the pairs of the most
    and of the least a pair moves it by, the product's range along it."""
    most, least = [0] * (n + 1), [0] * (n + 1)
    for i, j, a, b in pairs:
        most[i] += a
        most[j] += b
        least[i] -= b
        least[j] -= a
    return most, least


@st.composite
def perturbed_boxes(draw):
    """A ``pair_instances`` draw with n <= 4, whose box along one coordinate
    v is kept, inverted, or moved to start above or end below the product's
    range along x_v."""
    n, pairs, _, lo, hi = draw(pair_instances(nmax=4))
    lo, hi = list(lo), list(hi)
    v = draw(st.integers(0, n))
    most, least = moves(n, pairs)
    kind = draw(st.sampled_from(["kept", "inverted", "above", "below"]))
    if kind == "inverted":
        lo[v], hi[v] = hi[v] + draw(st.integers(1, 2)), lo[v]
    elif kind == "above":
        lo[v] = most[v] + draw(st.integers(1, 2))
        hi[v] = max(hi[v], lo[v])
    elif kind == "below":
        hi[v] = least[v] - draw(st.integers(1, 2))
        lo[v] = min(lo[v], hi[v])
    return n, pairs, tuple(lo), tuple(hi)


@settings(max_examples=200)
@given(perturbed_boxes())
def test_one_emptiness_test_decides_an_empty_pass(instance):
    """The pass finds no term exactly when, along some x_v, the box is
    inverted, starts above the product's range or ends below it: the test
    ``packed_in_box`` makes once, before the first pair.  Otherwise it
    keeps the terms of the ``QPoly`` pass, which prunes step by step."""
    n, pairs, lo, hi = instance
    most, least = moves(n, pairs)
    empty = any(b > t or b > m or t < s for b, t, m, s in zip(lo, hi, most, least))
    if empty:
        assert packed_in_box(n, pairs, lo, hi) == ({}, sum(p.a + p.b for p in pairs) + 2)
    assert_pass_matches_oracle(n, pairs, lo, hi)


def test_pass_state_does_not_grow_with_the_pairs():
    """At a = 0 over x_0..x_60 the q-Dyson product is 1, and each of its
    1,830 pairs is the constant 1.  The pass keeps constant state per pair,
    so its peak allocation stays below 2 MB; two tuples of width n + 1 per
    pair would take more than twice that."""
    n = 60
    pairs = q_dyson_factors(Instance(n, (0,) * (n + 1)))
    origin = (0,) * (n + 1)
    tracemalloc.start()
    try:
        packed = packed_in_box(n, pairs, origin, origin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packed == ({origin: 1}, 2)
    assert peak < 2_000_000, peak


# The sweeps of criteria 1, 3 and 7 of ``tests/test_acceptance.py``, then the
# benchmark's held-out grids.
SWEEP_ARGV = [
    ("sweep", "qdyson", "--n", "2", "--amax", "3"),
    ("sweep", "qdyson", "--n", "3", "--amax", "2"),
    ("sweep", "firstlayer", "--n", "3", "--amax", "2", "--m", "2"),
    *(("sweep", "main", "--n", str(n), "--amax", str(amax))
      for n, amax in ((1, 2), (2, 2), (3, 2), (4, 1))),
    *(argv for _, argv in GRID_SETS["heldout"]),
]


def sweep_passes(argv, monkeypatch):
    """The box passes of a sweep, as (n, pairs, lo, hi, headroom): over the
    sweep's own box (a cube for a layer sweep) and with its headroom.  The
    tasks are taken from the sweep without running them."""
    tasks = []

    def collect(orbits, context, jobs):
        tasks.extend((context, orbit) for orbit in orbits)
        return {a: [] for orbit in orbits for a in orbit}

    monkeypatch.setattr(sweeps, "_execute", collect)
    args = cli.build_parser().parse_args(argv)
    run_sweep(SweepConfig(identity=args.identity, n=args.n, amax=args.amax, mmax=args.m))
    assert tasks
    return [
        (n, q_dyson_factors(Instance(n, orbit[0])), lo, hi, headroom)
        for (_, n, _, (lo, hi, headroom)), orbit in tasks
    ]


@pytest.mark.parametrize("argv", SWEEP_ARGV, ids=" ".join)
def test_sweep_passes_match_the_oracle(argv, monkeypatch):
    """Every box pass a sweep makes keeps the terms and k of the ``QPoly``
    pass."""
    for n, pairs, lo, hi, headroom in sweep_passes(argv, monkeypatch):
        assert_pass_matches_oracle(n, pairs, lo, hi, headroom)


@pytest.mark.parametrize("argv", SWEEP_ARGV, ids=" ".join)
def test_sweep_passes_build_no_qpoly(argv, monkeypatch):
    """The box pass works on integers alone, its Gaussian rows included:
    with ``QPoly`` unable to be built, every pass a sweep makes still runs,
    and keeps the same terms and k."""
    passes = sweep_passes(argv, monkeypatch)
    want = [packed_in_box(*p) for p in passes]

    def refuse(self, *args, **kwargs):
        raise AssertionError("QPoly built in the box pass")

    monkeypatch.setattr(QPoly, "__init__", refuse)
    assert [packed_in_box(*p) for p in passes] == want


def test_pass_packs_only_usable_terms(monkeypatch):
    """At a = (80, 0, 0) the pair (x_1, x_2) gives the constant 1, and each
    of the other two pairs gives 81 terms, of which only r = 0 keeps the
    origin reachable: x_0 can only rise, so the first of them must leave
    it at 0, and the last must add 0 too.  So the pass builds three terms,
    not 163, each from the entry s = 0 of its row, and the constant term
    is still 1."""
    reads = []
    build_row = laurent.q_binomial_row

    class CountingRow(tuple):
        def __getitem__(self, s):
            reads.append(s)
            return tuple.__getitem__(self, s)

    monkeypatch.setattr(
        laurent, "q_binomial_row", lambda m, depth, k: CountingRow(build_row(m, depth, k))
    )
    origin = (0, 0, 0)
    assert q_dyson_source(Instance(2, (80, 0, 0)), origin, origin).coeff(origin) == ONE
    assert reads == [0, 0, 0]


def test_packing_bound_is_tight():
    """Coefficients equal in absolute value to a bound B, of both signs and
    up to 2^80 scale, unpack exactly at the k a pass takes for B, and B
    does not at one bit less.  A pair product that cancels to zero inside
    the box reads zero there, and the empty pair list is the constant 1."""
    for bound in (77, 1001, 2**40, 2**80 + 1):
        k = bound.bit_length() + 1
        for p in (q_power(0, bound), q_power(3, -bound), QPoly(0, (bound, 0, -bound, bound))):
            assert unpack(pack(p, k), k, 0) == p
        assert unpack(pack(q_power(0, bound), k - 1), k - 1, 0) != q_power(0, bound)

    # (1 - q x1/x0)(1 - q x2/x0)(1 - x1/x2): the two x1/x0 terms cancel
    cancelling = [Pair(0, 1, 0, 1), Pair(0, 2, 0, 1), Pair(1, 2, 1, 0)]
    box = (-2, -1, -1), (0, 2, 1)
    inside = FactoredProduct(2, cancelling, *box)
    assert (-1, 1, 0) not in inside.packed
    assert inside.coeff((-1, 1, 0)) == ZERO
    assert inside.expanded == box_pass_oracle(oracle_factors(2, cancelling), *box)
    assert inside.expanded == LaurentPoly(2, {
        e: c for e, c in expand_product(oracle_factors(2, cancelling), 2).terms.items()
        if all(b <= x <= t for b, t, x in zip(*box, e))
    })

    assert FactoredProduct(1, [], (-1, -1), (1, 1)).expanded == LaurentPoly.one(1)
    assert FactoredProduct(1, [], (1, -1), (1, 1)).expanded.terms == {}


def test_packed_equal_shifts_the_left_side():
    """packed_equal(x, y, shift, k) is q^shift X = Y, for a shift of either
    sign, and a shift one off either way compares unequal."""
    k = 8
    x = QPoly(0, (3, -5, 7))
    for shift in (-2, 0, 3):
        y = x.shifted(shift)
        low = min(shift, 0)
        px, py = pack(x.shifted(-low), k), pack(y.shifted(-low), k)
        assert packed_equal(px, py, shift, k)
        assert not packed_equal(px, py, shift + 1, k)
        assert not packed_equal(px, py, shift - 1, k)


@pytest.mark.parametrize(
    "name, m",
    [("main", 0), ("main", 3), ("firstlayer", 1), ("firstlayer", 2), ("firstlayer", 3),
     ("kadell", 2)],
)
def test_headroom_bound_is_tight(name, m):
    """Packed sides whose coefficients reach the bounds the check's headroom
    rule is derived from, for a product bound B as large as k allows: L1
    norms 2B on both sides for ``main``, and 2^D B and (2^m - 1) 2^D B with
    D = 2^m - 1 for ``firstlayer``.  With the row's headroom the two
    bounds add up to less than 2^k, so no two unequal sides compare equal;
    a pair that reaches them does compare equal with one bit less.
    ``kadell`` unpacks a signed sum of coefficients at distinct monomials,
    whose L1 norm is at most B: with its headroom 0 a sum that reaches B,
    of either sign, unpacks exactly, and with one bit less it does not."""
    layout = compile_layout(m, tuple(range(m)), (m,) * m)
    headroom = IDENTITIES[name].reads(layout)[2]
    bound = 2**20 - 1  # the largest B with 2^(k - 1 - headroom) > B, k - headroom = 21
    k = bound.bit_length() + 1 + headroom
    if name == "kadell":
        parts = [QPoly(-3, (bound - 4,)), QPoly(-3, (-4,))]  # L1 norm B together
        for signs in ((1, -1), (-1, 1)):
            want = q_power(-3, signs[0] * bound)
            for bits, exact in ((k, True), (k - 1, False)):
                total = sum(sign * pack(part.shifted(3), bits) for sign, part in zip(signs, parts))
                assert (unpack(total, bits, -3) == want) is exact
        return
    d = 2**m - 1
    lx, ly = (2 * bound, 2 * bound) if name == "main" else (2**d * bound, d * 2**d * bound)
    assert lx + ly < 2**k
    x0 = min(lx, 2 ** (k - 1))
    x, y = QPoly(0, (x0,)), QPoly(0, (x0 - 2 ** (k - 1), 1))  # unequal, equal at 2^(k - 1)
    assert sum(map(abs, x.coeffs)) <= lx and sum(map(abs, y.coeffs)) <= ly
    assert packed_equal(pack(x, k - 1), pack(y, k - 1), 0, k - 1)
    assert not packed_equal(pack(x, k), pack(y, k), 0, k)
    if name == "main":  # a failing check unpacks its left side
        for c in (lx, -lx):
            assert unpack(pack(q_power(0, c), k), k, -3) == q_power(-3, c)


def test_read_outside_box_raises():
    """A coefficient outside the box was never computed: reading it raises
    instead of returning zero, while a zero inside the box reads as zero."""
    pairs = [Pair(0, 1, 1, 0), Pair(0, 1, 0, 1)]
    # the product (1 - x0/x1)(1 - q x1/x0) is (1 + q) - x0/x1 - q x1/x0
    source = FactoredProduct(1, pairs, (-1, -1), (1, 0))
    assert source.coeff((1, -1)) == q_power(0, -1)
    assert source.coeff((0, 0)) == QPoly(0, (1, 1))
    assert source.coeff((1, 0)) == ZERO
    for target in [(-1, 1), (2, -2), (0, 1)]:
        with pytest.raises(ValueError):
            source.coeff(target)
    with pytest.raises(ValueError):
        ct_times(source, LaurentPoly(1, {(1, -1): ONE}))  # reads x^(-1, 1)


def test_a_read_of_another_width_raises():
    """A box or target of another width than the source's x_0..x_n raises
    ``AmbientMismatchError``, a ``ValueError``, though every exponent it
    has lies inside the box: comparing coordinatewise with ``map`` alone
    would stop at the shorter tuple, and ``coeff((0, 0, 0))`` on a source
    over x_0..x_3 would read 0."""
    inst = Instance(3, (1, 1, 1, 1))
    source = q_dyson_source(inst, (-1,) * 4, (1,) * 4)
    message = "does not fit 4 variables"
    for target in ((0, 0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(AmbientMismatchError, match=message):
            source.coeff(target)
    for box in (((0, 0, 0), (0, 0, 0)), ((0,) * 4, (0, 0, 0)), ((0, 0, 0), (0,) * 4)):
        with pytest.raises(AmbientMismatchError, match=message):
            source.reads(*box)
    assert source.coeff((0,) * 4) == source.expanded.coeff((0,) * 4) != ZERO


def test_reads_just_outside_the_box_raise():
    """A read one step outside the box, along any coordinate and on either
    side, raises the same ``ValueError``, before and after every key inside
    the box has been read, and on a rotated product too."""
    n, lo, hi = 2, (-2, -2, -2), (1, 1, 1)
    # (1 - x0/x1)(1 - x1/x2)(1 - q x2/x0)
    pairs = [Pair(0, 1, 1, 0), Pair(1, 2, 1, 0), Pair(0, 2, 0, 1)]
    source = FactoredProduct(n, pairs, lo, hi)
    outside = []
    for v in range(n + 1):
        for step, edge in ((-1, lo), (1, hi)):
            key = [0] * (n + 1)
            key[v] = edge[v] + step
            outside.append(tuple(key))
    message = r"outside the box \(-2, -2, -2\)\.\.\(1, 1, 1\)"
    inside = list(itertools.product(range(-2, 2), repeat=n + 1))
    for product in (source, source, FactoredProduct(n, pairs, lo, hi).rotated()):
        for key in outside:
            with pytest.raises(ValueError, match=message):
                product.coeff(key)
        for key in inside:  # the second round reads every key again
            assert unpack(product.packed.get(key, 0), product.k, 0) == product.coeff(key)


def test_ct_times_matches_direct_multiplication():
    pairs = [Pair(0, 1, 1, 0), Pair(1, 2, 0, 1)]
    src = FactoredProduct(2, pairs, (-1, 0, 0), (0, 0, 1))
    multiplier = LaurentPoly(2, {(1, 0, -1): q_power(2), (0, 0, 0): ONE})
    direct = (expand_product(oracle_factors(2, pairs), 2) * multiplier).coeff((0, 0, 0))
    assert ct_times(src, multiplier) == direct


def test_bad_pairs_raise_before_any_work(monkeypatch):
    """A pair with an index outside 0..n, with i >= j or with a negative
    length, and a box of the wrong width, raise ``ValueError`` before the
    pass builds a row of Gaussian binomials, wherever they stand in the
    list."""
    rows = []
    monkeypatch.setattr(laurent, "q_binomial_row", lambda *args: rows.append(args))
    good = Pair(0, 1, 2, 2)
    for bad in (Pair(0, 3, 1, 1), Pair(-1, 1, 1, 1), Pair(1, 1, 1, 1), Pair(2, 1, 1, 1),
                Pair(0, 1, -1, 0), Pair(0, 1, 0, -1)):
        for pairs in ([bad], [good, bad]):
            with pytest.raises(ValueError, match="no pair factor"):
                FactoredProduct(2, pairs, (-1,) * 3, (1,) * 3)
            with pytest.raises(ValueError, match="no pair factor"):
                ct_of_factor_list(pairs, (0, 0, 0))
    with pytest.raises(AmbientMismatchError):
        FactoredProduct(2, [good], (0, 0), (0, 0))
    assert rows == []


@pytest.mark.parametrize("argv", [
    *(("verify", name, "--n", "2", "--a", "1,2,1", *layer) for name, layer in (
        ("dyson", ()), ("qdyson", ()), ("firstlayer", ("--I", "0", "--J", "1")),
        ("kadell", ("--I", "0,2", "--J", "1,1")), ("main", ("--I", "1", "--J", "0")),
    )),
    *(("sweep", name, "--n", "2", "--amax", "1") for name in ("qdyson", "firstlayer", "kadell", "main")),
    ("counterexample",),
], ids=" ".join)
def test_the_runtime_builds_no_laurent_poly(argv, monkeypatch, capsys):
    """Every identity's check, sweep and the counterexample run on pairs and
    packed integers alone: with ``LaurentPoly`` unable to be built, each
    exits with its usual code."""
    want = cli.main(list(argv))

    def refuse(self, *args, **kwargs):
        raise AssertionError("LaurentPoly built at run time")

    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    assert cli.main(list(argv)) == want == 0
    capsys.readouterr()


# -- rotation ------------------------------------------------------------------


def test_pi_action_basic():
    # x0/x1 -> q * x1/x0 over two variables
    f = LaurentPoly(1, {(1, -1): ONE})
    g = pi_action(f)
    assert g == LaurentPoly(1, {(-1, 1): q_power(1)})


def test_pi_action_wrap_rule():
    # single wrap divides by q once per unit of exponent
    f = LaurentPoly(2, {(0, 0, 2): ONE})
    assert pi_action(f) == LaurentPoly(2, {(2, 0, 0): q_power(-2)})
    assert pi_action(f, 0) == f


@st.composite
def balanced_polys(draw, n):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        head = [draw(st.integers(-3, 3)) for _ in range(n)]
        exps = tuple(head) + (-sum(head),)
        terms[exps] = draw(small_qpolys())
    return LaurentPoly(n, terms)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), balanced_polys(n))))
def test_rotation_order_on_degree_zero(pair):
    """Rotating n+1 times is the identity on homogeneous degree-0 input."""
    n, f = pair
    assert pi_action(f, n + 1) == f


def test_homogeneous_degree():
    assert homogeneous_degree(LaurentPoly(1, {(2, -2): ONE})) == 0
    assert homogeneous_degree(LaurentPoly(1, {(2, 1): ONE})) == 3
    mixed = LaurentPoly(1, {(1, 0): ONE, (1, 1): ONE})
    assert homogeneous_degree(mixed) is None
    with pytest.raises(ValueError):
        homogeneous_degree(LaurentPoly(1))


def test_eval_q1():
    f = LaurentPoly(1, {(1, -1): QPoly(0, (1, -1))})  # coefficient 1 - q
    g = eval_q1(f)
    assert g.terms == {}

