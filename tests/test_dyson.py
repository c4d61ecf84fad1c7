"""Dyson products: constructors, constant terms, q = 1 specialisation.

``classical_product`` expands the classical product from repeated binomials,
without pruning.  The program reads classical values off the pruned q-product
at q = 1 instead, so this is the independent oracle the tests compare those
values with; ``ct_times`` reads a corrected constant term off it, and
``correction_factors`` gives the correction binomials whose expanded product
the program reads as the signed layer monomials of a compiled layout.
``first_layer_target``, ``layer_sum``, ``layer_box`` and ``shared_source``
are the tests' readings of a layer, each the oracle for a piece of
``Layout``, and ``compiled`` compiles the layout of an instance.
``as_int``, ``eval_q1`` and ``homogeneous_degree`` are small readings of a
polynomial that only the tests take.  ``shifted_factorial`` writes out one
q-shifted factorial, and ``pair_oracle`` the factor of a ``Pair`` as the
product of its two, the oracle for the terms the box pass expands a pair
into."""

import functools
import itertools
import re

import pytest

from qdyson import qpoly
from qdyson.dyson import (
    Instance,
    _unit,
    dyson_factors,
    pair_factors,
    q_dyson_factors,
    q_dyson_source,
    verify_q_dyson,
)
from qdyson.laurent import FactoredProduct, LaurentPoly, Pair, ct_of_factor_list, expand_product
from qdyson.firstlayer import first_layer_reads
from qdyson.paired import compile_layout, paired_reads
from qdyson.qpoly import ONE, ZERO, QPoly, QRat, multinomial, q_multinomial, q_multinomial_poly
from qdyson.sweeps import a_grid, verify


def as_int(p):
    """A ``QPoly`` as an integer; raises unless it is constant."""
    if not p.coeffs:
        return 0
    if p.min_exp == 0 and len(p.coeffs) == 1:
        return p.coeffs[0]
    raise ValueError(f"not a constant: {p.render()}")


def eval_q1(f):
    """A ``LaurentPoly`` with q = 1 substituted in every coefficient."""
    return LaurentPoly(f.n, {exps: QPoly(0, (c.at_q1(),)) for exps, c in f.terms.items()})


def homogeneous_degree(f):
    """Total degree of a ``LaurentPoly`` if every monomial has the same
    one, else None.  The zero polynomial has no degree and raises
    ``ValueError``."""
    if not f.terms:
        raise ValueError("zero polynomial has no homogeneous degree")
    degrees = {sum(exps) for exps in f.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def shifted_factorial(z, m, offset=0):
    """Product (1 - q^offset * x^z)(1 - q^(offset+1) * x^z) ... , m factors.

    ``z`` is an exponent vector; ``offset=0`` gives the plain q-shifted
    factorial of the monomial, ``offset=1`` starts at q.  Written out by the
    q-binomial theorem: the coefficient of x^(r z) is

        (-1)^r q^(r * offset + r(r-1)/2) [m choose r]_q.

    The terms of a zero z all land on x^0 and add up.  A q-Dyson pair
    multiplies two of these, (x_i/x_j; q)_a and (q x_j/x_i; q)_b, which
    ``pair_oracle`` does."""
    if m < 0:
        raise ValueError("negative length")
    terms = {}
    for r in range(m + 1):
        key = tuple(r * e for e in z)
        term = q_multinomial_poly((r, m - r)).shifted(r * offset + r * (r - 1) // 2)
        terms[key] = terms.get(key, ZERO) + (-term if r % 2 else term)
    return LaurentPoly(len(z) - 1, terms)


@functools.cache
def pair_oracle(n, pair):
    """The factor of a ``Pair`` over x_0..x_n, multiplied out from its two
    q-shifted factorials (x_i/x_j; q)_a (q x_j/x_i; q)_b, independently of
    the Jacobi expansion the box pass uses."""
    z = _unit(n, pair.i, pair.j)
    return shifted_factorial(z, pair.a) * shifted_factorial(tuple(-e for e in z), pair.b, offset=1)


def oracle_factors(n, pairs):
    """``pair_oracle`` of each pair."""
    return [pair_oracle(n, pair) for pair in pairs]


def whole_box(n, pairs):
    """A box that holds every term of the product of ``pairs``: each pair
    moves a coordinate by at most a + b either way."""
    reach = sum(pair.a + pair.b for pair in pairs)
    return (-reach,) * (n + 1), (reach,) * (n + 1)


def classical_product(inst):
    """The classical Dyson product, expanded outright from ``dyson_factors``."""
    return expand_product(dyson_factors(inst), inst.n)


def correction_factors(inst):
    """Kadell's correction binomials (1 - x_{j_k}/x_{i_k}), one per pair.
    Multiplied out with ``expand_product`` they are the oracle for
    ``layer_sum`` with the sign (-1)^|S|."""
    n = inst.n
    return [
        LaurentPoly(n, {(0,) * (n + 1): ONE, _unit(n, j, i): -ONE}) for i, j in inst.pairs
    ]


def ct_times(product, multiplier):
    """Constant term of multiplier * product, for an expanded product or a
    ``FactoredProduct``: each term c * x^e of the multiplier contributes
    c * (coefficient of x^-e)."""
    return sum(
        (c * product.coeff(tuple(-e for e in exps)) for exps, c in multiplier.terms.items()),
        ZERO,
    )


def compiled(inst):
    """The compiled layout of an instance's layer."""
    return compile_layout(inst.n, inst.I, inst.J)


def layer_sum(inst, weight):
    """The sum over all subsets S of I (the empty one included) of
    weight(S) * x_{J(S)}/x_S."""
    return LaurentPoly(inst.n, {
        inst.layer_monomial(S): weight(S)
        for size in range(inst.m + 1)
        for S in itertools.combinations(inst.I, size)
    })


def first_layer_target(inst):
    """Exponent vector whose coefficient in the q-Dyson product is the
    first-layer coefficient: the flipped layer monomial of S = I."""
    return tuple(-e for e in inst.layer_monomial(inst.I))


def layer_box(inst):
    """(lo, hi) of the box spanned by the origin and the first-layer target;
    the origin for the empty layer."""
    target = first_layer_target(inst)
    return tuple(min(t, 0) for t in target), tuple(max(t, 0) for t in target)


def shared_source(insts):
    """The q-Dyson product of instances sharing n and a, over the bounding
    box of their layer boxes, as a sweep reads it, packed with the headroom
    that the read rules of the first-layer and paired checks of every
    instance name; an empty layer has no first layer."""
    los, his = zip(*map(layer_box, insts))
    layouts = list(map(compiled, insts))
    headroom = max(
        [paired_reads(lay)[2] for lay in layouts]
        + [first_layer_reads(lay)[2] for lay in layouts if lay.I]
    )
    return q_dyson_source(
        insts[0], tuple(map(min, zip(*los))), tuple(map(max, zip(*his))), headroom
    )


def test_spec_validation():
    """Each rule of ``Instance`` on one minimal bad input, with its message;
    ``TestLayerSpec::test_invalid`` in ``test_firstlayer`` has more layers.
    An a whose length does not match n is rejected with or without a layer.
    An index out of range is named, and of two the first in I + J is, which
    is not the smallest here."""
    for n, a, I, J, message in [
        (-1, (), (), (), "need at least one variable"),
        (1, (1,), (), (), "expected 2 exponents, got 1"),
        (3, (1, 1), (0,), (1,), "expected 4 exponents, got 2"),
        (2, (1, 1, 1, 1), (0,), (1,), "expected 3 exponents, got 4"),
        (1, (1, -1), (), (), "exponents must be nonnegative"),
        (2, (1, 1, 1), (0, 1), (2,), "index lists must have equal length"),
        (1, (1, 1), (0, 1), (1, 0), "at most n indices may be selected"),
        (2, (1, 1, 1), (0,), (5,), "index 5 out of range 0..2"),
        (3, (1, 1, 1, 1), (0, 7), (-2, 1), "index 7 out of range 0..3"),
        (3, (1, 1, 1, 1), (-1,), (1,), "index -1 out of range 0..3"),
        (3, (1, 1, 1, 1), (2, 0), (1, 3), "I must be strictly increasing"),
        (3, (1, 1, 1, 1), (1, 1), (0, 2), "I must be strictly increasing"),
        (3, (1, 1, 1, 1), (0, 1), (3, 2), "J must be weakly increasing"),
        (3, (1, 1, 1, 1), (0, 1), (1, 2), "I and J must be disjoint"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Instance(n, a, I, J)
    assert Instance(2, (1, 0, 2)).total == 3
    assert Instance(3, [1, 0, 2, 0], [0, 2], [1, 1]).J == (1, 1)


@pytest.mark.parametrize("n, amax", [(3, 2), (4, 1)])
def test_rotation_is_a_fresh_pass(n, amax):
    """The orbit oracle: for every a of the grid, the pass of D(a) over the
    cube [-n, 1]^(n+1), rotated one step at a time n + 2 times, is after
    r steps the pass of D(rot^r a) over that cube, packed int for packed
    int, with the same k: once round the orbit and one step on."""
    cube = (-n,) * (n + 1), (1,) * (n + 1)
    fresh = {a: q_dyson_source(Instance(n, a), *cube, 3) for a in a_grid(n, amax)}
    for a, member in fresh.items():
        b = a
        for _ in range(n + 2):
            member, b = member.rotated(), b[-1:] + b[:-1]
            want = fresh[b]
            assert (member.packed, member.k) == (want.packed, want.k)
            assert (member.lo, member.hi, member.headroom) == cube + (3,)


def test_rotation_needs_a_cube():
    """Rotating a box that is not a cube raises; on a cube, n + 1 steps
    give back the product's packed coefficients and k, and every step
    keeps the constant term."""
    inst = Instance(2, (1, 2, 0))
    box = q_dyson_source(inst, (-2, -1, -2), (1, 1, 1))
    with pytest.raises(ValueError, match="not a cube"):
        box.rotated()
    cube = member = q_dyson_source(inst, (-2,) * 3, (1,) * 3)
    for _ in range(3):
        member = member.rotated()
        assert member.coeff((0, 0, 0)) == cube.coeff((0, 0, 0))
    assert member is not cube and (member.packed, member.k) == (cube.packed, cube.k)


def test_factor_counts():
    inst = Instance(2, (2, 1, 0))
    assert len(q_dyson_factors(inst)) == 3  # one per unordered pair
    # classical: a_i binomials for each ordered pair (i, j)
    assert len(dyson_factors(inst)) == 2 * 2 + 1 * 2


def test_pair_factor_is_the_product_of_its_two_factorials():
    """For every a, b <= 4 the pair of (x_0/x_1; q)_a (q x_1/x_0; q)_b
    expands, in the box pass, to the two factorials multiplied out, with
    a + b + 1 terms; their L1 norm is 2^(a+b), the product of theirs, and
    their lowest power is q^0, the two facts the pass's k rests on."""
    for a, b in itertools.product(range(5), repeat=2):
        (pair,) = pair_factors(1, lambda i, j: a if i == 0 else b)
        assert pair == Pair(0, 1, a, b)
        oracle = shifted_factorial((1, -1), a) * shifted_factorial((-1, 1), b, offset=1)
        assert FactoredProduct(1, [pair], *whole_box(1, [pair])).expanded == oracle
        assert pair.num_terms() == oracle.num_terms() == a + b + 1
        assert sum(abs(c) for coeff in oracle.terms.values() for c in coeff.coeffs) == 2 ** (a + b)
        assert min(coeff.min_exp for coeff in oracle.terms.values()) == 0


def test_large_factor_builds_one_row(monkeypatch):
    """A row of Gaussian binomials is built only as deep as the pass reads
    it, by [m choose s]_q = [m choose m - s]_q.  At a = (160, 0, 0) the
    origin reads only [160 choose 160]_q = 1 of both long pairs, so the
    pass makes no integer step ``_times_ratio``.  At a = (80, 80, 0) the
    cube [-1, 1]^3 reads the middle [160 choose 80]_q of the pair
    (x_0, x_1), from one row of at most 80 steps, where the full row takes
    160 and a chain per binomial about 25,000."""
    steps = []
    times_ratio = qpoly._times_ratio

    def counting(v, e, i, k):
        steps.append(e + i - 1)  # step s of row m is _times_ratio(v, m - s, s + 1, k)
        return times_ratio(v, e, i, k)

    middle = q_multinomial_poly((80, 80, 0))
    monkeypatch.setattr(qpoly, "_times_ratio", counting)
    inst = Instance(2, (160, 0, 0))
    assert [pair.num_terms() for pair in q_dyson_factors(inst)] == [161, 161, 1]
    assert q_dyson_source(inst, (0,) * 3, (0,) * 3).coeff((0,) * 3) == ONE
    assert steps == []
    inst = Instance(2, (80, 80, 0))
    assert q_dyson_source(inst, (-1,) * 3, (1,) * 3).coeff((0,) * 3) == middle
    assert 0 < steps.count(160) <= 80


def test_constant_terms_small():
    values = {
        (1, 1): QPoly(0, (1, 1)),
        (2, 1): QPoly(0, (1, 1, 1)),
        (1, 1, 1): QPoly(0, (1, 2, 2, 1)),
        (2, 1, 1): QPoly(0, (1, 2, 3, 3, 2, 1)),
    }
    for a, expected in values.items():
        inst = Instance(len(a) - 1, a)
        assert q_dyson_source(inst, *layer_box(inst)).coeff((0,) * len(a)) == expected
        assert QRat(expected) == q_multinomial(a)


def test_empty_exponents_give_one():
    inst = Instance(2, (0, 0, 0))
    assert q_dyson_source(inst, *layer_box(inst)).coeff((0, 0, 0)) == QPoly(0, (1,))
    assert classical_product(inst).coeff((0, 0, 0)) == QPoly(0, (1,))


def test_single_variable_product_is_empty():
    inst = Instance(0, (3,))
    assert q_dyson_factors(inst) == []
    assert verify("dyson", inst.n, inst.a).holds
    assert verify("qdyson", inst.n, inst.a).holds


@pytest.mark.parametrize("n, a", [(5, (2,) * 6), (6, (1,) * 7)])
def test_q_dyson_at_scale(n, a):
    """The largest q-Dyson constant terms the gate checks: n = 5 with
    a = (2,)*6 and n = 6 with a = (1,)*7."""
    assert verify("qdyson", n, a).holds


def test_classical_ct_is_multinomial():
    for n in (1, 2):
        for a in itertools.product(range(3), repeat=n + 1):
            inst = Instance(n, a)
            ct = classical_product(inst).coeff((0,) * (n + 1))
            assert ct == QPoly(0, (multinomial(a),)), a


def test_classical_ct_symmetric_in_a():
    for a in itertools.product(range(3), repeat=3):
        base = classical_product(Instance(2, a)).coeff((0, 0, 0))
        for perm in itertools.permutations(a):
            assert classical_product(Instance(2, perm)).coeff((0, 0, 0)) == base


def test_products_are_homogeneous_degree_zero():
    for a in [(1, 1), (2, 1, 1), (1, 0, 2)]:
        inst = Instance(len(a) - 1, a)
        pairs = q_dyson_factors(inst)
        product = FactoredProduct(inst.n, pairs, *whole_box(inst.n, pairs)).expanded
        assert product == expand_product(oracle_factors(inst.n, pairs), inst.n)
        assert homogeneous_degree(product) == 0


def test_q1_specialisation_matches_multinomial():
    """Setting q = 1 factor by factor turns the q-analog into the classical
    product, so the constant term drops to the plain multinomial."""
    grids = [(1, 3), (2, 3), (3, 2)]
    for n, amax_plus_one in grids:
        for a in itertools.product(range(amax_plus_one), repeat=n + 1):
            inst = Instance(n, a)
            pairs, origin = q_dyson_factors(inst), (0,) * (n + 1)
            factors = [eval_q1(f) for f in oracle_factors(n, pairs)]
            assert as_int(expand_product(factors, n).coeff(origin)) == multinomial(a), (n, a)
            assert ct_of_factor_list(pairs, origin).at_q1() == multinomial(a), (n, a)


def test_failing_q_dyson_check_renders_the_q_multinomial():
    """Read off the product of another a, relabelled with the check's a,
    which a check reads off its source, the packed comparison fails, and
    the report puts the product's own constant term on the left and the
    q-multinomial of the check's a on the right."""
    for n, a in [(1, (1, 2)), (2, (1, 1, 1)), (2, (0, 2, 1)), (3, (1, 0, 2, 1))]:
        other = (a[0] + 1,) + a[1:]
        layout = compile_layout(n, (), ())
        wrong = q_dyson_source(Instance(n, other), *layout.box)
        wrong.a = a
        rep = verify_q_dyson(layout, wrong)
        assert not rep.holds, a
        assert rep.lhs == q_multinomial_poly(other).render(), a
        assert rep.rhs == q_multinomial_poly(a).render() != rep.lhs, a


def test_verify_reports():
    rep = verify("qdyson", 2, (1, 1, 1))
    assert rep.holds
    assert rep.identity == "qdyson"
    assert rep.lhs == "1 + 2*q + 2*q^2 + 1*q^3"
    assert rep.lhs == rep.rhs
    rep = verify("dyson", 2, (2, 1, 1))
    assert rep.holds and rep.lhs == "12"

