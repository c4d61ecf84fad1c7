"""Dyson products: constructors, constant terms, q = 1 specialisation.

``classical_source`` builds the classical product from repeated binomials.
The program reads classical values off the q-product at q = 1 instead, so this
is the independent oracle the tests compare those values with."""

import itertools

import pytest

from qdyson.dyson import (
    Instance,
    dyson_factors,
    q_dyson_factors,
    q_dyson_source,
    verify_dyson,
    verify_q_dyson,
)
from qdyson.laurent import FactoredProduct, ct_of_factor_list, homogeneous_degree
from qdyson.qpoly import QPoly, QRat, multinomial, q_multinomial


def classical_source(inst, expand=False):
    """The classical Dyson product, built from ``dyson_factors``."""
    return FactoredProduct(inst.n, dyson_factors(inst), expand=expand)


def test_spec_validation():
    """Checks on n and a; the layer checks are ``TestLayerSpec::test_invalid``
    in ``test_firstlayer``.  An a whose length does not match n is rejected
    with or without a layer."""
    for n, a, I, J in [
        (1, (1,), (), ()),
        (1, (1, -1), (), ()),
        (-1, (), (), ()),
        (3, (1, 1), (0,), (1,)),
        (2, (1, 1, 1, 1), (0,), (1,)),
    ]:
        with pytest.raises(ValueError):
            Instance(n, a, I, J)
    assert Instance(2, (1, 0, 2)).total == 3


def test_factor_counts():
    inst = Instance(2, (2, 1, 0))
    assert len(q_dyson_factors(inst)) == 6  # two per unordered pair
    # classical: a_i binomials for each ordered pair (i, j)
    assert len(dyson_factors(inst)) == 2 * 2 + 1 * 2


def test_constant_terms_small():
    values = {
        (1, 1): QPoly(0, (1, 1)),
        (2, 1): QPoly(0, (1, 1, 1)),
        (1, 1, 1): QPoly(0, (1, 2, 2, 1)),
        (2, 1, 1): QPoly(0, (1, 2, 3, 3, 2, 1)),
    }
    for a, expected in values.items():
        inst = Instance(len(a) - 1, a)
        assert q_dyson_source(inst).constant_term() == expected
        assert QRat(expected) == q_multinomial(a)


def test_empty_exponents_give_one():
    inst = Instance(2, (0, 0, 0))
    assert q_dyson_source(inst).constant_term() == QPoly(0, (1,))
    assert classical_source(inst).constant_term() == QPoly(0, (1,))


def test_single_variable_product_is_empty():
    inst = Instance(0, (3,))
    assert q_dyson_factors(inst) == []
    assert verify_dyson(inst).holds
    assert verify_q_dyson(inst).holds


def test_classical_ct_is_multinomial():
    for n in (1, 2):
        for a in itertools.product(range(3), repeat=n + 1):
            inst = Instance(n, a)
            ct = classical_source(inst).constant_term()
            assert ct == QPoly(0, (multinomial(a),)), a


def test_classical_ct_symmetric_in_a():
    for a in itertools.product(range(3), repeat=3):
        base = classical_source(Instance(2, a)).constant_term()
        for perm in itertools.permutations(a):
            assert classical_source(Instance(2, perm)).constant_term() == base


def test_products_are_homogeneous_degree_zero():
    for a in [(1, 1), (2, 1, 1), (1, 0, 2)]:
        inst = Instance(len(a) - 1, a)
        expanded = q_dyson_source(inst, expand=True).expanded
        assert homogeneous_degree(expanded) == 0


def test_q1_specialisation_matches_multinomial():
    """Setting q = 1 factor by factor turns the q-analog into the classical
    product, so the constant term drops to the plain multinomial."""
    grids = [(1, 3), (2, 3), (3, 2)]
    for n, amax_plus_one in grids:
        for a in itertools.product(range(amax_plus_one), repeat=n + 1):
            inst = Instance(n, a)
            factors = [f.eval_q1() for f in q_dyson_factors(inst)]
            ct = ct_of_factor_list(factors, (0,) * (n + 1))
            assert ct.as_int() == multinomial(a), (n, a)


def test_verify_reports():
    rep = verify_q_dyson(Instance(2, (1, 1, 1)))
    assert rep.holds
    assert rep.identity == "qdyson"
    assert rep.lhs == "1 + 2*q + 2*q^2 + 1*q^3"
    assert rep.lhs == rep.rhs
    rep = verify_dyson(Instance(2, (2, 1, 1)))
    assert rep.holds and rep.lhs == "12"

