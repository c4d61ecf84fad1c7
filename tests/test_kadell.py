"""Corrected Dyson constant terms and the failure of the q-modification."""

import itertools

import pytest

from qdyson.dyson import Instance, q_dyson_source
from qdyson.kadell import (
    corrected_ct,
    corrected_ct_closed,
    corrected_dyson_rhs,
    correction_factors,
    modified_q_product,
    reproduce_counterexample,
    verify_kadell,
    verify_q_kadell,
)
from qdyson.laurent import ct_of_factor_list, expand_product
from qdyson.qpoly import QPoly, q_multinomial_poly
from tests.test_dyson import classical_source
from tests.test_firstlayer import all_layouts


def test_positional_pairs():
    assert Instance(3, (1, 1, 1, 1), (0, 2), (1, 3)).pairs == ((0, 1), (2, 3))
    assert Instance(2, (1, 1, 1)).pairs == ()


def test_correction_factors_render():
    (factor,) = correction_factors(Instance(2, (1, 1, 1), (0,), (1,)))
    assert factor.render() == "(-1)*x0^-1*x1^1 + (1)"


def test_corrected_ct_known_values():
    a = (1, 1, 1)
    assert corrected_ct(Instance(2, a, (0,), (1,))) == 8
    assert corrected_ct(Instance(2, a, (0, 1), (2, 2))) == 12
    assert corrected_ct_closed(Instance(2, a, (0,), (1,))) == 8
    assert corrected_ct_closed(Instance(2, a, (0, 1), (2, 2))) == 12


def test_closed_form_rejects_empty_layer():
    with pytest.raises(ValueError):
        corrected_ct_closed(Instance(2, (1, 1, 1)))


def test_empty_layer_reduces_to_plain_product():
    # no correction factors: the scaled identity becomes (1+a) * CT = (1+a) * mult
    inst = Instance(2, (2, 1, 0))
    rep = verify_kadell(inst)
    assert rep.lhs == rep.rhs == str(corrected_dyson_rhs(inst))
    assert rep.holds and "ct_closed" not in rep.params["extra"]


def test_identity_small_grid():
    """corrected_ct reads its value off the q-product at q = 1; it must equal
    the corrected constant term of the binomial product, and satisfy the
    identity."""
    for n in (1, 2, 3):
        for a in itertools.product(range(3 if n < 3 else 2), repeat=n + 1):
            source = q_dyson_source(Instance(n, a), expand=True)
            classical = classical_source(Instance(n, a), expand=True)
            for inst in all_layouts(n, a, mmin=0):
                ct = corrected_ct(inst, source)
                correction = expand_product(correction_factors(inst), n)
                assert ct == classical.ct_times(correction).as_int(), inst
                scale = 1 + sum(a) - sum(a[i] for i in inst.I)
                assert scale * ct == corrected_dyson_rhs(inst), inst
                if inst.m > 0:
                    assert corrected_ct_closed(inst) == ct, inst


def test_verify_report_fields():
    rep = verify_kadell(Instance(2, (1, 1, 1), (0,), (1,)))
    assert rep.holds
    assert rep.identity == "kadell"
    assert rep.lhs == "24" and rep.rhs == "24"
    assert rep.params["extra"] == {"ct": "8", "ct_closed": "8"}


class TestQModification:
    def test_factor_lengths_without_pairs_match_plain_product(self):
        inst = Instance(2, (1, 2, 1))
        ct = ct_of_factor_list(modified_q_product(inst), (0, 0, 0))
        assert ct == q_multinomial_poly(inst.a)

    def test_holds_for_empty_layer(self):
        rep = verify_q_kadell(Instance(2, (1, 1, 1)))
        assert rep.holds
        assert rep.identity == "qkadell"

    def test_fails_on_pinned_instance(self):
        rep = verify_q_kadell(Instance(2, (1, 1, 1), (0,), (1,)))
        assert not rep.holds

    def test_counterexample_exact_values(self):
        rep = reproduce_counterexample()
        assert not rep.holds
        assert rep.params["extra"]["confirmed"] is True
        assert rep.params["extra"]["expected_failure"] is True
        assert rep.params["extra"]["ct"] == "1 + 2*q + 3*q^2 + 2*q^3"
        assert rep.lhs == "1 + 2*q + 3*q^2 + 1*q^3 - 2*q^4 - 3*q^5 - 2*q^6"
        assert rep.rhs == "1 + 2*q + 2*q^2 + 1*q^3 - 1*q^4 - 2*q^5 - 2*q^6 - 1*q^7"

    def test_counterexample_ct_recomputed_from_product(self):
        factors = modified_q_product(Instance(2, (1, 1, 1), (0,), (1,)))
        ct = ct_of_factor_list(factors, (0, 0, 0))
        assert ct == QPoly(0, (1, 2, 3, 2))
