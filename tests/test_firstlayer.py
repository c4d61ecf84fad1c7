"""Layer coefficients: exponent formulas, closed forms, q = 1 specialisation."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from qdyson.dyson import Instance, evaluate, q_dyson_source
from qdyson.firstlayer import (
    first_layer_closed,
    first_layer_closed_q1,
    first_layer_reads,
    nonempty_subsets,
    verify_first_layer,
)
from qdyson.paired import compile_layout, layer_levels
from qdyson.qpoly import ONE, ZERO, QPoly, QRat, multinomial, one_minus_q, q_multinomial_poly
from qdyson.reports import report
from qdyson.sweeps import verify
from tests.test_dyson import (
    as_int,
    classical_product,
    compiled,
    first_layer_target,
    layer_box,
    shared_source,
)


def count_upto(k, values):
    """Number of entries <= k, counted with multiplicity."""
    return sum(1 for v in values if v <= k)


def paired_js(inst, subset):
    """The j-values paired with the given selected indices of inst (with
    multiplicity, sorted)."""
    return sorted(inst.J[inst.I.index(u)] for u in subset)


def oracle_avecs(n):
    """The exponent vectors the exponent oracles are checked at: all ones,
    ascending and descending."""
    return [(1,) * (n + 1), tuple(range(n + 1)), tuple(range(n + 1))[::-1]]


def seeded_layouts(n, count, seed=0):
    """count random layouts (I, J) over x_0..x_n, each I and J drawn as
    ``sweeps.random_instance`` draws them at that n, but with m from 1..n
    where it draws m from 2..n."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, n)
        I = tuple(sorted(rng.sample(range(n + 1), m)))
        rest = [x for x in range(n + 1) if x not in I]
        yield I, tuple(sorted(rng.choices(rest, k=m)))


def all_layouts(n, a, mmin=1, mmax=None):
    """The instance of a with every valid (I, J) pair over x_0..x_n with
    mmin <= m <= mmax."""
    if mmax is None:
        mmax = n
    indices = range(n + 1)
    for m in range(mmin, mmax + 1):
        for I in itertools.combinations(indices, m):
            rest = sorted(set(indices) - set(I))
            for J in itertools.combinations_with_replacement(rest, m):
                yield Instance(n, a, I, J)


class TestLayerSpec:
    """Layer checks of ``Instance``; the checks on n and a are
    ``test_dyson::test_spec_validation``."""

    def test_valid(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))
        assert inst.m == 2

    @pytest.mark.parametrize(
        "n,I,J",
        [
            (2, (0, 1), (2,)),  # length mismatch
            (2, (0, 1, 2), (0, 1, 2)),  # m > n (and overlap)
            (2, (1, 0), (2, 2)),  # I not increasing
            (2, (0,), (3,)),  # out of range
            (3, (0, 1), (3, 2)),  # J decreasing
            (2, (0,), (0,)),  # overlap
            (2, (0, 0), (1, 2)),  # repeated I
        ],
    )
    def test_invalid(self, n, I, J):
        with pytest.raises(ValueError):
            Instance(n, (1,) * (n + 1), I, J)

    def test_m_zero_is_a_valid_layout(self):
        assert Instance(2, (1, 1, 1), (), ()).m == 0


def test_count_upto():
    assert count_upto(2, (0, 1, 3)) == 2
    assert count_upto(2, (2, 2, 3)) == 2
    assert count_upto(-1, (0, 1)) == 0


def test_nonempty_subsets_order():
    assert list(nonempty_subsets((0, 2, 5))) == [
        (0,), (2,), (5,), (0, 2), (0, 5), (2, 5), (0, 2, 5),
    ]


def layer_coefficients(T, inst):
    """The q-exponent attached to a nonempty subset T of the layer (X, J_X),
    as (c0, c) with the exponent c0 + sum of c_k * a_k: X is I and J_X its
    paired j's, J.  Reads only n, I and J.  With
    count_upto(k, V) = #{v in V : v <= k}, counted with multiplicity, and
    t = #{j in J_X : j < min X}, c0 = t and

        c_k = t + count_upto(k, X) - count_upto(k, J_X)  for k not in T,
        c_k = 0                                          for k in T.

    The first line, for every k at once, is one prefix sum over the layout
    (``paired.layer_levels``), which the entries on T then overwrite.  So
    the exponent is t + sum over k of L_k a_k less the sum over k in T of
    L_k a_k, with (t, L) the levels of I, which is how the first-layer
    closed form reads it off a compiled layout.

    It is the split form, for i_1 = min X,

        t + sum_{k=i_1..n} (count_upto(k, X) - count_upto(k, J+)) * w_k
          + sum_{k<i_1} (t - count_upto(k, J-)) * a_k

    with J- = {j < i_1}, J+ = {j > i_1} and w the copy of a zeroed on T.
    Both sums have the coefficient above: no j equals i_1 (I and J are
    disjoint), so count_upto(k, J_X) = t + count_upto(k, J+) for k >= i_1;
    and for k < i_1, count_upto(k, X) = 0, every j <= k lies in J-, and
    k is not in T.  With t = 0 it is the form for layers starting at x_0.
    ``paper_layer_exponent`` is the split form itself.
    """
    if not T:
        raise ValueError("subset must be nonempty")
    levels, t = layer_levels(inst, inst.I)
    for k in T:
        levels[k] = 0
    return t, tuple(levels)


def layer_exponent(T, inst, within=None):
    """The layer exponent of T within the layer of ``within`` (all of I by
    default) with its paired j's: ``layer_coefficients`` of that layer's
    instance, at inst.a."""
    X = inst.I if within is None else tuple(sorted(within))
    induced = Instance(inst.n, inst.a, X, paired_js(inst, X))
    return evaluate(layer_coefficients(T, induced), inst.a)


def paper_layer_exponent(T, inst):
    """The layer exponent of T in the layer (I, J) of inst, in its split
    form: with i1 = min(I), t = #{j in J : j < i1}, J- = {j < i1},
    J+ = {j > i1} and w the copy of a zeroed on T,

        t + sum_{k=i1..n} (count_upto(k, I) - count_upto(k, J+)) * w_k
          + sum_{k=0..i1-1} (t - count_upto(k, J-)) * a_k

    The reference ``layer_exponent`` is checked against."""
    i1 = inst.I[0]
    j_below = [j for j in inst.J if j < i1]
    j_above = [j for j in inst.J if j > i1]
    t = len(j_below)
    w = [0 if k in T else ak for k, ak in enumerate(inst.a)]
    high = sum(
        (count_upto(k, inst.I) - count_upto(k, j_above)) * w[k]
        for k in range(i1, inst.n + 1)
    )
    low = sum((t - count_upto(k, j_below)) * inst.a[k] for k in range(i1))
    return t + high + low


class TestExponents:
    def test_known_values(self):
        a = (1, 1, 1)
        assert layer_exponent((0,), Instance(2, a, (0,), (1,))) == 0
        assert layer_exponent((0,), Instance(2, a, (0,), (2,))) == 1

    def test_known_values_general(self):
        a = (1, 1, 1)
        assert layer_exponent((1,), Instance(2, a, (1,), (0,))) == 2
        assert layer_exponent((2,), Instance(2, a, (2,), (0,))) == 1

    def test_requires_nonempty_subset(self):
        inst = Instance(2, (1, 1, 1), (0,), (1,))
        with pytest.raises(ValueError):
            layer_exponent((), inst)
        with pytest.raises(ValueError):
            layer_exponent((), inst, (0,))

    def test_matches_paper_form(self):
        """The exponent of T within the layer of X equals the split form on
        the instance of X with its paired j's, on every layout with n <= 5,
        for every X and every nonempty T within it."""
        for n in range(1, 6):
            for a in oracle_avecs(n):
                for inst in all_layouts(n, a):
                    assert_matches_paper_form(inst)

    def test_matches_paper_form_at_the_lemma_suite_n(self):
        """The same on seeded random layouts at n = 6 and 7, the largest n
        the pinned lemma suites draw."""
        for n in (6, 7):
            for I, J in seeded_layouts(n, 4):
                for a in oracle_avecs(n):
                    assert_matches_paper_form(Instance(n, a, I, J))

    def test_coefficients_reject_empty_and_foreign_subsets(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 1), (2, 2))
        with pytest.raises(ValueError):
            layer_coefficients((), inst)
        with pytest.raises(ValueError, match="selected indices"):  # 3 has no paired j
            layer_levels(inst, (0, 3))


def assert_matches_paper_form(inst):
    """``layer_exponent`` against the split form, for every nonempty X of
    the selection of inst and every nonempty T within it."""
    for X in nonempty_subsets(inst.I):
        induced = Instance(inst.n, inst.a, X, paired_js(inst, X))
        for T in nonempty_subsets(X):
            expected = paper_layer_exponent(T, induced)
            assert layer_exponent(T, inst, X) == expected, (inst, X, T)
            if X == inst.I:
                assert layer_exponent(T, inst) == expected, (inst, T)


def test_target_vector():
    """The target is the top corner of the layer box in I and its bottom
    corner in J, and the last flipped monomial of the compiled layout."""
    inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))
    assert first_layer_target(inst) == compiled(inst).subsets[-1][1] == (1, -2, 1, 0)
    assert layer_box(inst) == compiled(inst).box == ((0, -2, 0, 0), (1, 0, 1, 0))
    assert first_layer_target(Instance(2, (1, 1, 1))) == (0, 0, 0)
    assert compiled(Instance(2, (1, 1, 1))).box == ((0, 0, 0), (0, 0, 0))


def first_layer_closed_oracle(a, layout):
    """The closed form at a folded in ``QPoly`` arithmetic: each term
    (-1)^|T| q^(layer exponent of T) (1 - q^(s_T)) added into the group of
    its denominator d = 1 + total - s_T, and the groups folded into one
    numerator over the product of the distinct (1 - q^d), the numerator
    times the q-multinomial.  The layer exponents are the split form
    ``paper_layer_exponent``, not the layout's levels.
    ``first_layer_closed`` unpacks the packed fold of the check and must
    give this num and den exactly."""
    total, inst = sum(a), Instance(layout.n, a, layout.I, layout.J)
    groups = {}
    for T in nonempty_subsets(layout.I):
        s_t = sum(a[k] for k in T)
        term = one_minus_q(s_t).shifted(paper_layer_exponent(T, inst))
        d = 1 + total - s_t
        groups[d] = groups.get(d, ZERO) + (-term if len(T) % 2 else term)
    num, den = ZERO, ONE
    for d, part in groups.items():
        factor = one_minus_q(d)
        num, den = num * factor + part * den, den * factor
    return QRat(q_multinomial_poly(a) * num, den)


def verify_first_layer_oracle(a, layout, source):
    """The first-layer check with ``QPoly`` arithmetic, reading the whole box
    of ``source`` unpacked at once: the closed form built as a ``QRat`` by
    ``first_layer_closed_oracle``, compared with the brute coefficient by
    cross-multiplication and rendered by exact division.  The packed
    ``verify_first_layer`` must give the same report, ``elapsed_ms``
    apart."""
    t0 = time.perf_counter()
    closed = first_layer_closed_oracle(a, layout)
    brute = source.expanded.coeff(first_layer_target(Instance(layout.n, a, layout.I, layout.J)))
    q1_brute = brute.at_q1()
    q1_closed = first_layer_closed_q1(a, layout)
    holds = QRat(brute) == closed and q1_closed == q1_brute
    return report(
        "firstlayer", a, layout, t0, holds, brute, closed,
        lambda: {"q1_brute": str(q1_brute), "q1_closed": str(q1_closed)},
    )


class TestClosedForm:
    def test_rejects_empty_layer(self):
        inst = Instance(2, (1, 1, 1))
        with pytest.raises(ValueError):
            first_layer_closed(inst.a, compiled(inst))
        with pytest.raises(ValueError):
            first_layer_closed_q1(inst.a, compiled(inst))

    def test_verify_rejects_empty_layer_before_extraction(self):
        class Unreadable:
            def coeff(self, target):
                raise AssertionError("extracted a coefficient")

        inst = Instance(2, (1, 1, 1))
        with pytest.raises(ValueError):
            verify_first_layer(compiled(inst), Unreadable())

    def test_verify_rejects_a_source_without_headroom(self):
        inst = Instance(3, (1, 1, 1, 1), (0, 2), (1, 1))
        layout = compiled(inst)
        source = q_dyson_source(inst, *layout.box, first_layer_reads(layout)[2] - 1)
        with pytest.raises(ValueError):
            verify_first_layer(layout, source)

    def test_known_coefficient(self):
        inst = Instance(2, (1, 1, 1), (0,), (1,))
        brute = shared_source([inst]).coeff(first_layer_target(inst))
        assert brute == QPoly(0, (-1, -1))
        assert brute.render() == "-1 - 1*q"
        assert QRat(brute) == first_layer_closed(inst.a, compiled(inst))

    def test_known_coefficient_with_offset_start(self):
        # smallest selected index > 0 exercises the t > 0 branch
        inst = Instance(2, (1, 1, 1), (1,), (0,))
        brute = shared_source([inst]).coeff(first_layer_target(inst))
        assert brute == QPoly(2, (-1, -1))
        assert QRat(brute) == first_layer_closed(inst.a, compiled(inst))

    def test_denominator_takes_each_value_once(self):
        # the seven subsets of I have denominators 1 - q^d, d in {4,4,4,3,3,3,2}
        inst = Instance(3, (1, 1, 1, 1), (0, 1, 2), (3, 3, 3))
        closed = first_layer_closed(inst.a, compiled(inst))
        assert closed.den == one_minus_q(2) * one_minus_q(3) * one_minus_q(4)
        assert QRat(shared_source([inst]).coeff(first_layer_target(inst))) == closed

    def test_brute_matches_closed_small_grid(self):
        for n in (1, 2):
            for a in itertools.product(range(3), repeat=n + 1):
                insts = list(all_layouts(n, a))
                source = shared_source(insts)
                for inst in insts:
                    brute = source.coeff(first_layer_target(inst))
                    assert QRat(brute) == first_layer_closed(inst.a, compiled(inst)), inst

    def test_unpacked_fold_is_the_qpoly_fold(self):
        """``first_layer_closed``, the check's packed fold unpacked, gives
        the ``QPoly`` fold's num and den exactly, not only an equal
        quotient, on every layout with n <= 4 (m <= n <= 4), at a with all
        entries 1, an entry of 5 and entries up to 6."""
        checked = 0
        for n in (1, 2, 3, 4):
            avecs = [(1,) * (n + 1), (5,) + (0, 2, 1, 3)[:n], tuple(range(6, 5 - n, -1))]
            for inst in all_layouts(n, (0,) * (n + 1)):
                layout = compiled(inst)
                for a in avecs:
                    closed, oracle = first_layer_closed(a, layout), first_layer_closed_oracle(a, layout)
                    assert (closed.num, closed.den) == (oracle.num, oracle.den), (inst, a)
                    checked += 1
        assert checked == 3 * (2 + 9 + 34 + 125)

    def test_failing_check_reports_as_the_qpoly_check(self):
        """Read off the product of another a, 70 of the 72 checks of a small
        grid fail, and every report is the one the ``QPoly`` check gives: a
        failing one renders the closed form on the right, not the brute's
        text.  The wrong product is relabelled with the checks' a, which a
        check reads off its source."""
        failed = 0
        for a in itertools.product(range(1, 3), repeat=3):
            insts = list(all_layouts(2, a))
            wrong = shared_source([Instance(2, (a[0] + 1,) + a[1:], i.I, i.J) for i in insts])
            wrong.a = a
            for inst in insts:
                layout = compiled(inst)
                rep = verify_first_layer(layout, wrong)
                expected = verify_first_layer_oracle(inst.a, layout, wrong)
                assert (rep.holds, rep.lhs, rep.rhs, rep.params) == (
                    expected.holds, expected.lhs, expected.rhs, expected.params
                ), inst
                failed += rep.rhs != rep.lhs
        assert failed == 70


def closed_q1_oracle(I, a):  # noqa: E741
    """The q = 1 closed form as a sum of one ``Fraction`` per subset T."""
    total, acc = sum(a), Fraction(0)
    for T in nonempty_subsets(I):
        s_t = sum(a[k] for k in T)
        term = Fraction(s_t, 1 + total - s_t)
        acc += -term if len(T) % 2 else term
    return multinomial(a) * acc


class TestQ1:
    def test_integer_fold_is_the_fraction_sum(self):
        """The closed form folded as one integer fraction is the sum of
        ``Fraction``s, with the same text, for every (I, a) with n <= 3
        and every a_k <= 3."""
        checked = 0
        for n in (1, 2, 3):
            for I in nonempty_subsets(range(n + 1)):  # noqa: E741
                if len(I) > n:
                    continue
                J = (min(set(range(n + 1)) - set(I)),) * len(I)
                layout = compile_layout(n, I, J)
                for a in itertools.product(range(4), repeat=n + 1):
                    value, oracle = first_layer_closed_q1(a, layout), closed_q1_oracle(I, a)
                    assert value == oracle and str(value) == str(oracle), (I, a)
                    checked += 1
        assert checked == 2 * 4**2 + 6 * 4**3 + 14 * 4**4

    def test_known_values(self):
        a = (1, 1, 1)
        classical = classical_product(Instance(2, a))
        for inst, value in ((Instance(2, a, (0,), (1,)), -2), (Instance(2, a, (0, 1), (2, 2)), 2)):
            assert first_layer_closed_q1(inst.a, compiled(inst)) == Fraction(value)
            assert shared_source([inst]).coeff(first_layer_target(inst)).at_q1() == value
            assert as_int(classical.coeff(first_layer_target(inst))) == value

    def test_independent_of_j(self):
        """At q = 1 the coefficient depends on the layout only through I."""
        for n in (2, 3):
            for a in itertools.product(range(3), repeat=n + 1):
                source = classical_product(Instance(n, a))
                seen = {}
                for inst in all_layouts(n, a):
                    value = as_int(source.coeff(first_layer_target(inst)))
                    closed = first_layer_closed_q1(inst.a, compiled(inst))
                    assert value == closed, inst
                    if inst.I in seen:
                        assert seen[inst.I] == value, inst
                    else:
                        seen[inst.I] = value


def test_verify_report():
    rep = verify("firstlayer", 2, (1, 1, 1), (0,), (1,))
    assert rep.holds
    assert rep.identity == "firstlayer"
    assert rep.lhs == "-1 - 1*q"
    assert rep.params["extra"] == {"q1_brute": "-2", "q1_closed": "-2"}
