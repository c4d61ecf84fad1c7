"""End-to-end acceptance gate for the identity-verification stack.

Each criterion prints exactly one summary line (visible with ``pytest -s``):

    criterion N: PASS - <detail>

Every comparison is exact symbolic equality; there are no tolerances.  The
program reads classical values off the q-product at q = 1; criteria 2-5 and
9(c) compare them with the classical product built from repeated binomials
(``classical_source``), an independent path.  The grids are the largest ones that stay desk-checkable: exhaustive small
parameter ranges for the identities themselves, plus seeded randomized suites
for the supporting combinatorial statements.
"""

import json
import random
import time

import pytest

from qdyson import cli
from qdyson.dyson import (
    Instance,
    q_dyson_factors,
    q_dyson_source,
    verify_dyson,
)
from qdyson.firstlayer import (
    first_layer_brute,
    first_layer_closed_q1,
    first_layer_target,
    verify_first_layer,
)
from qdyson.kadell import correction_factors, reproduce_counterexample, verify_kadell
from qdyson.laurent import LaurentPoly, ct_of_factor_list, expand_product, pi_action
from qdyson.paired import npc_holds
from qdyson.qpoly import ONE, QPoly, one_minus_q
from qdyson.sweeps import SweepConfig, a_grid, layout_grid, run_sweep
from tests.test_dyson import classical_source

# (n, amax) grids named by the criteria below
Q_GRIDS = ((2, 3), (3, 2))                       # criterion 1
CLASSICAL_GRIDS = ((1, 2), (2, 2), (3, 2), (4, 1))  # criterion 2 (n=0 direct)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- shared computations -------------------------------------------------------


@pytest.fixture(scope="module")
def q_sweeps(tmp_path_factory):
    """CLI q-Dyson sweeps (pruned kernel) with parsed JSON output."""
    runs = {}
    base = tmp_path_factory.mktemp("qsweeps")
    for n, amax in Q_GRIDS:
        path = base / f"q{n}_{amax}.jsonl"
        t0 = time.perf_counter()
        code = cli.main(
            ["sweep", "qdyson", "--n", str(n), "--amax", str(amax), "--json", str(path)]
        )
        elapsed = time.perf_counter() - t0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        runs[(n, amax)] = (code, lines[:-1], lines[-1], elapsed)
    return runs


@pytest.fixture(scope="module")
def classical_sweeps(tmp_path_factory):
    """CLI classical sweeps (pruned kernel) with parsed JSON output."""
    runs = {}
    base = tmp_path_factory.mktemp("csweeps")
    for n, amax in CLASSICAL_GRIDS:
        path = base / f"d{n}_{amax}.jsonl"
        t0 = time.perf_counter()
        code = cli.main(
            ["sweep", "dyson", "--n", str(n), "--amax", str(amax), "--json", str(path)]
        )
        elapsed = time.perf_counter() - t0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        runs[(n, amax)] = (code, lines[:-1], lines[-1], elapsed)
    return runs


@pytest.fixture(scope="module")
def q_expanded():
    """Fully expanded q-products for every (n, a) of criterion 1, which with
    n <= 1 added covers the runtime sources of criteria 2-5."""
    out = {}
    for n, amax in ((0, 2), (1, 2)) + Q_GRIDS:
        for a in a_grid(n, amax):
            out[(n, a)] = q_dyson_source(Instance(n, a), expand=True)
    return out


@pytest.fixture(scope="module")
def classical_expanded():
    """Fully expanded classical products (the oracle) for criteria 2-5."""
    out = {}
    for n, amax in ((0, 2),) + CLASSICAL_GRIDS:
        for a in a_grid(n, amax):
            out[(n, a)] = classical_source(Instance(n, a), expand=True)
    return out


def _layouts(n, a, mmin, mmax):
    return [Instance(n, a, I, J) for I, J in layout_grid(n, mmin, mmax)]


# -- the nine criteria ----------------------------------------------------------


def test_criterion_1_q_dyson_constant_terms(q_sweeps):
    ok = True
    details = []
    elapsed = 0.0
    for (n, amax), (code, reports, summary, secs) in sorted(q_sweeps.items()):
        expected = (amax + 1) ** (n + 1)
        ok = ok and code == 0 and summary["failed"] == 0 and summary["total"] == expected
        elapsed += secs
        details.append(f"n={n},a<={amax}: {summary['passed']}/{summary['total']}")
    ok = ok and elapsed < 120.0
    _report(1, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_2_dyson_constant_terms(classical_sweeps, q_expanded, classical_expanded):
    ok = True
    details = []
    elapsed = 0.0
    for (n, amax), (code, reports, summary, secs) in sorted(classical_sweeps.items()):
        expected = (amax + 1) ** (n + 1)
        ok = ok and code == 0 and summary["failed"] == 0 and summary["total"] == expected
        elapsed += secs
        details.append(f"n={n},a<={amax}: {summary['passed']}/{summary['total']}")
    # single-variable edge: the product is empty, the constant term is 1
    t0 = time.perf_counter()
    n0 = 0
    for a0 in range(3):
        rep = verify_dyson(Instance(0, (a0,)), q_expanded[(0, (a0,))])
        oracle = classical_expanded[(0, (a0,))].constant_term().render()
        ok = ok and rep.holds and rep.lhs == oracle
        n0 += 1
    elapsed += time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    details.append(f"n=0: {n0}/{n0}")
    _report(2, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_3_first_layer_closed_form(q_expanded, classical_expanded):
    t0 = time.perf_counter()
    layouts = layout_grid(3, 1, 2)
    offset_layouts = [(I, J) for I, J in layouts if I[0] > 0]
    assert offset_layouts, "grid must exercise layouts that start past x0"
    checked = failed = 0
    for a in a_grid(3, 2):
        qsrc = q_expanded[(3, a)]
        csrc = classical_expanded[(3, a)]
        for inst in _layouts(3, a, 1, 2):
            rep = verify_first_layer(inst, qsrc)
            oracle = csrc.coeff(first_layer_target(inst)).as_int()
            checked += 1
            failed += 0 if rep.holds and rep.params["extra"]["q1_brute"] == str(oracle) else 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and checked == len(layouts) * 81 and elapsed < 600.0
    _report(
        3,
        ok,
        f"{checked - failed}/{checked} layer coefficients (incl. "
        f"{len(offset_layouts)} offset layouts) in {elapsed:.1f}s",
    )


def test_criterion_4_q1_value_is_layout_independent(q_expanded, classical_expanded):
    t0 = time.perf_counter()
    checked = failed = 0
    for n in (1, 2, 3):
        for a in a_grid(n, 2):
            qsrc = q_expanded[(n, a)]
            src = classical_expanded[(n, a)]
            values_by_i: dict = {}
            for inst in _layouts(n, a, 1, n):
                value = src.coeff(first_layer_target(inst)).as_int()
                checked += 1
                if first_layer_closed_q1(inst) != value:
                    failed += 1
                elif first_layer_brute(inst, qsrc).at_q1() != value:
                    failed += 1
                values_by_i.setdefault(inst.I, set()).add(value)
            if any(len(vals) != 1 for vals in values_by_i.values()):
                failed += 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0
    _report(
        4,
        ok,
        f"{checked - failed}/{checked} q=1 values constant across J and "
        f"equal to the closed sum in {elapsed:.1f}s",
    )


def test_criterion_5_corrected_constant_terms(q_expanded, classical_expanded):
    t0 = time.perf_counter()
    checked = failed = 0
    for n in (0, 1, 2, 3):
        for a in a_grid(n, 2):
            qsrc = q_expanded[(n, a)]
            src = classical_expanded[(n, a)]
            for inst in _layouts(n, a, 0, n):
                rep = verify_kadell(inst, qsrc)
                correction = expand_product(correction_factors(inst), n)
                oracle = src.ct_times(correction).as_int()
                checked += 1
                failed += 0 if rep.holds and rep.params["extra"]["ct"] == str(oracle) else 1
    elapsed = time.perf_counter() - t0
    ok = failed == 0
    _report(
        5,
        ok,
        f"{checked - failed}/{checked} scaled identities (closed form "
        f"cross-checked) in {elapsed:.1f}s",
    )


def test_criterion_6_exact_counterexample(capsys):
    rep = reproduce_counterexample()
    lhs_expected = (one_minus_q(3) * QPoly(0, (1, 2, 3, 2))).render()
    rhs_expected = (
        one_minus_q(4) * QPoly(0, (1, 1)) * QPoly(0, (1, 1, 1))
    ).render()
    ok = (
        not rep.holds
        and rep.params["extra"]["confirmed"] is True
        and rep.params["extra"]["ct"] == "1 + 2*q + 3*q^2 + 2*q^3"
        and rep.lhs == lhs_expected
        and rep.lhs == "1 + 2*q + 3*q^2 + 1*q^3 - 2*q^4 - 3*q^5 - 2*q^6"
        and rep.rhs == rhs_expected
        and rep.rhs == "1 + 2*q + 2*q^2 + 1*q^3 - 1*q^4 - 2*q^5 - 2*q^6 - 1*q^7"
    )
    exit_code = cli.main(["counterexample"])
    capsys.readouterr()
    ok = ok and exit_code == 0
    _report(6, ok, "pinned failing instance reproduced character-for-character")


def test_criterion_7_paired_identity_full_grid():
    t0 = time.perf_counter()
    totals = {"multiset": [0, 0, 0], "set": [0, 0, 0]}  # total, failed, rejected
    for semantics in ("multiset", "set"):
        for n in (1, 2, 3):
            _, summary = run_sweep(
                SweepConfig(identity="main", n=n, amax=2, semantics=semantics)
            )
            totals[semantics][0] += summary["total"]
            totals[semantics][1] += summary["failed"]
            totals[semantics][2] += summary["rejected"]
    elapsed = time.perf_counter() - t0
    multi, st_set = totals["multiset"], totals["set"]
    ok = (
        multi == [3132, 0, 0]
        and st_set[0] == 3132
        and st_set[1] == 252  # the alternative reading demonstrably fails
        and elapsed < 900.0
    )
    _report(
        7,
        ok,
        f"default semantics {multi[0] - multi[1]}/{multi[0]}; alternative "
        f"fails {st_set[1]} as recorded; in {elapsed:.1f}s",
    )


def test_criterion_8_combinatorial_lemma_suite():
    t0 = time.perf_counter()
    reports, summary = run_sweep(SweepConfig(identity="lemmas", n=6, amax=5, seed=0))
    elapsed = time.perf_counter() - t0
    kinds = [r.identity for r in reports]
    ok = (
        summary["failed"] == 0
        and kinds.count("factorization") == 500
        and kinds.count("tailcancel") >= 100
        and kinds.count("choiceproduct") == 4
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"{summary['passed']}/{summary['total']} lemma instances "
        f"({kinds.count('factorization')} factorizations, "
        f"{kinds.count('tailcancel')} tail cancellations, sizes 2-5 choice "
        f"products) in {elapsed:.1f}s",
    )


def test_criterion_9_kernel_properties(q_sweeps, classical_sweeps, q_expanded, classical_expanded):
    t0 = time.perf_counter()
    ok = True

    # (a) rotating n+1 times is the identity on degree-0 homogeneous inputs
    rng = random.Random(9)
    rotation_checks = 0
    for n in (1, 2, 3):
        width = n + 1
        for _ in range(20):
            terms: dict = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * width
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(width)
                    j = rng.randrange(width)
                    exps[i] += 1
                    exps[j] -= 1
                coeff = QPoly(rng.randint(-2, 2), (rng.choice((-3, -2, -1, 1, 2, 3)),))
                key = tuple(exps)
                terms[key] = terms.get(key, QPoly(0, ())) + coeff
            f = LaurentPoly(n, terms)
            ok = ok and pi_action(f, width) == f
            rotation_checks += 1

    # (b) rotating the multiplier compensates rotating the exponent vector
    shift_checks = 0
    for n in (1, 2):
        for a in a_grid(n, 2):
            src = q_dyson_source(Instance(n, a), expand=True)
            rotated = tuple([a[-1]] + list(a[:-1]))
            src_rot = q_dyson_source(Instance(n, rotated), expand=True)
            for _ in range(4):
                exps = tuple(rng.choice((-1, 0, 1)) for _ in range(n + 1))
                L = LaurentPoly.monomial(n, exps, ONE)
                ok = ok and src.ct_times(L) == src_rot.ct_times(pi_action(L))
                shift_checks += 1

    # (c) pruned extraction agrees with full expansion on every instance of
    # criteria 1-3
    pruned_checks = 0
    for (n, _), (_, reports, _, _) in q_sweeps.items():
        for rep in reports:
            a = tuple(rep["params"]["a"])
            expanded_ct = q_expanded[(n, a)].constant_term().render()
            ok = ok and rep["lhs"] == expanded_ct
            pruned_checks += 1
    for (n, _), (_, reports, _, _) in classical_sweeps.items():
        for rep in reports:
            a = tuple(rep["params"]["a"])
            expanded_ct = classical_expanded[(n, a)].constant_term().render()
            ok = ok and rep["lhs"] == expanded_ct
            pruned_checks += 1
    targets = sorted({first_layer_target(s) for s in _layouts(3, (0,) * 4, 1, 2)})
    for a in a_grid(3, 2):
        factors = q_dyson_factors(Instance(3, a))
        expanded = q_expanded[(3, a)]
        for target in targets:
            ok = ok and ct_of_factor_list(factors, target) == expanded.coeff(target)
            pruned_checks += 1

    elapsed = time.perf_counter() - t0
    _report(
        9,
        ok,
        f"{rotation_checks} rotation orders, {shift_checks} cyclic shifts, "
        f"{pruned_checks} pruned-vs-expanded coefficients in {elapsed:.1f}s",
    )


def test_paired_layouts_under_n3_never_cross():
    """Companion fact to criterion 7: the n <= 3 grid has no rejected
    layouts, so the sweep above really covers every layout."""
    for n in (1, 2, 3):
        for I, J in layout_grid(n, 0, n):
            assert npc_holds(I, J)
