"""Grid enumeration, sweep summaries, and the randomized lemma suite."""

import random

import pytest

from qdyson.paired import npc_holds
from qdyson.sweeps import (
    SweepConfig,
    a_grid,
    layout_grid,
    lemma_suite_reports,
    pool_workers,
    random_instance,
    run_sweep,
)


def test_a_grid():
    assert a_grid(1, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(a_grid(2, 2)) == 27


def test_layout_grid_counts():
    # n=2: the empty layout, six m=1 layouts, three m=2 layouts
    assert len(layout_grid(2, 0, 2)) == 10
    assert layout_grid(2, 0, 0) == [((), ())]
    # m is capped at n even if the bound allows more
    assert len(layout_grid(2, 0, 5)) == 10
    assert len(layout_grid(3, 0, 3)) == 35
    assert len(layout_grid(6, 0, 6)) == 1716


def test_layout_grid_entries_are_valid():
    from qdyson.dyson import Instance

    for I, J in layout_grid(3, 0, 3):
        Instance(3, (1, 1, 1, 1), I, J)  # must not raise


def test_config_validation():
    SweepConfig(identity="qdyson", n=1, amax=0).validate()
    for bad in [
        SweepConfig(identity="nosuch", n=1, amax=1),
        SweepConfig(identity="qdyson", n=0, amax=1),
        SweepConfig(identity="qdyson", n=1, amax=-1),
        SweepConfig(identity="qdyson", n=1, amax=1, jobs=0),
        SweepConfig(identity="main", n=1, amax=1, mmax=-1),
        SweepConfig(identity="main", n=1, amax=1, semantics="bag"),
        SweepConfig(identity="lemmas", n=1, amax=1),
    ]:
        with pytest.raises(ValueError):
            bad.validate()


def test_pool_workers_are_capped(monkeypatch):
    """No more workers than tasks or CPUs, whatever --jobs asks for; checked
    without starting a process."""
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert pool_workers(100000, 1000) == 4
    assert pool_workers(100000, 3) == 3
    assert pool_workers(2, 1000) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert pool_workers(100000, 1000) == 1


def test_random_layer_draws_are_deterministic():
    one = [random_instance(random.Random(5), 5, 3).pairs for _ in range(5)]
    two = [random_instance(random.Random(5), 5, 3).pairs for _ in range(5)]
    assert one == two


def test_crossing_layouts_are_rejected_not_failed():
    """n=6 admits 78 crossing layouts; the sweep counts them as rejected and
    never emits a failing report for them."""
    layouts = layout_grid(6, 0, 6)
    crossing = [lay for lay in layouts if not npc_holds(*lay)]
    assert len(crossing) == 78

    reports, summary = run_sweep(SweepConfig(identity="main", n=6, amax=0))
    assert summary == {
        "total": 1638,
        "passed": 1638,
        "failed": 0,
        "rejected": 78,
        "seed": 0,
    }
    assert len(reports) == 1638


def test_small_grids_all_pass():
    for identity, n in [("qdyson", 2), ("dyson", 2), ("firstlayer", 2), ("kadell", 2), ("main", 2)]:
        reports, summary = run_sweep(SweepConfig(identity=identity, n=n, amax=1))
        assert summary["failed"] == 0, (identity, summary)
        assert summary["total"] == len(reports)


def test_sweep_reports_follow_grid_order():
    reports, _ = run_sweep(SweepConfig(identity="qdyson", n=1, amax=2))
    seen = [tuple(r.params["a"]) for r in reports]
    assert seen == a_grid(1, 2)


def test_lemma_suite_shapes():
    reports = lemma_suite_reports(
        nmax=4, amax=3, seed=3, factorization_draws=25, tail_cancel_draws=10
    )
    kinds = [r.identity for r in reports]
    assert kinds.count("factorization") == 25
    assert kinds.count("choiceproduct") == 4
    assert kinds.count("tailcancel") >= 10  # one per tail position per draw
    assert all(r.holds for r in reports)


def test_lemma_suite_seed_changes_draws():
    one = lemma_suite_reports(4, 3, seed=1, factorization_draws=5, tail_cancel_draws=1)
    two = lemma_suite_reports(4, 3, seed=2, factorization_draws=5, tail_cancel_draws=1)
    params_one = [r.params for r in one if r.identity == "factorization"]
    params_two = [r.params for r in two if r.identity == "factorization"]
    assert params_one != params_two
