"""The benchmark's correctness gate and trace wrapping.

The gate must catch one changed report byte, ignore ``elapsed_ms`` and catch
a wrong exit code; the tracer must wrap a function at every place its name is
bound and put the originals back.
"""

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from qdyson import cli  # noqa: E402

UNITS = {u["key"]: u for u in workloads.all_units()}
KEYS = ("counterexample", "verify qdyson --n 3 --a 3,3,3,3", "sweep lemmas --n 7 --amax 5 --seed 0")


def _run(key, tmp_path):
    path = tmp_path / "out.jsonl"
    rc = workloads.call(cli.main, UNITS[key], str(path))
    return rc, path.read_text()


def _flip_first_lhs_byte(text):
    i = text.index('"lhs":"') + len('"lhs":"')
    return text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]


@pytest.mark.parametrize("key", KEYS)
def test_single_changed_report_byte_is_caught(key, tmp_path):
    pin = gate.load_pins()[key]
    rc, text = _run(key, tmp_path)
    assert gate.score(gate.read_unit(text, rc), pin) == (pin["checks"], 0)

    corrupted = _flip_first_lhs_byte(text)
    assert len(corrupted) == len(text) and corrupted != text
    attempted, failed = gate.score(gate.read_unit(corrupted, rc), pin)
    assert attempted == pin["checks"] and failed / attempted > 0


def test_elapsed_ms_is_ignored_and_exit_code_is_not(tmp_path):
    key = "verify qdyson --n 3 --a 3,3,3,3"
    pin = gate.load_pins()[key]
    rc, text = _run(key, tmp_path)
    retimed = text.replace('"elapsed_ms":', '"elapsed_ms":1000', 1)
    assert gate.score(gate.read_unit(retimed, rc), pin) == (1, 0)
    assert gate.score(gate.read_unit(text, 1), pin) == (1, 1)
    assert gate.score(gate.read_unit("", "exception"), pin) == (1, 1)


def test_counterexample_must_fail_as_pinned():
    ok = {"holds": False, "params": {"extra": {"expected_failure": True, "confirmed": True}}}
    assert gate.verdict_ok(ok)
    assert not gate.verdict_ok({**ok, "holds": True})
    assert not gate.verdict_ok({"holds": False, "params": {"extra": {}}})


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import qdyson
    from qdyson import kadell, laurent, qpoly
    from tracing import Tracer

    originals = (laurent.ct_of_factor_list, kadell.ct_of_factor_list,
                 qdyson.ct_of_factor_list, qpoly.QPoly.__dict__["__rmul__"])
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert kadell.ct_of_factor_list is laurent.ct_of_factor_list is qdyson.ct_of_factor_list
        assert kadell.ct_of_factor_list is not originals[0]
        assert qpoly.QPoly.__dict__["__rmul__"] is qpoly.QPoly.__dict__["__mul__"]
        assert qpoly.QPoly.__dict__["__rmul__"] is not originals[3]
        rc, _ = _run("counterexample", tmp_path)
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.metrics()
    assert metrics["laurent.extract_calls"] == 1
    assert metrics["qpoly.mul_calls"] > 0
    assert (laurent.ct_of_factor_list, kadell.ct_of_factor_list,
            qdyson.ct_of_factor_list, qpoly.QPoly.__dict__["__rmul__"]) == originals


def test_routing_prediction_and_tail_level():
    import run

    extracting = [{"trace": {"laurent.extract_calls": 3, "laurent.expand_calls": 0}}]
    assert run.routing_errors("deep-pruned", extracting) == []
    assert run.routing_errors("lemma-suite", extracting) == ["laurent.extract_calls = 3, predicted 0"]
    assert run.routing_errors("grid-expand", extracting)
    assert run.tail_level(124) == 9000 and run.tail_level(12424) == 9900
    assert run.tail_level(10) is None
