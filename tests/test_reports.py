"""Report lines: the joined encoding against ``json.dumps`` of ``to_dict()``
on edge cases, and the raw bytes of pinned benchmark units."""

import itertools
import json
import os
import pickle
from dataclasses import replace

import pytest

from benchmark import gate, workloads
from qdyson import cli
from qdyson.paired import compile_layout
from qdyson.reports import Extra, ReportRow, VerificationReport, open_jsonl, report, write_jsonl
from qdyson.sweeps import verify
from tests.test_cli import two_usable_cpus


def canonical(obj) -> str:
    """The canonical form, by ``json`` itself: sorted keys, compact
    separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parsed(line):
    """The report a line was encoded from, its ``params`` object taken apart
    into the fields."""
    fields = json.loads(line)
    params = fields.pop("params")
    return VerificationReport(**fields, **params)


def assert_encoded(rep):
    """The line is ``to_dict()`` dumped canonically, and parses back to a
    report with the same line and fields."""
    line = rep.to_json()
    assert line == canonical(rep.to_dict())
    again = parsed(line)
    assert again.to_json() == line and again.to_dict() == rep.to_dict()


TEXTS = [
    ("1 + 2*q", "1 + 2*q"),
    ('say "hi"', "back\\slash"),
    ("q² − 1 ≠ é", "tab\there\nnewline \x00  "),
    ("", "\U0001d4c6"),
]
EXTRAS = [
    None,
    {},
    {"ct": "8", "ct_closed": "8"},
    {"é\"k": "v\\", "a": "ü"},
    {"h": 3, "semantics": "multiset"},
    {"expected_failure": True, "confirmed": False, "ct": "1"},
    {"pairing": [[0, 1], [2, 1]], "nested": [[], [1, [2, [3]]]], "semantics": "multiset"},
    {"U": [0], "floor": 0, "npc": True, "residual": [], "big": 10**40, "neg": -7},
    Extra({"semantics": "multiset", "pairing": [[0, 1], [2, 1]]}),
]
# (a, layout) of every instance shape: no layer, one pair, a repeated j
INSTANCES = [
    ((0,), compile_layout(0, (), ())),
    ((1, 1, 1), compile_layout(2, (0,), (1,))),
    ((12, 0, 3, 0, 7), compile_layout(4, (0, 2), (1, 1))),
]


@pytest.mark.parametrize("lhs, rhs", TEXTS)
@pytest.mark.parametrize("extra", EXTRAS)
def test_report_lines_are_the_canonical_dump(lhs, rhs, extra):
    """Strings with quotes, backslashes, control and non-ASCII characters;
    int, bool, nested-list and empty extras; either verdict; every
    instance shape: the joined line is the dump of ``to_dict()``."""
    for holds, (a, layout) in itertools.product((True, False), INSTANCES):
        built = None if extra is None else (lambda: extra)
        rep = report("edge", a, layout, 0.0, holds, lhs, rhs, built)
        assert rep.params == {
            "n": layout.n, "a": list(a), "I": list(layout.I), "J": list(layout.J),
            "extra": {} if extra is None else extra,
        }
        assert_encoded(rep)


@pytest.mark.parametrize(
    "elapsed_ms", [0.0, 0.001, 1.5, 123456789.125, 1e16, 1.7976931348623157e308]
)
def test_elapsed_ms_is_written_as_json_writes_it(elapsed_ms):
    rep = replace(report("dyson", *INSTANCES[1], 0.0, True, 6, 6), elapsed_ms=elapsed_ms)
    assert_encoded(rep)
    assert json.loads(rep.to_json())["elapsed_ms"] == elapsed_ms


@pytest.mark.parametrize(
    "args",
    [
        ("main", 2, (1, 1, 1), (0,), (1,)),
        ("firstlayer", 3, (1, 0, 2, 1), (1, 3), (0, 2)),
        ("kadell", 2, (2, 1, 0), (0,), (2,)),
        ("qdyson", 2, (2, 1, 1)),
    ],
)
def test_a_verify_report_is_the_canonical_dump(args):
    """``verify`` derives its report anew with the pass added to
    ``elapsed_ms``, and that report's line carries the new time."""
    rep = verify(*args)
    assert_encoded(rep)
    assert json.loads(rep.to_json())["elapsed_ms"] == rep.elapsed_ms


def test_a_report_derived_with_extra_takes_it():
    """``replace(report, extra=...)`` gives a new report with that
    ``extra`` and every other field kept; the report it came from keeps
    its own."""
    rep = report("main", *INSTANCES[2], 0.0, False, "x", "y", lambda: {"ct": "1"})
    derived = replace(rep, extra=rep.extra | {"confirmed": True})
    assert derived.extra == {"ct": "1", "confirmed": True} and rep.extra == {"ct": "1"}
    assert derived.params == rep.params | {"extra": derived.extra}
    assert derived.to_dict() == rep.to_dict() | {"params": derived.params}
    assert_encoded(derived)


def test_a_report_derived_from_a_shared_extra_encodes_its_own():
    """``main``'s reports share one ``Extra`` per layout, which reads as the
    dict it was built from, refuses to change in place and pickles with its
    text; a report derived with another ``extra`` writes that one, not the
    shared text."""
    rep = verify("main", 2, (1, 1, 1), (0,), (1,))
    assert type(rep.extra) is Extra
    assert rep.extra == {"semantics": "multiset", "pairing": [[0, 1]]}
    assert verify("main", 2, (2, 1, 1), (0,), (1,)).extra is rep.extra
    with pytest.raises(TypeError):
        rep.extra["confirmed"] = True
    with pytest.raises(TypeError):
        rep.extra.update(confirmed=True)
    assert pickle.loads(pickle.dumps(rep.extra)).text == rep.extra.text
    derived = replace(rep, extra=rep.extra | {"confirmed": True})
    assert_encoded(derived)
    assert json.loads(derived.to_json())["params"]["extra"] == {
        "semantics": "multiset", "pairing": [[0, 1]], "confirmed": True
    }
    assert_encoded(rep)


@pytest.mark.parametrize("extra", EXTRAS)
def test_a_row_takes_the_params_of_its_line_apart(extra):
    """A ``ReportRow`` reads n, a, I, J and ``extra`` off its line's
    ``params`` into the fields of its report, a, I and J as tuples, for
    every instance shape and either verdict."""
    for holds, (a, layout) in itertools.product((True, False), INSTANCES):
        rep = report("edge", a, layout, 0.0, holds, "1", "2", extra and (lambda: extra))
        row = ReportRow(holds, rep.to_json())
        assert (row.n, row.a, row.I, row.J) == (layout.n, a, layout.I, layout.J)
        assert type(row.a) is type(row.I) is type(row.J) is tuple
        assert row.extra == rep.extra and row.params == rep.params
        assert (row.identity, row.lhs, row.rhs) == ("edge", "1", "2")
        assert row.elapsed_ms == rep.elapsed_ms
        assert row.to_dict() == rep.to_dict()


def test_one_writer_for_every_jsonl_file(tmp_path):
    """Reports and rows are written by their lines, then the summary, in
    place of what the file held; opening it truncates nothing.  With no path
    nothing is written or encoded."""
    rep = verify("kadell", 2, (1, 0, 1), (0,), (1,))
    row = ReportRow(rep.holds, rep.to_json())
    path = tmp_path / "out.jsonl"
    line = rep.to_json()
    with open_jsonl(str(path)) as out:
        write_jsonl(out, [rep, row], {"total": 2})
    assert path.read_text(encoding="utf-8") == f"{line}\n{line}\n" + '{"total":2}\n'
    old = "an old file, longer than the reports\n" * 100
    path.write_text(old, encoding="utf-8")
    with open_jsonl(str(path)) as out:
        assert path.read_text(encoding="utf-8") == old
        write_jsonl(out, [row], {"total": 1})
    assert path.read_text(encoding="utf-8") == f"{line}\n" + '{"total":1}\n'
    with open_jsonl(None) as out:
        assert out is None
        write_jsonl(out, [object()])


# -- raw bytes of pinned units --------------------------------------------------


def _raw_units():
    """The default grid slots serially and with --jobs 2, two lemma seeds,
    the first unit of every deep-pruned cell (``counterexample`` is one)."""
    units = workloads.draw("grid-expand", 0)
    units += [dict(unit, argv=unit["argv"][:-2] + ["--jobs", "2"]) for unit in units]
    lemmas = [" ".join(workloads.LEMMA_ARGV + ("--seed", seed)) for seed in ("0", "1")]
    units += [unit for unit in workloads.all_units() if unit["key"] in lemmas]
    units += [
        {"key": " ".join(pool[0]), "argv": list(pool[0])} for _, _, pool in workloads.deep_cells()
    ]
    return units


@pytest.mark.parametrize("unit", _raw_units(), ids=lambda unit: " ".join(unit["argv"]))
def test_pinned_units_write_canonical_lines(unit, tmp_path, monkeypatch):
    """Every line a unit writes is already canonical, byte for byte, before
    any re-dump (the gate and ``make_pins.py`` re-dump lines, so a slip in
    key order, separators or escaping would pass them), and the unit
    scores as its pin."""
    two_usable_cpus(monkeypatch)
    path = os.path.join(tmp_path, "out.jsonl")
    rc = workloads.call(cli.main, unit, path)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    assert len(lines) > 1 and lines[-1] == ""
    assert all(line == canonical(json.loads(line)) for line in lines[:-1])
    pin = gate.load_pins()[unit["key"]]
    assert gate.score(gate.read_unit(text, rc), pin) == (pin["checks"], 0)
