"""Structured verification results and their stable JSON form.

A report keeps what its JSON line needs and nothing more: the identity,
the verdict, the rendered sides, the time, the exponent vector a and the
layer's (n, I, J) as the check had them, and its ``extra`` mapping.  It
is plain data: its constructor is the one ``dataclass`` generates, and a,
I and J are tuples, which ``ReportRow`` makes of the lists it parses.
``params``, ``to_dict()`` and the line are built from those fields when
something reads them.  The line is joined from its parts
(``VerificationReport.to_json``) and is the one ``dumps(to_dict())`` gives,
byte for byte; the tests hold the two together.  An ``extra`` that depends
on the layout alone, as ``main``'s does, is an ``Extra``: built and encoded
once per layout, and written as that text by every report that holds it.
``write_jsonl`` is the one writer of a run's JSONL file, into the file
``open_jsonl`` opens before the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable, ContextManager, Iterable, TextIO

ENGINE = "qdyson/0.1.0"

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, compact separators.  Parsing a line and
    re-dumping it reproduces the bytes."""
    return _ENCODER.encode(obj)


class Extra(dict):
    """An ``extra`` mapping that the reports of many checks share, with its
    JSON text ``text``, encoded once when it is built; ``to_json`` writes
    that text.  Changing it in place raises ``TypeError``, as that would
    change every report that holds it and leave its text stale: a report
    with another ``extra`` is derived with ``dataclasses.replace``, and a
    plain dict there, such as ``rep.extra | {...}``, is encoded anew."""

    __slots__ = ("text",)

    def __init__(self, mapping: dict) -> None:
        super().__init__(mapping)
        self.text = dumps(self)

    def __reduce__(self):
        return Extra, (dict(self),)

    def _frozen(self, *args, **kwargs):
        raise TypeError("an Extra is shared by many reports and is never changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen


@dataclass(slots=True)
class VerificationReport:
    """Outcome of one identity check.

    ``holds`` records exact equality of the two sides; ``lhs``/``rhs`` are
    their canonical renderings.  a, I and J are tuples of ints, as the
    check had them; ``ReportRow`` converts the lists of a parsed line.  A
    report is not changed once built: derive another with
    ``dataclasses.replace``.
    """

    identity: str
    holds: bool
    lhs: str
    rhs: str
    elapsed_ms: float
    n: int
    a: tuple[int, ...]
    I: tuple[int, ...]  # noqa: E741 - interface name
    J: tuple[int, ...]
    extra: dict
    engine: str = ENGINE

    @property
    def params(self) -> dict:
        """The instance and ``extra`` as the line's ``params`` object, built
        anew on each read."""
        return {"n": self.n, "a": list(self.a), "I": list(self.I), "J": list(self.J),
                "extra": self.extra}

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_ms": self.elapsed_ms,
            "engine": self.engine,
        }

    def to_json(self) -> str:
        """The canonical JSON line of ``to_dict``, joined from its parts in
        sorted key order, on each call: a run encodes each report at most
        once.  The head (engine, verdict, identity) and the layer part
        ``"I":[..],"J":[..]`` come from small caches, the digits of a and n
        and an ``extra`` of strings are joined here, an ``Extra`` gives its
        text, and any other ``extra`` goes through ``dumps``.  Strings are escaped by the
        encoder's own ``encode_basestring_ascii`` and the time, a finite
        float, is its ``repr``, as ``json`` writes them.  A pool worker
        encodes its reports, and only each one's ``holds`` and line go back
        to the parent, as a ``ReportRow``."""
        return (
            f'{{"elapsed_ms":{float.__repr__(self.elapsed_ms)},'
            f"{_head(self.engine, self.holds, self.identity)}"
            f'"lhs":{_string(self.lhs)},"params":{{{_layer(self.I, self.J)}'
            f'"a":[{",".join(map(str, self.a))}],"extra":{_extra(self.extra)},'
            f'"n":{self.n}}},"rhs":{_string(self.rhs)}}}'
        )

    def summary_line(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        bits = [self.identity, f"n={self.n}", "a=" + ",".join(map(str, self.a))]
        if self.I:
            bits.append("I=" + ",".join(map(str, self.I)))
        if self.J:
            bits.append("J=" + ",".join(map(str, self.J)))
        return f"{' '.join(bits)} :: {verdict} ({self.elapsed_ms:.1f} ms)"


@functools.lru_cache(maxsize=64, typed=True)  # typed: True and 1 encode apart
def _head(engine: str, holds: bool, identity: str) -> str:
    return f'"engine":{_string(engine)},"holds":{dumps(holds)},"identity":{_string(identity)},'


@functools.cache  # one entry per (I, J) the process reports on
def _layer(I: tuple[int, ...], J: tuple[int, ...]) -> str:  # noqa: E741
    return f'"I":[{",".join(map(str, I))}],"J":[{",".join(map(str, J))}],'


def _extra(extra: dict) -> str:
    if type(extra) is Extra:
        return extra.text
    parts = []
    for key in sorted(extra):
        value = extra[key]
        if type(key) is not str or type(value) is not str:
            return dumps(extra)
        parts.append(f"{_string(key)}:{_string(value)}")
    return "{" + ",".join(parts) + "}"


class ReportRow:
    """A check's verdict and its JSON line, as a pool worker sends them
    back.  ``holds`` and ``to_json`` read them as they are; every other
    field and method is that of the ``VerificationReport`` parsed from the
    line on the first such read and kept, its ``params`` object taken apart
    into the fields, with a, I and J made tuples.  So a passing check
    written out with ``--json`` is never parsed."""

    __slots__ = ("holds", "_line", "_report")

    def __init__(self, holds: bool, line: str) -> None:
        self.holds = holds
        self._line = line
        self._report: VerificationReport | None = None

    def to_json(self) -> str:
        return self._line

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # pickle and copy probe these, maybe before __init__
            raise AttributeError(name)
        if self._report is None:
            fields = json.loads(self._line)
            params = fields.pop("params")
            params.update((key, tuple(params[key])) for key in "aIJ")
            self._report = VerificationReport(**fields, **params)
        return getattr(self._report, name)


def report(
    identity: str,
    a: tuple[int, ...],
    layer,
    t0: float,
    holds: bool,
    lhs: Any,
    rhs: Any,
    extra: Callable[[], dict] | None = None,
) -> VerificationReport:
    """The report of one check of the exponent vector a on ``layer``, a
    compiled ``Layout`` or, for the lemma reports, an ``Instance``, begun
    at t0 (a ``time.perf_counter`` reading).  The clock is read first, so
    ``elapsed_ms`` covers the check and nothing of its report: only then
    are ``extra()`` built and lhs and rhs rendered by ``str``, once when
    they are the same object: ``QPoly`` and ``QRat`` render as their
    ``render`` method does, and an int or a string as itself.  The report
    keeps a and the layer's n and its I and J tuples as they are, and no
    ``extra`` as an empty one."""
    elapsed = time.perf_counter() - t0
    lhs_text = str(lhs)
    return VerificationReport(
        identity, holds, lhs_text, lhs_text if rhs is lhs else str(rhs),
        round(elapsed * 1000.0, 3), layer.n, a, layer.I, layer.J, extra() if extra else {},
    )


def open_jsonl(path: str | None) -> ContextManager[TextIO | None]:
    """The JSONL file at PATH, opened for ``write_jsonl`` before any work,
    so that a path that cannot be written fails first; without a path, a
    context that gives None.  Append mode truncates nothing, so a run that
    fails leaves an old file as it was.  The one open serves both the check
    and the write: closing the new file and opening it again took 10-20% of
    the median ``verify`` on the deep-pruned benchmark, on an ext4 disk."""
    return nullcontext() if path is None else open(path, "a", encoding="utf-8")


def write_jsonl(out: TextIO | None, reports: Iterable, summary: dict | None = None) -> None:
    """One JSON line per report, then the summary if given, into ``out``,
    a file ``open_jsonl`` opened, in place of what it held; without a file
    nothing is encoded."""
    if out is None:
        return
    if out.seekable() and out.tell():  # an old file: its lines go
        out.truncate(0)
    for rep in reports:
        out.write(rep.to_json() + "\n")
    if summary is not None:
        out.write(dumps(summary) + "\n")
