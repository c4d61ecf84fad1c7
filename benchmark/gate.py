"""Correctness gate: canonical report bytes, verdicts and pinned values.

A report line is canonical once ``elapsed_ms`` is stripped and the object is
re-dumped with sorted keys and compact separators.  A unit's outputs are its
exit code, its number of checks (report lines), the digest of its canonical
lines (summary line included) and, for sweeps, the summary object.  A unit
whose outputs differ from the pinned ones counts every one of its pinned
checks as failed; otherwise a check fails when its verdict is wrong.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")
COMPARED = ("rc", "checks", "digest", "summary")


def _canonical(obj: dict) -> str:
    obj = dict(obj)
    obj.pop("elapsed_ms", None)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def verdict_ok(report: dict) -> bool:
    """Every check holds, except the pinned counterexample, which must fail
    and confirm that it reproduced the known values."""
    extra = report.get("params", {}).get("extra", {})
    if extra.get("expected_failure"):
        return report.get("holds") is False and extra.get("confirmed") is True
    return report.get("holds") is True


def read_unit(text: str, rc) -> dict:
    """Outputs of one unit from its exit code and JSONL text."""
    try:
        objs = [json.loads(line) for line in text.splitlines()]
    except ValueError:
        objs = None
    if objs is None or not all(isinstance(o, dict) for o in objs):
        return {"rc": rc, "checks": 0, "digest": None, "summary": None,
                "bad_verdicts": 0, "elapsed_ms": []}
    reports = [o for o in objs if "identity" in o]
    summaries = [o for o in objs if "identity" not in o]
    body = "".join(_canonical(o) + "\n" for o in objs)
    return {
        "rc": rc,
        "checks": len(reports),
        "digest": hashlib.sha256(body.encode()).hexdigest()[:32],
        "summary": summaries[-1] if summaries else None,
        "bad_verdicts": sum(1 for r in reports if not verdict_ok(r)),
        "elapsed_ms": [r.get("elapsed_ms", 0) for r in reports],
    }


def score(outputs: dict, pin: dict | None) -> tuple[int, int]:
    """(attempted, failed) checks of one unit against its pin."""
    attempted = pin["checks"] if pin else max(outputs["checks"], 1)
    if pin is None or any(outputs[k] != pin[k] for k in COMPARED):
        return attempted, attempted
    return attempted, outputs["bad_verdicts"]


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
