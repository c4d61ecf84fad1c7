#!/usr/bin/env python3
"""Regenerate ``pins.json``: run every unit any seed or grid set can draw and
record its outputs.  Refuses to pin a unit that fails or exits non-zero.

    python3 benchmark/make_pins.py

Pins change only when the reports are meant to change; a speed-up must
leave them as they are.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qdyson import cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pins = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        path = os.path.join(tmp, "out.jsonl")
        for unit in workloads.all_units():
            rc = workloads.call(cli.main, unit, path)
            with open(path, encoding="utf-8") as fh:
                outputs = gate.read_unit(fh.read(), rc)
            if rc != 0 or outputs["bad_verdicts"]:
                print(f"error: {unit['key']} exited {rc} with "
                      f"{outputs['bad_verdicts']} wrong verdicts", file=sys.stderr)
                return 1
            pins[unit["key"]] = {k: outputs[k] for k in gate.COMPARED}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items())]
    with open(gate.PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {len(pins)} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
