"""Deterministic CSV/JSON emission.

Reports never contain wall-clock data; floats are serialized with repr (the
shortest round-trip form), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):  # numpy floats too, written as plain Python floats
        return repr(float(v))
    return str(v)


def write_csv(path: str, header, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
