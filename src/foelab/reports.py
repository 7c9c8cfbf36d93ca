"""Deterministic CSV and JSON emission.

Byte stability contract: fixed column order, floats at 17 significant
digits, LF line endings, sorted JSON keys, strict JSON (no Infinity or
NaN: a non-finite float is an error).  Two runs of the same
computation must produce identical files.
"""

from __future__ import annotations

import json
import os

__all__ = ["format_value", "write_csv", "write_json", "csv_text"]


def format_value(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def csv_text(header, rows):
    """CSV text of the rows: each a sequence of values (``format_value``)
    or a line already formatted (str)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(format_value(x) for x in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, rows))
    return path


def write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")
    return path
