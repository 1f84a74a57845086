"""The JSONL line rule that jsonl.write_lines' templates reproduce, kept as
the tests' oracle: json.dumps(rec, sort_keys=True) and a newline per record.

line_floats() gives floats whose repr takes each of its forms, the inputs of
the tests that compare a %r template with it.
"""
import json
import math
from pathlib import Path

import numpy as np


def write_jsonl(path, records) -> None:
    """Write one json.dumps(rec, sort_keys=True) line per record."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    Path(path).write_text(text, encoding="utf-8")


def line_floats() -> list[float]:
    """Floats whose repr takes each of its forms: the shortest repr at every
    third decimal exponent, subnormals included; the signed zeros; the
    points where repr switches between fixed and exponent notation, and their
    neighbours; and values that need all 17 significant digits."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    for e in range(-324, 309, 3):
        for mantissa in ("1", "4.9", "1.2345678901234567"):
            v = float(f"{mantissa}e{e}")
            if v != 0.0 and math.isfinite(v):
                values += [v, -v]
    for switch in (1e-4, 1e-5, 1e16):
        values += [switch, np.nextafter(switch, 0.0).item(), np.nextafter(switch, math.inf).item()]
    values += [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0 * 1e-7, math.pi, 2.0**53 + 2.0, 123456789012345.67]
    return values
