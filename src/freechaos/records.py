"""The output format of every report, in one place.

A report is a frozen dataclass that inherits Record. Its to_dict() writes the
dataclass fields in declaration order and then the properties named in
DERIVED, so the dict's key order is the report's CSV column order (JSON output
is key-sorted and does not depend on it). The field `lam` is written as
"lambda", a complex value as `<name>_re` and `<name>_im`, a tuple as a list
(with records inside it as dicts), and a dict as a copy. A float that is not
finite is refused, since neither JSON nor a number column can hold it.
rows_to_csv writes such dicts as CSV, one row each, under the first row's keys.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from typing import ClassVar


class Record:
    """Base of the report dataclasses, which name their derived columns in DERIVED."""

    DERIVED: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        out: dict = {}
        for name in [f.name for f in dataclasses.fields(self)] + list(self.DERIVED):
            value = getattr(self, name)
            key = "lambda" if name == "lam" else name
            if isinstance(value, complex):
                out[f"{key}_re"] = require_finite(f"{key}_re", value.real)
                out[f"{key}_im"] = require_finite(f"{key}_im", value.imag)
            elif isinstance(value, tuple):
                out[key] = [v.to_dict() if isinstance(v, Record) else require_finite(key, v) for v in value]
            elif isinstance(value, dict):
                out[key] = {k: require_finite(k, v) for k, v in value.items()}
            else:
                out[key] = require_finite(key, value)
        return out


def require_finite(key: str, value):
    """value itself, refused with a ValueError that names key when it is a non-finite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"outside the float range: {key} = {value!r}")
    return value


def rows_to_csv(rows: list[dict]) -> str:
    """Header from the first row's keys, then one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    keys = list(rows[0].keys())
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_cell(row[k]) for k in keys])
    return out.getvalue()


def _cell(x) -> str:
    # booleans as JSON writes them, floats with every digit a float64 holds
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)
