"""File formats for generators and reports."""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import NonFiniteResultError, ParseError

__all__ = [
    "SCHEMA",
    "dump_json",
    "load_generator",
    "pairs_from_complex",
    "spectrum_csv",
    "values_csv",
]

SCHEMA = "frame-lab/1"

_JSON_NUMBER_TYPES = frozenset((int, float))
_LIST_TYPE = frozenset((list,))

# One level of dump_json's two-space indent.
_INDENT = "  "
# The C encoder, which writes a list of numbers in one call as "[a, b]" with
# the same float and int spellings as the indenting encoder.
_COMPACT = json.JSONEncoder(allow_nan=False)

# A CSV number is a plain decimal or exponent number, or a spelling of NaN or
# infinity that the finiteness check then reports.  float() alone would also
# read digit-group underscores ("1_0" as 10.0) and non-ASCII digits.
_CSV_NUMBER = re.compile(
    r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|nan|inf(?:inity)?)",
    re.ASCII | re.IGNORECASE,
)


def load_generator(path) -> np.ndarray:
    """Read a complex vector from a JSON or CSV generator file.

    JSON files carry {"dim": n, "values": [[re, im], ...]} with every re, im
    a JSON number; CSV files carry one `re,im` pair per line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError covers UnicodeDecodeError and a path holding a NUL.
        raise ParseError(f"cannot read generator file {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix.lower() == ".json" or stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"generator file {path} is not valid JSON") from exc
        if not isinstance(payload, dict) or "values" not in payload:
            raise ParseError(f"generator file {path} lacks a 'values' field")
        values = payload["values"]
        try:
            # A string or boolean is not a number, though float() and numpy
            # would read one.
            if not isinstance(values, list) or not _JSON_NUMBER_TYPES.issuperset(
                map(type, chain.from_iterable(values))
            ):
                raise TypeError("values must be JSON numbers")
            parts = np.asarray(values, dtype=np.float64)
            if parts.size and parts.shape != (len(values), 2):
                raise ValueError("values must be pairs")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(
                f"generator file {path} values must be [re, im] pairs of numbers"
            ) from exc
        arr = parts.reshape(-1, 2).view(np.complex128).reshape(-1)
        if arr.shape[0] == 0:
            raise ParseError(f"generator file {path} holds no values")
        dim = payload.get("dim")
        if dim is not None:
            if isinstance(dim, bool) or not (
                isinstance(dim, int) or (isinstance(dim, float) and dim.is_integer())
            ):
                raise ParseError(
                    f"generator file {path} has a non-integer dim {dim!r}"
                )
            dim = int(dim)
            if dim != arr.shape[0]:
                raise ParseError(
                    f"generator file {path} says dim={dim} but holds {arr.shape[0]} values"
                )
        return _finite(arr, path)
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(
                f"generator file {path} line {line_no}: expected 're,im'"
            )
        tokens = [part.strip() for part in parts]
        if not all(_CSV_NUMBER.fullmatch(token) for token in tokens):
            raise ParseError(f"generator file {path} line {line_no}: bad number")
        rows.append(complex(float(tokens[0]), float(tokens[1])))
    if not rows:
        raise ParseError(f"generator file {path} holds no values")
    return _finite(np.asarray(rows, dtype=np.complex128), path)


def _finite(arr: np.ndarray, path: Path) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ParseError(f"generator file {path} holds a non-finite value")
    return arr


def pairs_from_complex(values: np.ndarray) -> list[list[float]]:
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    return arr.view(np.float64).reshape(-1, 2).tolist()


def values_csv(values: np.ndarray) -> str:
    """Complex values as CSV with the exact header index,re,im."""
    lines = ["index,re,im"]
    for i, v in enumerate(values):
        lines.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def spectrum_csv(values: np.ndarray) -> str:
    """Real spectrum as CSV with the exact header eig_index,value."""
    lines = ["eig_index,value"]
    for i, v in enumerate(values):
        lines.append(f"{i},{float(v)!r}")
    return "\n".join(lines) + "\n"


def dump_json(payload) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, trailing newline.

    The bytes are those of json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) plus a newline.  With an indent, CPython's json module
    runs its pure-Python encoder; this writer renders the same text and puts
    a list of numbers, or of number lists, through the C encoder in one call.  A value it does not handle goes to json.dumps, which spells
    the output or the error.  A NaN or infinity has no JSON spelling, so it is
    refused rather than written as a bare NaN.
    """
    try:
        try:
            return _json_text(payload, "\n") + "\n"
        except (TypeError, ValueError, RecursionError):
            return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError(f"output holds a non-finite number: {exc}") from exc


def _json_text(value, newline: str) -> str:
    """One value as dump_json writes it, at the level whose line break is newline.

    Raises TypeError on a value or key json.dumps would treat differently
    from these cases, and ValueError on a non-finite float.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float")
        return float.__repr__(value)
    inner = newline + _INDENT
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        bulk = _number_list_text(value, newline, inner)
        if bulk is not None:
            return bulk
        body = ("," + inner).join(_json_text(item, inner) for item in value)
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("non-string key")
        body = ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        )
        return "{" + inner + body + newline + "}"
    raise TypeError(f"no fast spelling for {type(value).__name__}")


def _number_list_text(value, newline: str, inner: str) -> str | None:
    """A list of numbers or of non-empty number lists, rendered in one pass.

    The compact rendering is re-indented by replacing its separators; no
    int or float repr holds a bracket, a comma or a space, and without an
    empty row "[[" and "]]" occur only at the two ends.  Returns None for any
    other list.
    """
    if _JSON_NUMBER_TYPES.issuperset(map(type, value)):
        compact = _COMPACT.encode(value)
        return "[" + inner + compact[1:-1].replace(", ", "," + inner) + newline + "]"
    if not (_LIST_TYPE.issuperset(map(type, value)) and all(value)):
        return None
    if not _JSON_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(value))):
        return None
    row = inner + _INDENT
    compact = _COMPACT.encode(value)
    return (
        compact.replace("], [", inner + "]," + inner + "[" + row)
        .replace(", ", "," + row)
        .replace("[[", "[" + inner + "[" + row)
        .replace("]]", inner + "]" + newline + "]")
    )
