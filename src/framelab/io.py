"""File formats for generators and reports."""

from __future__ import annotations

import json
import re
from itertools import chain
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
    return [[float(v.real), float(v.imag)] for v in values]


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


def dump_json(payload: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, trailing newline.

    A NaN or infinity has no JSON spelling, so it is refused rather than
    written as a bare NaN.
    """
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError(f"output holds a non-finite number: {exc}") from exc
