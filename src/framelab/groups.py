"""Finite groups, their duals, and convolution on the group algebra.

Elements of a group of order n are the indices 0..n-1.  Abelian groups built
from a factor list [d1, ..., dk] identify index and coordinates through the
mixed-radix rule with the last factor varying fastest, so for a single factor
[N] the element index is just the residue and the dual enumeration below lines
up with the usual N-point discrete Fourier indexing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyFactorsError,
    GroupMismatchError,
    MalformedTableError,
    NoIdentityError,
    NoInverseError,
    NotAbelianError,
    NotAssociativeError,
    OrderTooLargeError,
    ParseError,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
    "AbelianStructure",
    "Character",
    "FiniteGroup",
    "GroupFunction",
    "character_table",
    "characters",
    "convolve",
    "delta",
    "dihedral_group",
    "group_function",
    "group_from_spec",
    "heisenberg_group",
    "make_abelian_group",
    "make_builtin_group",
    "make_group_from_table",
    "same_group",
]

DEFAULT_MAX_ORDER = 4096

# Exhaustive associativity checking is cubic; above this order we fall back
# to randomized triples.
_EXHAUSTIVE_ASSOC_ORDER = 512
_RANDOM_ASSOC_TRIPLES = 100_000

# Rows per block when a product law is evaluated into a table are chosen so
# one block holds about this many entries, whatever the order.
_TABLE_BATCH_ENTRIES = 1 << 18

# Longest digit run a spec may use for one count; int() refuses runs past
# sys.get_int_max_str_digits(), and any count this long is far above a cap.
_MAX_COUNT_DIGITS = 100


@dataclass(frozen=True, eq=False)
class AbelianStructure:
    """Coordinate data for a product of cyclic groups.

    The factor list is kept exactly as given (no invariant-factor
    normalization), since the element indexing depends on it.
    """

    invariant_factors: tuple[int, ...]
    coords: np.ndarray  # (order, k) integer coordinates, row per element


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group presented by its full multiplication table."""

    order: int
    table: np.ndarray  # (order, order), table[a, b] = a*b
    inverses: np.ndarray  # (order,)
    identity: int
    is_abelian: bool
    structure_tag: str  # cyclic-product | dihedral | heisenberg | custom-table
    abelian: AbelianStructure | None = None
    spec: str | None = None

    def product(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverses[a])

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.spec or self.structure_tag
        return f"FiniteGroup({name}, order={self.order})"


@dataclass(frozen=True, eq=False)
class Character:
    """One character of an abelian group: exponents and values on all elements."""

    exponents: tuple[int, ...]
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """A complex-valued function on a group, stored as a dense vector."""

    group: FiniteGroup
    values: np.ndarray


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def same_group(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """True when two group objects describe the same multiplication table."""
    if g1 is g2:
        return True
    return g1.order == g2.order and bool(np.array_equal(g1.table, g2.table))


def group_function(group: FiniteGroup, values) -> GroupFunction:
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (group.order,):
        raise GroupMismatchError(
            f"function has shape {vals.shape}, expected ({group.order},)"
        )
    return GroupFunction(group, _freeze(vals.copy()))


def delta(group: FiniteGroup, index: int) -> GroupFunction:
    """The point mass at one element."""
    vals = np.zeros(group.order, dtype=np.complex128)
    vals[index] = 1.0
    return GroupFunction(group, _freeze(vals))


def _mixed_radix_coords(factors: tuple[int, ...]) -> np.ndarray:
    order = math.prod(factors)
    coords = np.stack(
        np.unravel_index(np.arange(order), factors), axis=1
    ).astype(np.int64)
    return coords


def _cyclic_sums(d: int, scale: int) -> np.ndarray:
    """The (d, d) array scale * ((x + y) mod d), as windows of one short row."""
    wrapped = (np.arange(2 * d, dtype=np.int64) % d) * scale
    return sliding_window_view(wrapped, d)[:d]


def _cyclic_product_table(factors: tuple[int, ...]) -> np.ndarray:
    """Multiplication table of Z_d1 x ... x Z_dk, last factor fastest.

    The table grows from the last factor outward inside its own top-left
    corner.  When the corner of side n holds the table of the suffix group
    G, prepending Z_d gives

        table[(x, a), (y, b)] = n * ((x + y) mod d) + table_G[a, b].

    Rows x >= 1 are written from the corner; row x = 0 is then copied from
    row x = 1, because (0, y) = (1, y - 1) for y >= 1.  Every source lies in
    rows its target does not touch, so no step copies its input and the
    build needs the memory of one table.
    """
    order = math.prod(factors)
    table = np.empty((order, order), dtype=np.int64)
    n = factors[-1]
    table[:n, :n] = _cyclic_sums(n, 1)
    for d in reversed(factors[:-1]):
        corner = table[:n, :n]
        rows = table[n : d * n, : d * n].reshape(d - 1, n, d, n)
        steps = _cyclic_sums(d, n)[1:]
        np.add(corner[None, :, None, :], steps[:, None, :, None], out=rows)
        table[:n, n : d * n] = table[n : 2 * n, : (d - 1) * n]
        n *= d
    return table


def _blocked_table(order: int, law) -> np.ndarray:
    """Fill a table by calling law(rows, out) on blocks of consecutive rows."""
    table = np.empty((order, order), dtype=np.int64)
    step = max(1, _TABLE_BATCH_ENTRIES // order)
    for start in range(0, order, step):
        stop = min(start + step, order)
        law(np.arange(start, stop), table[start:stop])
    return table


def make_abelian_group(
    factors, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteGroup:
    """Direct product of cyclic groups Z_d1 x ... x Z_dk."""
    factors = tuple(int(d) for d in factors)
    if len(factors) == 0:
        raise EmptyFactorsError("at least one cyclic factor is required")
    for d in factors:
        if d < 2:
            raise EmptyFactorsError(f"cyclic factor {d} is below 2")
    order = math.prod(factors)
    if order > max_order:
        raise OrderTooLargeError(f"order {order} exceeds cap {max_order}")

    table = _cyclic_product_table(factors)
    dims = np.asarray(factors, dtype=np.int64)
    coords = _mixed_radix_coords(factors)
    inverses = np.ravel_multi_index(tuple(((-coords) % dims).T), factors)

    spec = "x".join(f"Z{d}" for d in factors)
    structure = AbelianStructure(factors, _freeze(coords))
    return FiniteGroup(
        order=order,
        table=_freeze(table),
        inverses=_freeze(inverses.astype(np.int64)),
        identity=0,
        is_abelian=True,
        structure_tag="cyclic-product",
        abelian=structure,
        spec=spec,
    )


def dihedral_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^k and reflections r^k s.

    Index j*n + k stands for r^k s^j with s r s^-1 = r^-1, so products follow
    (r^a s^i)(r^b s^j) = r^(a + (-1)^i b) s^(i+j).
    """
    n = int(n)
    if n < 2:
        raise ParseError(f"dihedral parameter {n} is below 2")
    order = 2 * n
    if order > max_order:
        raise OrderTooLargeError(f"order {order} exceeds cap {max_order}")

    idx = np.arange(order)
    k, j = idx % n, idx // n
    rot = k[:n]

    def law(rows: np.ndarray, out: np.ndarray) -> None:
        # out[row, j2, k2]: j2 only flips the reflection part of the product,
        # and the rotation part (k1 +- k2) mod n is the same for both j2.
        k1, j1 = k[rows, None], j[rows, None]
        kp = (1 - 2 * j1) * rot
        kp += k1
        np.remainder(kp, n, out=kp)
        jp = (j1 ^ np.arange(2)) * n
        np.add(jp[:, :, None], kp[:, None, :], out=out.reshape(-1, 2, n))

    table = _blocked_table(order, law)
    inv_k = np.where(j == 0, (-k) % n, k)
    inverses = j * n + inv_k

    return FiniteGroup(
        order=order,
        table=_freeze(table),
        inverses=_freeze(inverses.astype(np.int64)),
        identity=0,
        is_abelian=bool(n <= 2),
        structure_tag="dihedral",
        spec=f"D{n}",
    )


def heisenberg_group(p: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z_p, order p^3.

    An element is the coordinate triple (a, b, c) for the matrix with a, b on
    the superdiagonal and c in the corner; index = (a*p + b)*p + c.  Products
    compose as (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b') mod p.
    """
    p = int(p)
    if p < 2:
        raise ParseError(f"heisenberg parameter {p} is below 2")
    order = p**3
    if order > max_order:
        raise OrderTooLargeError(f"order {order} exceeds cap {max_order}")

    coords = _mixed_radix_coords((p, p, p))
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]

    digits = np.arange(p)
    c_sums = _cyclic_sums(p, 1)

    def law(rows: np.ndarray, out: np.ndarray) -> None:
        # out[row, a', b', c']: the a and b digits add mod p on their own, and
        # the c digit is a shift of c' by c + a*b' mod p.
        ra, rb, rc = a[rows, None], b[rows, None], c[rows, None]
        high = (ra + digits) % p * (p * p)
        mid = (rb + digits) % p * p
        shift = (rc + ra * digits) % p
        view = out.reshape(-1, p, p, p)
        np.add(high[:, :, None, None], mid[:, None, :, None], out=view)
        view += c_sums[shift][:, None, :, :]

    table = _blocked_table(order, law)
    inverses = (((-a) % p) * p + ((-b) % p)) * p + ((-c + a * b) % p)

    return FiniteGroup(
        order=order,
        table=_freeze(table),
        inverses=_freeze(inverses.astype(np.int64)),
        identity=0,
        is_abelian=False,
        structure_tag="heisenberg",
        spec=f"H{p}",
    )


def _check_associative(table: np.ndarray) -> None:
    n = table.shape[0]
    if n <= _EXHAUSTIVE_ASSOC_ORDER:
        for a in range(n):
            left = table[table[a], :]  # (a*b)*c
            right = table[a][table]  # a*(b*c)
            if not np.array_equal(left, right):
                b, c = np.argwhere(left != right)[0]
                raise NotAssociativeError(
                    f"(a*b)*c != a*(b*c) at (a, b, c) = ({a}, {b}, {c})"
                )
        return
    rng = np.random.default_rng(0)
    trips = rng.integers(0, n, size=(_RANDOM_ASSOC_TRIPLES, 3))
    left = table[table[trips[:, 0], trips[:, 1]], trips[:, 2]]
    right = table[trips[:, 0], table[trips[:, 1], trips[:, 2]]]
    bad = np.nonzero(left != right)[0]
    if bad.size:
        a, b, c = trips[bad[0]]
        raise NotAssociativeError(
            f"(a*b)*c != a*(b*c) at (a, b, c) = ({a}, {b}, {c})"
        )


def make_group_from_table(table, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build a group from an explicit multiplication table, verifying the axioms."""
    try:
        arr = np.asarray(table)
    except ValueError as exc:
        raise MalformedTableError("table rows are ragged") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise MalformedTableError(f"table has shape {arr.shape}, expected square")
    # Booleans, strings and objects (such as ints beyond int64) are not
    # element indices; floats are, when they hold whole numbers.
    if arr.dtype.kind not in "iuf" or (
        arr.dtype.kind == "f" and not np.all(arr == np.floor(arr))
    ):
        raise MalformedTableError("table entries are not integers")
    n = arr.shape[0]
    if n > max_order:
        raise OrderTooLargeError(f"order {n} exceeds cap {max_order}")
    if arr.min() < 0 or arr.max() >= n:
        raise MalformedTableError("table entries fall outside 0..order-1")
    arr = arr.astype(np.int64)

    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(arr[e], idx) and np.array_equal(arr[:, e], idx):
            identity = e
            break
    if identity is None:
        raise NoIdentityError("no two-sided identity element")

    _check_associative(arr)

    right_inv = np.argmax(arr == identity, axis=1)
    if not np.all(arr[idx, right_inv] == identity):
        bad = int(np.nonzero(arr[idx, right_inv] != identity)[0][0])
        raise NoInverseError(f"element {bad} has no right inverse")
    if not np.all(arr[right_inv, idx] == identity):
        bad = int(np.nonzero(arr[right_inv, idx] != identity)[0][0])
        raise NoInverseError(f"element {bad} has no two-sided inverse")

    return FiniteGroup(
        order=n,
        table=_freeze(arr),
        inverses=_freeze(right_inv.astype(np.int64)),
        identity=int(identity),
        is_abelian=bool(np.array_equal(arr, arr.T)),
        structure_tag="custom-table",
    )


def _is_count(text: str) -> bool:
    """True for a run of ASCII digits short enough for int() to read.

    str.isdigit alone also accepts digits such as '²' that int() rejects.
    """
    return text.isascii() and text.isdigit() and len(text) <= _MAX_COUNT_DIGITS


def make_builtin_group(name: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build a group from a name: Z<n>, Z<n>x...xZ<m>, D<n>, or H<p>."""
    name = name.strip()
    if not name:
        raise ParseError("empty group spec")
    if name[0] == "Z":
        parts = name.split("x")
        factors = []
        for part in parts:
            if len(part) < 2 or part[0] != "Z" or not _is_count(part[1:]):
                raise ParseError(f"bad cyclic factor {part!r} in {name!r}")
            factors.append(int(part[1:]))
        if any(d < 2 for d in factors):
            raise ParseError(f"cyclic factors must be at least 2 in {name!r}")
        return make_abelian_group(factors, max_order=max_order)
    if name[0] == "D":
        if not _is_count(name[1:]):
            raise ParseError(f"bad dihedral spec {name!r}")
        return dihedral_group(int(name[1:]), max_order=max_order)
    if name[0] == "H":
        if not _is_count(name[1:]):
            raise ParseError(f"bad heisenberg spec {name!r}")
        return heisenberg_group(int(name[1:]), max_order=max_order)
    raise ParseError(f"unrecognized group spec {name!r}")


def group_from_spec(spec: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Resolve a group spec string, including table:PATH references."""
    spec = spec.strip()
    if spec.startswith("table:"):
        path = Path(spec[len("table:"):])
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            # ValueError covers UnicodeDecodeError and a path holding a NUL.
            raise ParseError(f"cannot read table file {path}: {exc}") from exc
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedTableError(f"table file {path} is not valid JSON") from exc
        if isinstance(payload, dict):
            payload = payload.get("table", None)
        if payload is None:
            raise MalformedTableError(f"table file {path} holds no table")
        return make_group_from_table(payload, max_order=max_order)
    return make_builtin_group(spec, max_order=max_order)


def _character_phase_table(group: FiniteGroup) -> tuple[np.ndarray, int]:
    """Integer phase numerators t with character value exp(2i pi t / lcm)."""
    structure = group.abelian
    assert structure is not None
    factors = structure.invariant_factors
    denom = math.lcm(*factors)
    weights = np.asarray([denom // d for d in factors], dtype=np.int64)
    coords = structure.coords
    return (coords @ (coords * weights).T) % denom, denom


def character_table(group: FiniteGroup) -> np.ndarray:
    """All characters as a matrix X[m, a] = value of character m at element a.

    Character m has values exp(+2i pi sum_i m_i a_i / d_i); phases are reduced
    to integer numerators before exponentiation so equal phases give equal
    floats.  The table is cached on the group's abelian structure; the fill is
    idempotent, so a concurrent first access is harmless.
    """
    if group.abelian is None:
        raise NotAbelianError("characters need an abelian group with coordinates")
    cached = getattr(group.abelian, "_char_table", None)
    if cached is not None:
        return cached
    numer, denom = _character_phase_table(group)
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    table = _freeze(roots[numer])
    object.__setattr__(group.abelian, "_char_table", table)
    return table


def characters(group: FiniteGroup) -> list[Character]:
    """The dual group of an abelian group, enumerated by mixed-radix exponents."""
    table = character_table(group)
    coords = group.abelian.coords
    return [
        Character(tuple(int(x) for x in coords[m]), table[m])
        for m in range(group.order)
    ]


def convolve(u: GroupFunction, v: GroupFunction) -> GroupFunction:
    """Group convolution (u*v)(g) = sum_h u(g h^-1) v(h)."""
    if not same_group(u.group, v.group):
        raise GroupMismatchError("convolution needs both functions on one group")
    return GroupFunction(u.group, _freeze(_convolve_values(u.group, u.values, v.values)))


def _convolve_values(group: FiniteGroup, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u * v for the last axis of two value arrays, one row pair at a time.

    A stack of rows goes through one matmul that runs the same matrix-vector
    product per row as a single pair does, so each row keeps its bits.
    """
    idx = group.table[:, group.inverses]  # idx[x, h] = x * h^-1
    return (u[..., idx] @ v[..., None])[..., 0]
