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
from functools import cached_property
from pathlib import Path

import numpy as np

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

# Rows per block when a product law is evaluated are chosen so one block
# holds about this many entries, whatever the order.
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
    """A finite group presented by its parsed structure and its product law.

    `structure` is ("cyclic-product", factors), ("dihedral", n),
    ("heisenberg", N) or ("custom-table",).  A builtin group evaluates its
    product law row by row; a group built from a table keeps that table.
    """

    structure: tuple
    order: int
    inverses: np.ndarray  # (order,)
    is_abelian: bool
    identity: int = 0

    @property
    def structure_tag(self) -> str:
        return self.structure[0]

    @property
    def spec(self) -> str | None:
        """The builtin spec this group parses from, e.g. 'Z2xZ4'; None for a table."""
        kind = self.structure_tag
        if kind == "cyclic-product":
            return "x".join(f"Z{d}" for d in self.structure[1])
        if kind == "dihedral":
            return f"D{self.structure[1]}"
        if kind == "heisenberg":
            return f"H{self.structure[1]}"
        return None

    @cached_property
    def abelian(self) -> AbelianStructure | None:
        """Coordinates of a cyclic product; None for every other structure."""
        if self.structure_tag != "cyclic-product":
            return None
        factors = self.structure[1]
        coords = np.stack(np.unravel_index(np.arange(self.order), factors), axis=1)
        return AbelianStructure(factors, _freeze(coords.astype(np.int64)))

    @cached_property
    def generators(self) -> tuple[np.ndarray, np.ndarray]:
        """A generating set S and the products x*s of every x with each s in S.

        Returns (S, columns) with columns[i, x] = x * S[i], found as
        _generating_set finds them, so |S| <= log2(order).  A builtin reads
        each column from one row of its law, x*s = (s^-1 x^-1)^-1, and fills
        no table.
        """
        inv = self.inverses
        return _generating_set(self.order, self.identity, lambda s: inv[self.rows(inv[s])[inv]])

    @cached_property
    def table(self) -> np.ndarray:
        """The (order, order) table[a, b] = a*b, built on first use."""
        return _freeze(self.rows(np.arange(self.order)))

    def rows(self, elements) -> np.ndarray:
        """The products a*b for each a in elements and b over the group.

        The result has the shape of elements plus a last axis of length
        order.  A filled table is read; otherwise the product law of the
        structure fills the rows in blocks of about _TABLE_BATCH_ENTRIES.
        """
        elements = np.asarray(elements, dtype=np.int64)
        table = vars(self).get("table")
        if table is not None:
            return table[elements]
        law, size = _LAWS[self.structure_tag], self.structure[1]
        flat = elements.reshape(-1)
        out = np.empty((flat.size, self.order), dtype=np.int64)
        step = max(1, _TABLE_BATCH_ENTRIES // self.order)
        for start in range(0, flat.size, step):
            law(size, flat[start : start + step], out[start : start + step])
        return out.reshape(*elements.shape, self.order)

    def product(self, a: int, b: int) -> int:
        return int(self.rows(a)[b])

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
    """True when two group objects describe the same multiplication table.

    Equal builtin structures have equal tables; any other pair compares
    its tables.
    """
    if g1 is g2 or (g1.structure_tag != "custom-table" and g1.structure == g2.structure):
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


def _cyclic_law(factors: tuple[int, ...], rows: np.ndarray, out: np.ndarray) -> None:
    """out[i, b] = rows[i] * b in Z_d1 x ... x Z_dk, last factor fastest.

    Each digit adds mod its factor on its own: the (rows, d) block of
    ((x + y) mod d) * stride copies windows of one doubled arange.  The
    blocks are summed from the last factor outward, so the innermost axis
    of each sum is the longest, and the last sum is written into out.
    """
    total, stride = np.zeros((rows.size, 1), dtype=np.int64), 1
    for x, d in zip(np.unravel_index(rows, factors)[::-1], factors[::-1]):
        wrapped = np.arange(2 * d, dtype=np.int64) % d * stride
        # Row y of sums is the window wrapped[y : y + d].
        sums = np.ndarray((d, d), wrapped.dtype, wrapped, 0, 2 * wrapped.strides)
        stride *= d
        target = out.reshape(rows.size, d, -1) if stride == out.shape[1] else None
        total = np.add(sums[x][:, :, None], total[:, None, :], out=target)
        total = total.reshape(rows.size, -1)


def _dihedral_law(n: int, rows: np.ndarray, out: np.ndarray) -> None:
    """out[i, b] = rows[i] * b in D_n, indexed as in dihedral_group.

    j only flips the reflection part of a product, and the rotation part
    (a +- b) mod n is the same for both j.
    """
    k1, j1 = (rows % n)[:, None], (rows // n)[:, None]
    kp = (1 - 2 * j1) * np.arange(n)
    kp += k1
    np.remainder(kp, n, out=kp)
    jp = (j1 ^ np.arange(2)) * n
    np.add(jp[:, :, None], kp[:, None, :], out=out.reshape(-1, 2, n))


def _heisenberg_law(p: int, rows: np.ndarray, out: np.ndarray) -> None:
    """out[i, b] = rows[i] * b in H_p, indexed as in heisenberg_group.

    The a and b digits add mod p on their own, and the c digit is c' shifted
    by c + a*b' mod p; these three sums mod p are gathers from one doubled
    arange.
    """
    ra, rb, rc = (x[:, None] for x in np.unravel_index(rows, (p, p, p)))
    digits = np.arange(p)
    wrapped = np.arange(2 * p, dtype=np.int64) % p
    high = wrapped[ra + digits] * (p * p)
    mid = wrapped[rb + digits] * p
    shift = (rc + ra * digits) % p
    view = out.reshape(-1, p, p, p)
    np.add(high[:, :, None, None], mid[:, None, :, None], out=view)
    view += wrapped[shift[:, :, None] + digits][:, None, :, :]


# The product law of each builtin structure kind, called as
# law(size, rows, out) on a block of rows.
_LAWS = {
    "cyclic-product": _cyclic_law,
    "dihedral": _dihedral_law,
    "heisenberg": _heisenberg_law,
}


def _check_order(order: int, max_order: int) -> None:
    """Refuse a group whose order exceeds max_order."""
    if order > max_order:
        raise OrderTooLargeError(f"order {order} exceeds cap {max_order}")


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
    _check_order(order, max_order)

    # The inverse negates every digit: index -x mod d along each factor's axis.
    negated = np.ix_(*((-np.arange(d)) % d for d in factors))
    inverses = np.arange(order, dtype=np.int64).reshape(factors)[negated].ravel()
    return FiniteGroup(("cyclic-product", factors), order, _freeze(inverses), True)


def dihedral_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^k and reflections r^k s.

    Index j*n + k stands for r^k s^j with s r s^-1 = r^-1, so products follow
    (r^a s^i)(r^b s^j) = r^(a + (-1)^i b) s^(i+j).
    """
    n = int(n)
    if n < 2:
        raise ParseError(f"dihedral parameter {n} is below 2")
    order = 2 * n
    _check_order(order, max_order)

    idx = np.arange(order, dtype=np.int64)
    k, j = idx % n, idx // n
    inverses = j * n + np.where(j == 0, (-k) % n, k)
    return FiniteGroup(("dihedral", n), order, _freeze(inverses), n <= 2)


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
    _check_order(order, max_order)

    a, b, c = np.unravel_index(np.arange(order, dtype=np.int64), (p, p, p))
    inverses = (((-a) % p) * p + ((-b) % p)) * p + ((-c + a * b) % p)
    return FiniteGroup(("heisenberg", p), order, _freeze(inverses), False)


def _generating_set(order: int, identity: int, column) -> tuple[np.ndarray, np.ndarray]:
    """A generating set S of a group and its columns x -> x*s.

    column(s) gives the products x*s of every x.  The right Cayley graph of S
    is closed from the identity, and whenever the closure stops short of the
    whole table, its first unreached element joins S.  In a group the closure
    H is a subgroup, and a new generator s adds the coset H*s, which misses
    H; so each generator at least doubles the closure, and |S| <= log2(order).
    On a table that is no group, the search stops at the first generator that
    does not.  Returns S as int64 and the (|S|, order) int64 columns.
    """
    seen = [False] * order
    seen[identity] = True
    members, gens, columns, steps = [identity], [], [], []
    doubled = True
    while doubled and len(members) < order:
        s = seen.index(False)
        gens.append(s)
        columns.append(np.asarray(column(s), dtype=np.int64))
        steps.append(columns[-1].tolist())  # the loop below indexes lists faster
        # Old members step along the new generator, new ones along every one.
        size, i = len(members), 0
        while i < len(members):
            x = members[i]
            for step in steps if i >= size else steps[-1:]:
                if not seen[step[x]]:
                    seen[step[x]] = True
                    members.append(step[x])
            i += 1
        doubled = len(members) >= 2 * size
    gens = _freeze(np.array(gens, dtype=np.int64))
    return gens, _freeze(np.array(columns, dtype=np.int64).reshape(gens.size, order))


def _check_associative(table: np.ndarray, generators) -> None:
    """Light's test: (x*s)*y = x*(s*y) for all x, y and every s in generators.

    The elements s that pass it are closed under products (Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1.2), so a table that
    passes it on a set generating it is associative.  Rows x run in blocks
    of about _TABLE_BATCH_ENTRIES entries.
    """
    n = table.shape[0]
    step = max(1, _TABLE_BATCH_ENTRIES // n)
    for s in generators:
        column, row = table[:, s], table[s]
        for start in range(0, n, step):
            left = table[column[start : start + step]]  # (x*s)*y
            right = np.take(table[start : start + step], row, axis=1)  # x*(s*y)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise NotAssociativeError(
                    f"(a*b)*c != a*(b*c) at (a, b, c) = ({start + x}, {s}, {y})"
                )


def make_group_from_table(table, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build a group from an explicit multiplication table, verifying the axioms.

    The checks run in order: entries, a two-sided identity, two-sided
    inverses, then associativity by Light's test on a generating set.
    """
    try:
        arr = np.array(table)
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
    _check_order(n, max_order)
    if arr.min() < 0 or arr.max() >= n:
        raise MalformedTableError("table entries fall outside 0..order-1")
    arr = arr.astype(np.int64, copy=False)

    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(arr[e], idx) and np.array_equal(arr[:, e], idx):
            identity = e
            break
    if identity is None:
        raise NoIdentityError("no two-sided identity element")

    # The inverse of x is the first y with x*y = y*x = identity.
    inverses = np.empty(n, dtype=np.int64)
    step = max(1, _TABLE_BATCH_ENTRIES // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        both = (arr[rows] == identity) & (arr[:, rows].T == identity)
        missing = np.flatnonzero(~both.any(axis=1))
        if missing.size:
            raise NoInverseError(f"element {start + missing[0]} has no two-sided inverse")
        inverses[rows] = np.argmax(both, axis=1)
    _freeze(inverses)

    # The search for S stops early only at a generator s that does not double
    # the closure, and Light's test then fails on S.  Were it to pass, s and
    # every element of the closure H of the other generators would have an
    # injective row and column (each has an inverse), H would be a group, and
    # H*s would miss H and double it.
    gens, columns = _generating_set(n, identity, lambda s: arr[:, s])
    _check_associative(arr, gens)

    # A group is abelian when its generators commute with every element.
    is_abelian = all(np.array_equal(arr[s], col) for s, col in zip(gens, columns))
    group = FiniteGroup(("custom-table",), n, inverses, is_abelian, int(identity))
    # The given table fills the cache that rows and table read.
    vars(group)["table"] = _freeze(arr)
    vars(group)["generators"] = (gens, columns)
    return group


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


def character_table(group: FiniteGroup) -> np.ndarray:
    """All characters as a matrix X[m, a] = value of character m at element a.

    Character m has values exp(+2i pi sum_i m_i a_i / d_i), with the phases
    reduced to integer numerators before exponentiation, so equal phases
    give equal floats.  Built on each call, it is the reference for
    characters() and the tests; no command builds it.
    """
    if group.abelian is None:
        raise NotAbelianError("characters need an abelian group with coordinates")
    factors = group.abelian.invariant_factors
    denom = math.lcm(*factors)
    weights = np.asarray([denom // d for d in factors], dtype=np.int64)
    coords = group.abelian.coords
    numer = (coords @ (coords * weights).T) % denom
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    return _freeze(roots[numer])


def characters(group: FiniteGroup) -> list[Character]:
    """The dual group of an abelian group, enumerated by mixed-radix exponents."""
    table = character_table(group)
    coords = group.abelian.coords
    return [Character(tuple(map(int, coords[m])), table[m]) for m in range(group.order)]


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
    idx = group.rows(np.arange(group.order))[:, group.inverses]  # idx[x, h] = x * h^-1
    return (u[..., idx] @ v[..., None])[..., 0]
