"""Unitary representations of finite groups and orbit correlation data."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimMismatchError,
    DimTooLargeError,
    HomomorphismFailure,
    ParseError,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupFunction,
    _freeze,
    _is_count,
    group_from_spec,
    group_function,
    make_abelian_group,
)
from .vnalgebra import ConvolutionOperator, operator_from_coefficients

__all__ = [
    "DEFAULT_MAX_DIM",
    "OrbitSystem",
    "RepVerification",
    "UnitaryRepresentation",
    "bracket_operator",
    "correlation_function",
    "gabor_representation",
    "orbit_matrix",
    "orbit_rows",
    "parse_rep_spec",
    "regular_representation",
    "shift_model_representation",
    "verify_representation",
]

DEFAULT_MAX_DIM = 4096

# Above this group order, verify_representation samples pairs instead of
# checking all of them.
_EXHAUSTIVE_PAIR_ORDER = 64
_RANDOM_PAIR_COUNT = 200

# Pairs per batch when checking the group law are chosen so one batch holds
# about this many entries, whatever the dimension.
_LAW_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class UnitaryRepresentation:
    """A monomial unitary action: (U(g) v)[x] = phase[g, x] * v[src[g, x]].

    Every representation built here permutes coordinates and multiplies them
    by unit phases, so two read-only (order, dim) arrays hold the whole
    action and the orbit of psi is the single gather phase * psi[src].
    `model` is the parsed spec the routes dispatch on: ("regular",),
    ("shift", n, m) or ("gabor", l, m).
    """

    group: FiniteGroup
    dim: int
    src: np.ndarray  # (order, dim) int64, the coordinate each output reads
    phase: np.ndarray  # (order, dim) complex128
    model: tuple

    @property
    def label(self) -> str:
        """The spec of this representation, e.g. 'shift:4,2' or 'regular:D4'.

        A group built from a table has no spec, and its label is 'regular'.
        """
        kind, *sizes = self.model
        if sizes:
            return f"{kind}:{','.join(map(str, sizes))}"
        return f"regular:{self.group.spec}" if self.group.spec else "regular"

    def matrix(self, g: int) -> np.ndarray:
        """The dense (dim, dim) matrix of one element."""
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mat[np.arange(self.dim), self.src[g]] = self.phase[g]
        return _freeze(mat)

    @cached_property
    def matrices(self) -> np.ndarray:
        """All dense matrices as an (order, dim, dim) tensor, built on first use."""
        order = self.group.order
        mats = np.zeros((order, self.dim, self.dim), dtype=np.complex128)
        mats[np.arange(order)[:, None], np.arange(self.dim), self.src] = self.phase
        return _freeze(mats)


@dataclass(frozen=True, eq=False)
class OrbitSystem:
    """A generator vector together with the representation acting on it."""

    rep: UnitaryRepresentation
    generator: np.ndarray


@dataclass(frozen=True)
class RepVerification:
    """Outcome of checking unitarity, identity, and the group law."""

    max_deviation: float
    identity_deviation: float
    unitarity_deviation: float
    homomorphism_deviation: float
    checked_pairs: int
    exhaustive: bool
    passed: bool
    failing_pair: tuple[int, int] | None


def _as_generator(rep: UnitaryRepresentation, vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if arr.shape != (rep.dim,):
        raise DimMismatchError(
            f"generator has length {arr.shape[0]}, representation dim is {rep.dim}"
        )
    if not np.isfinite(arr).all():
        raise ParseError("generator holds a non-finite value")
    return arr


def _trivial_phase(shape: tuple[int, int]) -> np.ndarray:
    """All-ones phases of a permutation action, as a read-only view of one value."""
    return np.broadcast_to(np.complex128(1), shape)


def _shift_sources(count: int, stride: int, dim: int, repeat: int = 1) -> np.ndarray:
    """Sources (x - stride * k) mod dim of the shifts k = 0..count-1, as rows.

    Each shift's row appears `repeat` times in a row.  The row of shift k is
    the window of one doubled arange that starts at dim - stride * k, so one
    strided view reads every window and one copy lays them out, with no
    remainder taken per entry.
    """
    twice = np.arange(2 * dim)
    twice[dim:] -= dim
    step = twice.strides[0]
    windows = np.ndarray(
        (count, repeat, dim), twice.dtype, twice, dim * step, (-stride * step, 0, step)
    )
    return np.ascontiguousarray(windows).reshape(count * repeat, dim)


def regular_representation(group: FiniteGroup) -> UnitaryRepresentation:
    """Left translation on functions over the group.

    lambda(g) maps delta_y to delta_{g y}, so (lambda(g) v)[x] = v[g^-1 x].
    """
    src = group.table[group.inverses]
    return UnitaryRepresentation(
        group, group.order, _freeze(src), _trivial_phase(src.shape), ("regular",)
    )


def shift_model_representation(
    n: int, m: int, max_dim: int = DEFAULT_MAX_DIM
) -> UnitaryRepresentation:
    """Z_n acting on C^(n*m) by cyclic shifts of stride m.

    Element k shifts a signal by k*m samples, so the orbit of delta_0 visits
    delta_0, delta_m, delta_2m, ...  With m = 1 this is exactly the left
    regular representation of Z_n.
    """
    n, m = int(n), int(m)
    if n < 2 or m < 1:
        raise ParseError(f"shift model needs N >= 2 and M >= 1, got {n}, {m}")
    dim = n * m
    if dim > max_dim:
        raise DimTooLargeError(f"dimension {dim} exceeds cap {max_dim}")
    group = make_abelian_group([n])
    src = _shift_sources(n, m, dim)
    return UnitaryRepresentation(
        group, dim, _freeze(src), _trivial_phase(src.shape), ("shift", n, m)
    )


def gabor_representation(
    l: int, m: int, max_dim: int = DEFAULT_MAX_DIM
) -> UnitaryRepresentation:
    """Z_l x Z_m acting on C^(l*m) by stride-m shifts and stride-l modulations.

    Element (k, j) acts as modulation by frequency l*j after a shift by m*k:
    (u(k, j) v)(x) = exp(-2i pi l j x / n) v(x - m k), n = l*m.  On this
    lattice the commutator phase exp(-2i pi (lj)(mk) / n) is exp(-2i pi jk),
    identically one, so the family is a genuine representation.  Phases are
    reduced to integers mod n before exponentiation, which keeps products of
    these matrices commuting exactly.
    """
    l, m = int(l), int(m)
    if l < 2 or m < 2:
        raise ParseError(f"gabor model needs factors at least 2, got {l}, {m}")
    dim = l * m
    if dim > max_dim:
        raise DimTooLargeError(f"dimension {dim} exceeds cap {max_dim}")
    group = make_abelian_group([l, m])
    x = np.arange(dim)
    roots = np.exp(-2j * np.pi * x / dim)
    # Element index is k * m + j for translation k and modulation j.  The
    # source depends on k alone, and the phase index l * j * x mod n, which is
    # l * (j * x mod m), on j alone: the (m, dim) phase block of j = 0..m-1
    # repeats for every k, read l times through a zero stride.
    src = _shift_sources(l, m, dim, repeat=m)
    block = roots[l * ((x[:m, None] * x) % m)]
    tiled = np.ndarray((l, m, dim), block.dtype, block, 0, (0, *block.strides))
    phase = np.ascontiguousarray(tiled).reshape(dim, dim)
    rep = UnitaryRepresentation(group, dim, _freeze(src), _freeze(phase), ("gabor", l, m))
    _construction_guard(rep)
    return rep


def _product_action(
    rep: UnitaryRepresentation, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sources and phases of U(a) U(b) for each pair (a, b).

    U(a) U(b) reads coordinate src[b][src[a]] with phase
    phase[a] * phase[b][src[a]]; each entry of the dense product is that one
    product of phases.
    """
    via = rep.src[a]
    src = np.take_along_axis(rep.src[b], via, axis=1)
    phase = rep.phase[a] * np.take_along_axis(rep.phase[b], via, axis=1)
    return src, phase


def _action_deviation(
    src: np.ndarray, phase: np.ndarray, other_src: np.ndarray, other_phase: np.ndarray
) -> np.ndarray:
    """Per row, the largest entry of the difference of two monomial matrices.

    A source that differs moves a unit entry, so it counts as a deviation of
    at least 1.
    """
    dev = np.abs(phase - other_phase).max(axis=1)
    moved = (src != other_src).any(axis=1)
    return np.where(moved, np.maximum(dev, 1.0), dev)


def _law_deviation(
    rep: UnitaryRepresentation, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Per pair (a, b), the largest entry of |U(a) U(b) - U(ab)|."""
    ab = rep.group.table[a, b]
    return _action_deviation(*_product_action(rep, a, b), rep.src[ab], rep.phase[ab])


def _construction_guard(rep: UnitaryRepresentation, tol: float = 1e-12) -> None:
    """Cheap sanity check that a constructed family satisfies the group law."""
    rng = np.random.default_rng(0)
    n = rep.group.order
    pairs = min(n * n, 16)
    a = rng.integers(0, n, size=pairs)
    b = rng.integers(0, n, size=pairs)
    bad = np.flatnonzero(_law_deviation(rep, a, b) > tol)
    if bad.size:
        i = bad[0]
        raise HomomorphismFailure(
            f"{rep.label}: group law fails at pair ({a[i]}, {b[i]})"
        )


def verify_representation(
    rep: UnitaryRepresentation, tol: float = 1e-12, seed: int = 0
) -> RepVerification:
    """Check the identity, unitarity of every element, and the group law.

    All pairs are checked when the group order is at most 64; otherwise a
    seeded sample of pairs is used.  A wrong source coordinate counts as a
    deviation of at least 1.
    """
    group, src, phase = rep.group, rep.src, rep.phase
    n, d = group.order, rep.dim
    coords = np.arange(d)

    e = group.identity
    id_dev = float(np.abs(phase[e] - 1.0).max())
    if not np.array_equal(src[e], coords):
        id_dev = max(id_dev, 1.0)
    # U(g) is unitary exactly when src[g] is a permutation and |phase| is 1.
    unit_dev = float(np.abs(np.abs(phase) - 1.0).max())
    if not (np.sort(src, axis=1) == coords).all():
        unit_dev = max(unit_dev, 1.0)

    exhaustive = n <= _EXHAUSTIVE_PAIR_ORDER
    if exhaustive:
        a, b = (idx.ravel() for idx in np.indices((n, n)))
    else:
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, n, size=(_RANDOM_PAIR_COUNT, 2)).T

    step = max(1, _LAW_BATCH_ENTRIES // d)
    devs = np.concatenate(
        [
            _law_deviation(rep, a[i : i + step], b[i : i + step])
            for i in range(0, a.size, step)
        ]
    )
    at = int(np.argmax(devs))
    hom_dev = float(devs[at])
    worst = (int(a[at]), int(b[at])) if hom_dev > 0 else None

    max_dev = max(id_dev, unit_dev, hom_dev)
    passed = max_dev <= tol
    return RepVerification(
        max_deviation=max_dev,
        identity_deviation=id_dev,
        unitarity_deviation=unit_dev,
        homomorphism_deviation=hom_dev,
        checked_pairs=int(a.size),
        exhaustive=exhaustive,
        passed=passed,
        failing_pair=None if passed else worst,
    )


def orbit_rows(orbit: OrbitSystem) -> np.ndarray:
    """(order, dim) array whose row g is the generator moved by element g."""
    return _orbit_stack(orbit.rep, _as_generator(orbit.rep, orbit.generator))


def _orbit_stack(rep: UnitaryRepresentation, psis: np.ndarray) -> np.ndarray:
    """orbit_rows of one generator, or of each row of a (k, dim) stack.

    np.take keeps each (order, dim) block C-contiguous, as BLAS needs it to
    run the products on it exactly as on a single generator.
    """
    return rep.phase * np.take(psis, rep.src, axis=-1)


def orbit_matrix(orbit: OrbitSystem) -> np.ndarray:
    """Synthesis matrix whose column g is the generator moved by element g."""
    return orbit_rows(orbit).T.copy()


def correlation_function(
    rep: UnitaryRepresentation, phi, psi
) -> GroupFunction:
    """g -> <phi, U(g) psi>, with the inner product linear in phi."""
    phi = _as_generator(rep, phi)
    psi = _as_generator(rep, psi)
    return group_function(rep.group, _correlation_values(rep, phi, psi))


def _correlation_values(
    rep: UnitaryRepresentation, phis: np.ndarray, psis: np.ndarray
) -> np.ndarray:
    """correlation_function values of one generator pair or of (k, dim) stacks.

    A stack runs the same matrix-vector product per row as a single pair, so
    each row keeps its bits.
    """
    moved = _orbit_stack(rep, psis)  # (..., order, dim)
    return (moved.conj() @ phis[..., None])[..., 0]


def bracket_operator(
    rep: UnitaryRepresentation, phi, psi
) -> ConvolutionOperator:
    """The operator whose Fourier coefficients are <phi, U(g) psi>."""
    return operator_from_coefficients(correlation_function(rep, phi, psi))


def parse_rep_spec(
    spec: str,
    max_order: int = DEFAULT_MAX_ORDER,
    max_dim: int = DEFAULT_MAX_DIM,
) -> UnitaryRepresentation:
    """Resolve 'regular:GROUP', 'shift:N,M', or 'gabor:L,M'.

    Only the grammar and the caps are checked here; each builder checks the
    range of its own parameters.  A regular representation's dimension is
    its order, so its group is refused over either cap before its table is
    built.
    """
    spec = spec.strip()
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ParseError(f"representation spec {spec!r} has no ':'")
    if head == "regular":
        return regular_representation(
            group_from_spec(tail, max_order=min(max_order, max_dim))
        )
    if head not in ("shift", "gabor"):
        raise ParseError(f"unknown representation kind {head!r}")
    parts = tail.split(",")
    if len(parts) != 2 or not all(_is_count(p.strip()) for p in parts):
        raise ParseError(f"{head} spec needs two integers, got {tail!r}")
    a, b = (int(p) for p in parts)
    if head == "shift":
        if a > max_order:
            raise ParseError(f"shift group order {a} exceeds cap {max_order}")
        return shift_model_representation(a, b, max_dim=max_dim)
    if a * b > max_order:
        raise ParseError(f"gabor group order {a * b} exceeds cap {max_order}")
    return gabor_representation(a, b, max_dim=max_dim)
