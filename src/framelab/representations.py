"""Unitary representations of finite groups and orbit correlation data."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimMismatchError, DimTooLargeError, ParseError
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

# Pairs per batch when checking the group law, and orbit rows per block when
# an orbit is gathered (_orbit_blocks), are chosen so one batch holds about
# this many entries, whatever the dimension.
_LAW_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class UnitaryRepresentation:
    """A monomial unitary action: (U(g) v)[x] = phase[g, x] * v[src[g, x]].

    Every representation built here permutes coordinates and multiplies them
    by unit phases.  `model`, the parsed spec ("regular",), ("shift", n, m)
    or ("gabor", l, m), fixes the action, and rows(elements), which
    evaluates the sources and phases of any elements from it, is its one
    reader: no (order, dim) rows are kept.
    """

    group: FiniteGroup
    dim: int
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

    def rows(self, elements) -> tuple[np.ndarray, np.ndarray]:
        """The sources (int64) and phases (complex128) of U(g) for g in elements.

        Each has the shape of elements plus a last axis of length dim.  A
        regular row reads the product law, (lambda(g) v)[x] = v[g^-1 x]; a
        shift or gabor source row is a window of one doubled arange; a
        permutation's phases are a read-only view of the value one.
        """
        elements = np.asarray(elements, dtype=np.int64)
        kind, *sizes = self.model
        if kind == "regular":
            src = self.group.rows(self.group.inverses[elements])
        else:
            # Row r of windows is (x + r) mod dim.  Shift k moves by k * m,
            # and gabor element k * m + j by the same k * m.
            m, dim = sizes[1], self.dim
            shifts = elements * m if kind == "shift" else elements - elements % m
            twice = np.arange(2 * dim)
            twice[dim:] -= dim
            windows = np.ndarray((dim + 1, dim), twice.dtype, twice, 0, 2 * twice.strides)
            src = windows[dim - shifts]
        if kind != "gabor":
            return src, np.broadcast_to(np.complex128(1), src.shape)
        return src, self._modulations[elements % sizes[1]]

    @cached_property
    def _modulations(self) -> np.ndarray:
        """(m, dim) complex128 gabor phases: row j is that of modulation j.

        The phase index l * j * x mod dim is l * (j * x mod m), so this one
        block holds the phase row of every element.
        """
        _, l, m = self.model
        x = np.arange(self.dim)
        roots = np.exp(-2j * np.pi * x / self.dim)
        return _freeze(roots[l * ((x[:m, None] * x) % m)])

    def matrix(self, g: int) -> np.ndarray:
        """The dense (dim, dim) matrix of one element."""
        src, phase = self.rows(g)
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mat[np.arange(self.dim), src] = phase
        return _freeze(mat)

    @cached_property
    def matrices(self) -> np.ndarray:
        """All dense matrices as an (order, dim, dim) tensor, built on first use."""
        order = self.group.order
        src, phase = self.rows(np.arange(order))
        mats = np.zeros((order, self.dim, self.dim), dtype=np.complex128)
        mats[np.arange(order)[:, None], np.arange(self.dim), src] = phase
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
    passed: bool
    failing_pair: tuple[int, int] | None


def _as_generator(vec, dim: int) -> np.ndarray:
    """vec as a flat complex vector, refused unless it has dim finite values."""
    arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if arr.shape != (dim,):
        raise DimMismatchError(
            f"generator has length {arr.shape[0]}, representation dim is {dim}"
        )
    if not np.isfinite(arr).all():
        raise ParseError("generator holds a non-finite value")
    return arr


def _check_dim(dim: int) -> None:
    """Refuse a space above DEFAULT_MAX_DIM, as it reads at call time."""
    if dim > DEFAULT_MAX_DIM:
        raise DimTooLargeError(f"dimension {dim} exceeds cap {DEFAULT_MAX_DIM}")


def regular_representation(group: FiniteGroup) -> UnitaryRepresentation:
    """Left translation on functions over the group.

    lambda(g) maps delta_y to delta_{g y}, so (lambda(g) v)[x] = v[g^-1 x].
    Its dimension is the group order, refused over the dimension cap before
    any product is evaluated.
    """
    _check_dim(group.order)
    return UnitaryRepresentation(group, group.order, ("regular",))


def _check_shift_sizes(n: int, m: int) -> None:
    if n < 2 or m < 1:
        raise ParseError(f"shift model needs N >= 2 and M >= 1, got {n}, {m}")


def shift_model_representation(
    n: int, m: int, max_order: int = DEFAULT_MAX_ORDER
) -> UnitaryRepresentation:
    """Z_n acting on C^(n*m) by cyclic shifts of stride m.

    Element k shifts a signal by k*m samples, so the orbit of delta_0 visits
    delta_0, delta_m, delta_2m, ...  With m = 1 this is exactly the left
    regular representation of Z_n.  The sizes are checked for range, then
    the order n against max_order, then the dimension n*m against the cap.
    """
    n, m = int(n), int(m)
    _check_shift_sizes(n, m)
    group = make_abelian_group([n], max_order=max_order)
    _check_dim(n * m)
    return UnitaryRepresentation(group, n * m, ("shift", n, m))


def _check_gabor_sizes(l: int, m: int) -> None:
    if l < 2 or m < 2:
        raise ParseError(f"gabor model needs factors at least 2, got {l}, {m}")


def gabor_representation(
    l: int, m: int, max_order: int = DEFAULT_MAX_ORDER
) -> UnitaryRepresentation:
    """Z_l x Z_m acting on C^(l*m) by stride-m shifts and stride-l modulations.

    Element (k, j) acts as modulation by frequency l*j after a shift by m*k:
    (u(k, j) v)(x) = exp(-2i pi l j x / n) v(x - m k), n = l*m.  On this
    lattice the commutator phase exp(-2i pi (lj)(mk) / n) is exp(-2i pi jk),
    identically one, so the family is a genuine representation.  Phases are
    reduced to integers mod n before exponentiation, which keeps products of
    these matrices commuting exactly.  The sizes are checked as in
    shift_model_representation; here order and dimension are both l*m.
    """
    l, m = int(l), int(m)
    _check_gabor_sizes(l, m)
    group = make_abelian_group([l, m], max_order=max_order)
    _check_dim(l * m)
    return UnitaryRepresentation(group, l * m, ("gabor", l, m))


def _product_action(
    src: np.ndarray, phase: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sources and phases of U(a) U(b) for each pair (a, b).

    src and phase are the (order, dim) rows of every element.  U(a) U(b)
    reads coordinate src[b][src[a]] with phase phase[a] * phase[b][src[a]];
    each entry of the dense product is that one product of phases.
    """
    via = src[a]
    right = b[:, None]
    return src[right, via], phase[a] * phase[right, via]


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


def verify_representation(rep: UnitaryRepresentation, tol: float = 1e-12) -> RepVerification:
    """Check the identity, unitarity of every element, and the group law.

    The law U(a s) = U(a) U(s) is checked for every element a and every s
    in the group's generating set S (FiniteGroup.generators): with U(e) = 1
    it then holds for every pair, by induction on the length of a word in
    S.  That is order * |S| pairs, each a*s read from the columns of S, at
    every order.  A wrong source coordinate counts as a deviation of at
    least 1.
    """
    group, n, d = rep.group, rep.group.order, rep.dim
    src, phase = rep.rows(np.arange(n))
    coords = np.arange(d)

    e = group.identity
    id_dev = float(np.abs(phase[e] - 1.0).max())
    if not np.array_equal(src[e], coords):
        id_dev = max(id_dev, 1.0)
    # U(g) is unitary exactly when src[g] is a permutation and |phase| is 1.
    unit_dev = float(np.abs(np.abs(phase) - 1.0).max())
    if not (np.sort(src, axis=1) == coords).all():
        unit_dev = max(unit_dev, 1.0)

    gens, columns = group.generators
    a = np.tile(np.arange(n), gens.size)
    b, ab = np.repeat(gens, n), columns.reshape(-1)
    step = max(1, _LAW_BATCH_ENTRIES // d)
    devs = np.zeros(a.size)
    for i in range(0, a.size, step):
        pairs = slice(i, i + step)
        product = _product_action(src, phase, a[pairs], b[pairs])
        devs[pairs] = _action_deviation(*product, src[ab[pairs]], phase[ab[pairs]])
    hom_dev = float(devs.max(initial=0.0))
    worst = None
    if hom_dev > 0:
        at = int(np.argmax(devs))
        worst = (int(a[at]), int(b[at]))

    max_dev = max(id_dev, unit_dev, hom_dev)
    passed = max_dev <= tol
    return RepVerification(
        max_deviation=max_dev,
        identity_deviation=id_dev,
        unitarity_deviation=unit_dev,
        homomorphism_deviation=hom_dev,
        checked_pairs=int(a.size),
        passed=passed,
        failing_pair=None if passed else worst,
    )


def orbit_rows(orbit: OrbitSystem) -> np.ndarray:
    """(order, dim) array whose row g is the generator moved by element g."""
    return _orbit_stack(orbit.rep, _as_generator(orbit.generator, orbit.rep.dim))


def _orbit_stack(rep: UnitaryRepresentation, psis: np.ndarray, elements=None) -> np.ndarray:
    """orbit_rows of one generator, or of each row of a (k, dim) stack.

    Only the rows of the given elements, or of every element, are gathered,
    from rep.rows.  np.take keeps each (order, dim) block C-contiguous, as
    BLAS needs it to run the products on it exactly as on a single
    generator.  The gather lands in a fresh complex buffer that the phases
    multiply in place, with the phase as the left operand: complex products
    round differently with their operands swapped.
    """
    src, phase = rep.rows(np.arange(rep.group.order) if elements is None else elements)
    moved = np.take(psis.astype(np.complex128, copy=False), src, axis=-1)
    return np.multiply(phase, moved, out=moved)


def _orbit_blocks(rep: UnitaryRepresentation, psi: np.ndarray):
    """(elements, their _orbit_stack of psi) for each block of the group.

    No whole (order, dim) orbit is formed: the blocks hold about
    _LAW_BATCH_ENTRIES entries each, and are of near-equal size, as a block
    of one row would take a vector-vector product, which rounds differently.
    """
    order = rep.group.order
    blocks = -(-order * rep.dim // _LAW_BATCH_ENTRIES)
    for elements in np.array_split(np.arange(order), blocks):
        yield elements, _orbit_stack(rep, psi, elements)


def orbit_matrix(orbit: OrbitSystem) -> np.ndarray:
    """Synthesis matrix whose column g is the generator moved by element g."""
    return orbit_rows(orbit).T.copy()


def correlation_function(rep: UnitaryRepresentation, phi, psi) -> GroupFunction:
    """g -> <phi, U(g) psi>, linear in phi, from the blocks of _orbit_blocks."""
    phi = _as_generator(phi, rep.dim)
    psi = _as_generator(psi, rep.dim)
    values = np.empty(rep.group.order, dtype=np.complex128)
    for elements, moved in _orbit_blocks(rep, psi):
        values[elements] = _kernel_values(moved, phi)
    return group_function(rep.group, values)


def _kernel_values(moved: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """<phi, U(g) psi> from moved, the _orbit_stack of the psis.

    One generator pair or (k, dim) stacks of them: a stack runs the same
    matrix-vector product per row as a single pair, so each row keeps its
    bits.  moved is conjugated in place, so a caller that also needs the
    orbit itself takes what it needs from it first.
    """
    np.conjugate(moved, out=moved)
    return (moved @ phis[..., None])[..., 0]


def bracket_operator(rep: UnitaryRepresentation, phi, psi) -> ConvolutionOperator:
    """The operator whose Fourier coefficients are <phi, U(g) psi>."""
    return operator_from_coefficients(correlation_function(rep, phi, psi))


def parse_rep_spec(spec: str, max_order: int = DEFAULT_MAX_ORDER) -> UnitaryRepresentation:
    """Resolve 'regular:GROUP', 'shift:N,M', or 'gabor:L,M'.

    Only the grammar is checked here; each builder checks the range of its
    own parameters and the order and dimension caps.
    """
    spec = spec.strip()
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ParseError(f"representation spec {spec!r} has no ':'")
    if head == "regular":
        return regular_representation(group_from_spec(tail, max_order=max_order))
    builders = {"shift": shift_model_representation, "gabor": gabor_representation}
    if head not in builders:
        raise ParseError(f"unknown representation kind {head!r}")
    parts = tail.split(",")
    if len(parts) != 2 or not all(_is_count(p.strip()) for p in parts):
        raise ParseError(f"{head} spec needs two integers, got {tail!r}")
    return builders[head](*(int(p) for p in parts), max_order=max_order)
