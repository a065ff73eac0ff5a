"""Operators in the algebra generated by the right regular representation.

Every operator here acts on functions over a finite group as right
convolution by a kernel c, i.e. (F u)(x) = (u * c)(x), which is the matrix
F[x, y] = c(y^-1 x).  The normalized trace is evaluation at the identity,
tau(F) = <F delta_e, delta_e> = c(e), so tau(I) = 1 and the Fourier
coefficient tau(F rho(g)) recovers c(g) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AffiliationError,
    GroupMismatchError,
    InvalidPError,
    NotSelfAdjointError,
)
from .groups import FiniteGroup, GroupFunction, convolve, group_function, same_group

__all__ = [
    "BLOCK_STRUCTURES",
    "ConvolutionOperator",
    "ProjectionOperator",
    "SpectralData",
    "block_spectrum",
    "fourier_coefficient",
    "identity_operator",
    "is_positive",
    "lambda_matrix",
    "lp_norm",
    "operator_from_coefficients",
    "operator_from_matrix",
    "operator_leq",
    "rho_matrix",
    "spectral_data",
    "support_projection",
    "trace_tau",
    "zero_operator",
]

_RECONSTRUCTION_TOL = 1e-9


class ConvolutionOperator:
    """Right convolution by a fixed kernel, with a lazily built dense matrix.

    Instances are immutable; the matrix cache is filled at most once with a
    value that only depends on the kernel, so a racing first access on two
    threads writes the same array (idempotent fill).
    """

    __slots__ = ("group", "coefficients", "_matrix")

    def __init__(self, coefficients: GroupFunction):
        self.group = coefficients.group
        self.coefficients = coefficients
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = _convolution_matrices(self.group, self.coefficients.values)
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def adjoint(self) -> "ConvolutionOperator":
        g = self.group
        vals = np.conj(self.coefficients.values[g.inverses])
        return ConvolutionOperator(group_function(g, vals))

    def apply(self, u: GroupFunction) -> GroupFunction:
        """Act on a function; same as convolving u with the kernel."""
        return convolve(u, self.coefficients)

    def __add__(self, other: "ConvolutionOperator") -> "ConvolutionOperator":
        self._check_group(other)
        return ConvolutionOperator(
            group_function(self.group, self.coefficients.values + other.coefficients.values)
        )

    def __sub__(self, other: "ConvolutionOperator") -> "ConvolutionOperator":
        self._check_group(other)
        return ConvolutionOperator(
            group_function(self.group, self.coefficients.values - other.coefficients.values)
        )

    def __mul__(self, scalar: complex) -> "ConvolutionOperator":
        return ConvolutionOperator(
            group_function(self.group, scalar * self.coefficients.values)
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "ConvolutionOperator") -> "ConvolutionOperator":
        # (F_c F_d) u = u * d * c, so the product kernel is d * c.
        self._check_group(other)
        kernel = convolve(other.coefficients, self.coefficients)
        return ConvolutionOperator(kernel)

    def _check_group(self, other: "ConvolutionOperator") -> None:
        if not same_group(self.group, other.group):
            raise GroupMismatchError("operators live over different groups")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvolutionOperator(order={self.group.order})"


class ProjectionOperator(ConvolutionOperator):
    """A convolution operator that is an orthogonal projection."""


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a selfadjoint operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tolerance: float


def _convolution_matrices(group: FiniteGroup, kernels: np.ndarray) -> np.ndarray:
    """Dense matrices F[x, y] = c(y^-1 x) of one kernel or a (k, order) stack."""
    idx = group.table[group.inverses].T  # idx[x, y] = y^-1 x
    return kernels[..., idx]


def operator_from_coefficients(coefficients: GroupFunction) -> ConvolutionOperator:
    """Wrap a kernel as the operator sum_g c(g) rho(g)*."""
    return ConvolutionOperator(coefficients)


def identity_operator(group: FiniteGroup) -> ConvolutionOperator:
    vals = np.zeros(group.order, dtype=np.complex128)
    vals[group.identity] = 1.0
    return ConvolutionOperator(group_function(group, vals))


def zero_operator(group: FiniteGroup) -> ConvolutionOperator:
    return ConvolutionOperator(
        group_function(group, np.zeros(group.order, dtype=np.complex128))
    )


def rho_matrix(group: FiniteGroup, g: int) -> np.ndarray:
    """Right regular representation: rho(g) maps delta_y to delta_{y g^-1}."""
    n = group.order
    mat = np.zeros((n, n), dtype=np.complex128)
    rows = group.table[:, group.inverse(g)]
    mat[rows, np.arange(n)] = 1.0
    return mat


def lambda_matrix(group: FiniteGroup, g: int) -> np.ndarray:
    """Left regular representation: lambda(g) maps delta_y to delta_{g y}."""
    n = group.order
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[group.table[g], np.arange(n)] = 1.0
    return mat


def trace_tau(op: ConvolutionOperator) -> complex:
    """Normalized trace: the matrix entry at (identity, identity)."""
    e = op.group.identity
    return complex(op.matrix[e, e])


def fourier_coefficient(op: ConvolutionOperator, g: int) -> complex:
    """tau(F rho(g)), read off the matrix; reproduces the stored kernel."""
    e = op.group.identity
    return complex(op.matrix[e, op.group.inverse(g)])


def _exponent(p) -> float:
    """A p-norm exponent as a float in [1, inf]; anything else is InvalidPError."""
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise InvalidPError(f"p-norm exponent {p!r} is not a number") from exc
    if math.isnan(p) or p < 1:
        raise InvalidPError(f"p-norm exponent {p} is outside [1, inf]")
    return p


def lp_norm(op: ConvolutionOperator, p: float) -> float:
    """Noncommutative p-norm tau(|F|^p)^(1/p); p = inf gives the operator norm.

    |F| and tau are evaluated through the eigendecomposition of F*F, with the
    spectral weight of each eigenvector u taken as tau(u u*) = |u(e)|^2.  The
    weights sum to 1, and for these group-algebra operators they add up to
    dim(eigenspace)/order on every eigenspace, which is checked in tests.
    """
    return float(_lp_norms(op.matrix[None], op.group.identity, (p,))[0, 0])


def _lp_norms(mats: np.ndarray, identity: int, p_values) -> np.ndarray:
    """lp_norm of each matrix in a (k, n, n) stack, one column per exponent.

    One eigh serves every finite p and one singular-value call p = inf.  The
    final root is taken per value as a scalar power: numpy's array power may
    round differently in the last bit.
    """
    ps = [_exponent(p) for p in p_values]
    out = np.empty((mats.shape[0], len(ps)))
    if any(math.isinf(p) for p in ps):
        norms = np.linalg.svd(mats, compute_uv=False).max(axis=-1)
    if not all(math.isinf(p) for p in ps):
        gram = mats.conj().transpose(0, 2, 1) @ mats
        w, v = np.linalg.eigh(gram)
        mu = np.sqrt(np.clip(w, 0.0, None))
        weights = np.abs(v[:, identity, :]) ** 2
    for i, p in enumerate(ps):
        if math.isinf(p):
            out[:, i] = norms
        else:
            sums = (weights[:, None, :] @ (mu**p)[:, :, None])[:, 0, 0]
            out[:, i] = [s ** (1.0 / p) for s in sums]
    return out


def _check_selfadjoint(mats: np.ndarray, tol: float) -> None:
    """NotSelfAdjointError unless every matrix of the stack is selfadjoint."""
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2), initial=0.0))
    dev = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(dev > tol * scale)
    if bad.size:
        raise NotSelfAdjointError(
            f"operator deviates from selfadjoint by {dev[bad[0]]:.3e}"
        )


def spectral_data(op: ConvolutionOperator, tol: float = 1e-12) -> SpectralData:
    """Eigendecomposition of a selfadjoint convolution operator."""
    w, v = _spectral_stack(op.matrix[None], tol)
    w, v = w[0], v[0]
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralData(w, v, tol)


def _spectral_stack(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a (k, n, n) selfadjoint stack.

    Every matrix must be selfadjoint and rebuild from its decomposition.
    """
    _check_selfadjoint(mats, tol)
    w, v = np.linalg.eigh(mats)
    recon = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    err = np.abs(recon - mats).max(axis=(1, 2), initial=0.0)
    bound = _RECONSTRUCTION_TOL * (1.0 + np.abs(w).max(axis=1, initial=0.0))
    bad = np.flatnonzero(err > bound)
    if bad.size:
        i = bad[0]
        raise NotSelfAdjointError(
            f"eigendecomposition reconstruction error {err[i]:.3e} exceeds {bound[i]:.3e}"
        )
    return w, v


def block_spectrum(kernel: GroupFunction) -> np.ndarray:
    """Ascending spectrum of a selfadjoint convolution operator, block by block.

    The group algebra splits into one block per irreducible representation
    pi, and the operator with kernel c has spectrum the union of the spectra
    of pi(c), each counted dim(pi) times.  For a cyclic product every irrep
    is a character, so the spectrum is the mixed-radix DFT of c.  For D<n>,
    with A and B the DFTs of c on the rotations r^k and the reflections
    r^k s, the 1-dimensional irreps give A[0] +- B[0] (and A[n/2] +- B[n/2]
    for even n) and the 2-dimensional irrep h gives the block
    [[A[h], B[h]], [B[-h], A[-h]]].  The kernel must be selfadjoint,
    c(g^-1) = conj(c(g)), as every self-bracket is.  Other structures raise
    ValueError.
    """
    group = kernel.group
    blocks = _BLOCK_SPECTRA.get(group.structure_tag)
    if blocks is None:
        raise ValueError(
            f"irreducible blocks are known for {sorted(BLOCK_STRUCTURES)}, "
            f"not {group.structure_tag}"
        )
    return np.sort(blocks(group, kernel.values))


def _cyclic_product_blocks(group: FiniteGroup, c: np.ndarray) -> np.ndarray:
    return np.fft.fftn(c.reshape(group.abelian.invariant_factors)).real.ravel()


def _dihedral_blocks(group: FiniteGroup, c: np.ndarray) -> np.ndarray:
    n = group.order // 2
    a, b = np.fft.fft(c[:n]), np.fft.fft(c[n:])
    ends = [0, n // 2] if n % 2 == 0 else [0]
    h = np.arange(1, (n + 1) // 2)
    blocks = np.stack([a[h], b[h], b[-h], a[-h]], axis=-1).reshape(-1, 2, 2)
    return np.concatenate(
        [(a[ends] + b[ends]).real, (a[ends] - b[ends]).real,
         np.repeat(np.linalg.eigvalsh(blocks).ravel(), 2)]
    )


# The structure tags whose irreducible blocks block_spectrum knows.
_BLOCK_SPECTRA = {"cyclic-product": _cyclic_product_blocks, "dihedral": _dihedral_blocks}
BLOCK_STRUCTURES = frozenset(_BLOCK_SPECTRA)


def is_positive(op: ConvolutionOperator, tol: float = 1e-10) -> bool:
    """True when the operator is selfadjoint with spectrum above -tol."""
    mat = op.matrix
    try:
        _check_selfadjoint(mat[None], max(tol, 1e-12))
    except NotSelfAdjointError:
        return False
    w = np.linalg.eigvalsh(mat)
    return bool(w[0] >= -tol)


def operator_leq(
    lhs: ConvolutionOperator, rhs: ConvolutionOperator, tol: float = 1e-10
) -> bool:
    """Operator order: true when rhs - lhs is positive semidefinite."""
    if not same_group(lhs.group, rhs.group):
        raise GroupMismatchError("operator comparison needs one common group")
    return is_positive(rhs - lhs, tol)


def operator_from_matrix(
    group: FiniteGroup, matrix: np.ndarray, tol: float = 1e-10
) -> ConvolutionOperator:
    """Recover the kernel of a matrix that commutes with left translations.

    The kernel is read off the identity row; if rebuilding the dense matrix
    from it does not reproduce the input, the matrix does not belong to the
    algebra and AffiliationError is raised.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = group.order
    if matrix.shape != (n, n):
        raise AffiliationError(f"matrix shape {matrix.shape} != ({n}, {n})")
    kernel, _ = _kernels_from_matrices(group, matrix[None], tol)
    return ConvolutionOperator(group_function(group, kernel[0]))


def _kernels_from_matrices(
    group: FiniteGroup, mats: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Kernels of a (k, n, n) stack read off the identity row, and their matrices.

    AffiliationError unless each rebuilt matrix reproduces its input.
    """
    kernels = mats[:, group.identity, group.inverses]
    rebuilt = _convolution_matrices(group, kernels)
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2), initial=0.0))
    dev = np.abs(rebuilt - mats).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(dev > tol * scale)
    if bad.size:
        raise AffiliationError(
            f"matrix is not a convolution operator (deviation {dev[bad[0]]:.3e})"
        )
    return kernels, rebuilt


def support_projection(
    op: ConvolutionOperator, tol: float = 1e-10
) -> ProjectionOperator:
    """Projection onto the range of a selfadjoint operator.

    Eigenvalues with |value| <= tol * max(1, operator norm) count as zero.
    The projection is itself a convolution operator; that is verified by
    rebuilding it from its kernel.
    """
    kernel = _support_projections(op.group, op.matrix[None], tol)[0]
    return ProjectionOperator(group_function(op.group, kernel))


def _support_projections(group: FiniteGroup, mats: np.ndarray, tol: float) -> np.ndarray:
    """Support projection kernels of a (k, n, n) stack of selfadjoint matrices.

    Projections of equal rank are formed in one product, so each keeps the
    bits of its own basis @ basis* product.
    """
    w, v = _spectral_stack(mats, 1e-12)
    norm_inf = np.abs(w).max(axis=1, initial=0.0)
    keep = np.abs(w) > tol * np.maximum(1.0, norm_inf)[:, None]
    ranks = keep.sum(axis=1)
    proj = np.empty_like(mats)
    for rank in np.unique(ranks):
        rows = np.flatnonzero(ranks == rank)
        cols = np.nonzero(keep[rows])[1].reshape(rows.size, rank)
        basis = np.take_along_axis(v[rows], cols[:, None, :], axis=2)
        proj[rows] = basis @ basis.conj().transpose(0, 2, 1)
    kernels, mat = _kernels_from_matrices(group, proj, max(tol, 1e-10))
    idem = np.abs(mat @ mat - mat).max(axis=(1, 2), initial=0.0)
    bound = 1e-10 * np.maximum(1.0, np.abs(mat).max(axis=(1, 2), initial=0.0))
    bad = np.flatnonzero(idem > bound)
    if bad.size:
        raise AffiliationError(f"support projection not idempotent ({idem[bad[0]]:.3e})")
    return kernels
