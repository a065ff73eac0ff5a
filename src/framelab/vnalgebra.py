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
    idx = group.rows(group.inverses).T  # idx[x, y] = y^-1 x
    return kernels[..., idx]


def _hermitian_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of the hermitized matrix (F + F*) / 2.

    Halving before the sum is exact and keeps a kernel near the largest
    float from overflowing.
    """
    half = matrix / 2.0
    return np.linalg.eigvalsh(half + half.conj().T)


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
    # y g^-1 = (g y^-1)^-1, so the targets come from the one row of g.
    rows = group.inverses[group.rows(g)[group.inverses]]
    mat[rows, np.arange(n)] = 1.0
    return mat


def lambda_matrix(group: FiniteGroup, g: int) -> np.ndarray:
    """Left regular representation: lambda(g) maps delta_y to delta_{g y}."""
    n = group.order
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[group.rows(g), np.arange(n)] = 1.0
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


def _zero_level(values: np.ndarray, tol: float) -> np.ndarray:
    """tol times the largest value along the last axis, never below 0; kept dims."""
    return tol * values.max(axis=-1, keepdims=True, initial=0.0)


def _check_rounding(dev: np.ndarray, size: np.ndarray, tol: float, error, what: str) -> None:
    """error unless each deviation is within tol times the size of what it guards.

    No max(1, ...) floor: a guard refuses the same inputs at every scale.
    """
    bad = np.flatnonzero(dev > tol * size)
    if bad.size:
        i = bad[0]
        raise error(f"{what}: deviation {dev[i]:.3e} above {tol * size[i]:.3e}")


def spectral_data(op: ConvolutionOperator, tol: float = 1e-12) -> SpectralData:
    """Eigendecomposition of a selfadjoint convolution operator.

    NotSelfAdjointError when the operator deviates from selfadjoint by more
    than tol times its largest entry, or the decomposition fails to rebuild it
    within 1e-9 times its norm: the same refusal at every scale.
    """
    w, v = _spectral_stack(op.matrix[None], tol)
    w, v = w[0], v[0]
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralData(w, v, tol)


def _spectral_stack(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a (k, n, n) selfadjoint stack.

    Every matrix must be selfadjoint within tol times its largest entry and
    rebuild from its decomposition within 1e-9 times its norm, max |w|:
    entries understate the norm by up to a factor of the order.
    """
    size = np.abs(mats).max(axis=(1, 2), initial=0.0)
    dev = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    _check_rounding(dev, size, tol, NotSelfAdjointError, "operator is not selfadjoint")
    w, v = np.linalg.eigh(mats)
    recon = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    err = np.abs(recon - mats).max(axis=(1, 2), initial=0.0)
    norm = np.abs(w).max(axis=1, initial=0.0)
    what = "eigendecomposition does not rebuild the operator"
    _check_rounding(err, norm, _RECONSTRUCTION_TOL, NotSelfAdjointError, what)
    return w, v


def block_spectrum(kernel: GroupFunction) -> np.ndarray:
    """Ascending spectrum of a selfadjoint convolution operator, block by block.

    Over the cosets A t of an abelian subgroup A (FiniteGroup.layout), the
    entries F[b t, b' s] = c(s^-1 b'^-1 b t) depend on b'^-1 b alone, so the
    characters of A split F into one [G:A] x [G:A] block per character: the
    DFT over A of c(s^-1 b t).  Any group is accepted; on a cyclic product
    A is the group and the spectrum is the DFT of c.  The kernel must be
    selfadjoint, c(g^-1) = conj(c(g)), as every self-bracket is.
    """
    group, c = kernel.group, kernel.values
    cosets = group.layout  # cosets[t, b] = b t
    if (index := len(cosets)) == 1:
        return np.sort(np.fft.fftn(c[cosets[0]]).real.ravel())
    left = group.rows(group.inverses[cosets.reshape(index, -1)[:, 0]])  # s^-1 g
    # blocks[s, t, chi] is block chi at (t, s); its transpose has its spectrum.
    blocks = np.fft.fftn(c[left[:, cosets]], axes=tuple(range(2, cosets.ndim + 1)))
    stack = np.moveaxis(blocks.reshape(index, index, -1), -1, 0)
    return np.sort(np.linalg.eigvalsh(stack).ravel())


def is_positive(op: ConvolutionOperator, tol: float = 1e-10) -> bool:
    """True when the operator is selfadjoint with spectrum above -tol * size.

    size is the operator's largest entry, against which the selfadjoint
    deviation is weighed too, so the answer is the same at every scale.
    """
    return _is_positive(op, (op,), tol)


def operator_leq(
    lhs: ConvolutionOperator, rhs: ConvolutionOperator, tol: float = 1e-10
) -> bool:
    """Operator order: true when rhs - lhs is positive semidefinite.

    Read as is_positive(rhs - lhs), with size the largest entry of lhs and
    rhs, never of their difference, which may be all rounding.
    """
    if not same_group(lhs.group, rhs.group):
        raise GroupMismatchError("operator comparison needs one common group")
    return _is_positive(rhs - lhs, (lhs, rhs), tol)


def _is_positive(op: ConvolutionOperator, operands, tol: float) -> bool:
    """is_positive of op, its rounding weighed against the operands' largest entry."""
    size = max(np.abs(x.coefficients.values).max() for x in operands)
    mat = op.matrix
    dev = np.abs(mat - mat.conj().T).max()
    return bool(dev <= max(tol, 1e-12) * size and np.linalg.eigvalsh(mat)[0] >= -tol * size)


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
    size = np.abs(mats).max(axis=(1, 2), initial=0.0)
    dev = np.abs(rebuilt - mats).max(axis=(1, 2), initial=0.0)
    _check_rounding(dev, size, tol, AffiliationError, "matrix is not a convolution operator")
    return kernels, rebuilt


def support_projection(
    op: ConvolutionOperator, tol: float = 1e-10
) -> ProjectionOperator:
    """Projection onto the range of a selfadjoint operator.

    Eigenvalues with |value| <= tol * operator norm count as zero, as in analyze.
    The projection is itself a convolution operator; that is verified by
    rebuilding it from its kernel.  Each guard weighs rounding against the
    size of what it checks, so the refusals are the same at every scale.
    """
    kernels, _ = _support_projections(op.group, op.matrix[None], tol)
    return ProjectionOperator(group_function(op.group, kernels[0]))


def _support_projections(
    group: FiniteGroup, mats: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Support projections of a (k, n, n) stack of selfadjoint matrices.

    Returns their kernels and the convolution matrices rebuilt from them.
    Projections of equal rank are formed in one product, so each keeps the
    bits of its own basis @ basis* product.
    """
    w, v = _spectral_stack(mats, 1e-12)
    keep = np.abs(w) > _zero_level(np.abs(w), tol)
    ranks = keep.sum(axis=1)
    proj = np.empty_like(mats)
    # The ranks present, in increasing order; np.unique would import numpy.ma.
    for rank in np.flatnonzero(np.bincount(ranks)):
        rows = np.flatnonzero(ranks == rank)
        cols = np.nonzero(keep[rows])[1].reshape(rows.size, rank)
        basis = np.take_along_axis(v[rows], cols[:, None, :], axis=2)
        proj[rows] = basis @ basis.conj().transpose(0, 2, 1)
    kernels, mat = _kernels_from_matrices(group, proj, max(tol, 1e-10))
    idem = np.abs(mat @ mat - mat).max(axis=(1, 2), initial=0.0)
    size = np.abs(mat).max(axis=(1, 2), initial=0.0)
    _check_rounding(idem, size, 1e-10, AffiliationError, "support projection is not idempotent")
    return kernels, mat
