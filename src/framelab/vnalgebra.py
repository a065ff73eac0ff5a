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
            g = self.group
            idx = g.table[g.inverses].T  # idx[x, y] = y^-1 x
            mat = self.coefficients.values[idx]
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def adjoint(self) -> "ConvolutionOperator":
        g = self.group
        vals = np.conj(self.coefficients.values[g.inverses])
        return ConvolutionOperator(group_function(g, vals))

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        c = self.coefficients.values
        star = np.conj(c[self.group.inverses])
        scale = max(1.0, float(np.abs(c).max(initial=0.0)))
        return bool(np.abs(c - star).max(initial=0.0) <= tol * scale)

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


def lp_norm(op: ConvolutionOperator, p: float) -> float:
    """Noncommutative p-norm tau(|F|^p)^(1/p); p = inf gives the operator norm.

    |F| and tau are evaluated through the eigendecomposition of F*F, with the
    spectral weight of each eigenvector u taken as tau(u u*) = |u(e)|^2.  The
    weights sum to 1, and for these group-algebra operators they add up to
    dim(eigenspace)/order on every eigenspace, which is checked in tests.
    """
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise InvalidPError(f"p-norm exponent {p!r} is not a number") from exc
    if math.isnan(p) or p < 1:
        raise InvalidPError(f"p-norm exponent {p} is outside [1, inf]")
    mat = op.matrix
    if math.isinf(p):
        return float(np.linalg.norm(mat, ord=2))
    gram = mat.conj().T @ mat
    w, v = np.linalg.eigh(gram)
    mu = np.sqrt(np.clip(w, 0.0, None))
    weights = np.abs(v[op.group.identity, :]) ** 2
    return float((weights @ mu**p) ** (1.0 / p))


def _selfadjoint_matrix(op: ConvolutionOperator, tol: float) -> np.ndarray:
    mat = op.matrix
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    dev = float(np.abs(mat - mat.conj().T).max(initial=0.0))
    if dev > tol * scale:
        raise NotSelfAdjointError(
            f"operator deviates from selfadjoint by {dev:.3e}"
        )
    return mat


def spectral_data(op: ConvolutionOperator, tol: float = 1e-12) -> SpectralData:
    """Eigendecomposition of a selfadjoint convolution operator."""
    mat = _selfadjoint_matrix(op, tol)
    w, v = np.linalg.eigh(mat)
    recon = (v * w) @ v.conj().T
    err = float(np.abs(recon - mat).max(initial=0.0))
    bound = _RECONSTRUCTION_TOL * (1.0 + float(np.abs(w).max(initial=0.0)))
    if err > bound:
        raise NotSelfAdjointError(
            f"eigendecomposition reconstruction error {err:.3e} exceeds {bound:.3e}"
        )
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralData(w, v, tol)


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
    c(g^-1) = conj(c(g)), as every self-bracket is.
    """
    group, c = kernel.group, kernel.values
    if group.structure_tag == "cyclic-product":
        w = np.fft.fftn(c.reshape(group.abelian.invariant_factors)).real.ravel()
    elif group.structure_tag == "dihedral":
        n = group.order // 2
        a, b = np.fft.fft(c[:n]), np.fft.fft(c[n:])
        ends = [0, n // 2] if n % 2 == 0 else [0]
        h = np.arange(1, (n + 1) // 2)
        blocks = np.stack([a[h], b[h], b[-h], a[-h]], axis=-1).reshape(-1, 2, 2)
        w = np.concatenate(
            [(a[ends] + b[ends]).real, (a[ends] - b[ends]).real,
             np.repeat(np.linalg.eigvalsh(blocks).ravel(), 2)]
        )
    else:
        raise ValueError(
            "irreducible blocks are known for cyclic products and D<n>, "
            f"not {group.structure_tag}"
        )
    return np.sort(w)


def is_positive(op: ConvolutionOperator, tol: float = 1e-10) -> bool:
    """True when the operator is selfadjoint with spectrum above -tol."""
    try:
        mat = _selfadjoint_matrix(op, max(tol, 1e-12))
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
    kernel = matrix[group.identity, group.inverses]
    op = ConvolutionOperator(group_function(group, kernel))
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    dev = float(np.abs(op.matrix - matrix).max(initial=0.0))
    if dev > tol * scale:
        raise AffiliationError(
            f"matrix is not a convolution operator (deviation {dev:.3e})"
        )
    return op


def support_projection(
    op: ConvolutionOperator, tol: float = 1e-10
) -> ProjectionOperator:
    """Projection onto the range of a selfadjoint operator.

    Eigenvalues with |value| <= tol * max(1, operator norm) count as zero.
    The projection is itself a convolution operator; that is verified by
    rebuilding it from its kernel.
    """
    data = spectral_data(op)
    w, v = data.eigenvalues, data.eigenvectors
    norm_inf = float(np.abs(w).max(initial=0.0))
    keep = np.abs(w) > tol * max(1.0, norm_inf)
    basis = v[:, keep]
    proj = basis @ basis.conj().T
    kernel_op = operator_from_matrix(op.group, proj, tol=max(tol, 1e-10))
    result = ProjectionOperator(kernel_op.coefficients)
    mat = result.matrix
    idem = float(np.abs(mat @ mat - mat).max(initial=0.0))
    if idem > 1e-10 * max(1.0, float(np.abs(mat).max(initial=0.0))):
        raise AffiliationError(f"support projection not idempotent ({idem:.3e})")
    return result
