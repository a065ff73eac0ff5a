"""Scalar multiplier picture of convolution operators on abelian groups.

A convolution operator on a commutative group is diagonal in the character
basis; its multiplier transform lists the eigenvalue attached to each
character.  Characters are enumerated mixed-radix (last factor fastest), so
for Z_N the multiplier of a kernel is exactly its N-point discrete Fourier
transform.  The dual measure is normalized: averages over characters carry a
1/|group| factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAbelianError, NotRealValuedError, ParseError
from .groups import FiniteGroup, _freeze, group_function, make_abelian_group
from .representations import (
    UnitaryRepresentation,
    _as_generator,
    _check_gabor_sizes,
    _check_shift_sizes,
    correlation_function,
)
from .vnalgebra import (
    ConvolutionOperator,
    _check_rounding,
    _convolution_matrices,
    _exponent,
    _support_projections,
    _zero_level,
    operator_from_coefficients,
)

__all__ = [
    "DualFunction",
    "SandwichReport",
    "ZakArray",
    "check_sandwich_equivalence",
    "dual_lp_norm",
    "fourier_on_group",
    "gabor_bracket_via_zak",
    "inverse_lambda",
    "inverse_zak",
    "lambda_multiplier",
    "periodization_bracket",
    "scalar_bracket",
    "support_indicator",
    "zak_transform",
]


@dataclass(frozen=True, eq=False)
class DualFunction:
    """A complex function on the dual group, indexed like the characters."""

    group: FiniteGroup
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ZakArray:
    """Zak coefficients of a length L*M signal for the factorization (L, M).

    values[n, m] = sum_k psi(n + k*M) exp(-2i pi k m / L) with position
    n in Z_M and frequency m in Z_L; rows cover one fundamental domain, and
    extending n by M multiplies a cell by exp(+2i pi m / L).
    """

    L: int
    M: int
    values: np.ndarray  # (M, L)


@dataclass(frozen=True)
class SandwichReport:
    """Operator-side and scalar-side two-sided bound tests for one bracket."""

    operator_side: bool
    scalar_side: bool
    deviations: dict[str, float]

    @property
    def consistent(self) -> bool:
        return self.operator_side == self.scalar_side


def _require_abelian(group: FiniteGroup) -> None:
    if group.factors is None:
        raise NotAbelianError("the multiplier transform needs an abelian group")


def fourier_on_group(u) -> DualFunction:
    """Fourier transform on the group: u -> sum_g u(g) conj(alpha(g)), by FFT."""
    _require_abelian(u.group)
    return DualFunction(u.group, _freeze(_multipliers(u.group, u.values)))


def _multipliers(group: FiniteGroup, kernels: np.ndarray) -> np.ndarray:
    """Fourier transform of one kernel or of each row of a (k, order) stack.

    np.fft.fftn over the invariant factors (last fastest), equal to
    conj(character_table) @ kernel; each row keeps the bits it has alone.
    """
    shaped = kernels.reshape(-1, *group.factors)
    return np.fft.fftn(shaped, axes=range(1, shaped.ndim)).reshape(kernels.shape)


def lambda_multiplier(op: ConvolutionOperator) -> DualFunction:
    """Eigenvalue of the operator on each character of an abelian group."""
    return fourier_on_group(op.coefficients)


def inverse_lambda(mult: DualFunction) -> ConvolutionOperator:
    """Rebuild the convolution operator whose multiplier is the given function."""
    _require_abelian(mult.group)
    return operator_from_coefficients(
        group_function(mult.group, _inverse_multipliers(mult.group, mult.values))
    )


def _inverse_multipliers(group: FiniteGroup, values: np.ndarray) -> np.ndarray:
    """Kernels whose multipliers are one row or each row of a stack, by np.fft.ifftn."""
    shaped = values.reshape(-1, *group.factors)
    return np.fft.ifftn(shaped, axes=range(1, shaped.ndim)).reshape(values.shape)


def dual_lp_norm(mult: DualFunction, p: float) -> float:
    """L^p norm on the dual under the normalized counting measure."""
    return float(_dual_lp_norms(mult.values[None], (p,))[0, 0])


def _dual_lp_norms(values: np.ndarray, p_values) -> np.ndarray:
    """dual_lp_norm of each row of a (k, order) stack, one column per exponent.

    The root is taken per value as a scalar power, as in vnalgebra._lp_norms.
    """
    ps = [_exponent(p) for p in p_values]
    mags = np.abs(values)
    out = np.empty((values.shape[0], len(ps)))
    for i, p in enumerate(ps):
        if np.isinf(p):
            out[:, i] = mags.max(axis=1, initial=0.0)
        else:
            out[:, i] = [m ** (1.0 / p) for m in np.mean(mags**p, axis=1)]
    return out


def scalar_bracket(rep: UnitaryRepresentation, phi, psi) -> DualFunction:
    """Multiplier of the correlation operator of two vectors under a rep."""
    _require_abelian(rep.group)
    return fourier_on_group(correlation_function(rep, phi, psi))


def periodization_bracket(psi, n: int, m: int) -> DualFunction:
    """Self-bracket of a generator under the stride-m shift model on C^(n*m).

    Computed from the signal's n*m-point DFT by folding squared magnitudes
    onto residues mod n.  The 1/m normalization below was calibrated against
    the operator-route bracket (delta and random generators over two grid
    sizes) and is frozen; tests keep both routes pinned together.  The sizes
    and the signal are checked as shift_model_representation and analyze
    check them.
    """
    n, m = int(n), int(m)
    _check_shift_sizes(n, m)
    arr = _as_generator(psi, n * m)
    group = make_abelian_group([n])
    return DualFunction(group, _freeze(_periodization_values(arr, n, m)))


def _periodization_values(psis: np.ndarray, n: int, m: int) -> np.ndarray:
    """periodization_bracket values of one signal or of each row of a (k, n*m) stack.

    Builds no group.  The FFT runs per row and the fold adds the m blocks in
    order, so each row keeps the bits of a single signal.
    """
    power = np.abs(np.fft.fft(psis)) ** 2
    folded = power.reshape(*psis.shape[:-1], m, n).sum(axis=-2)
    return folded / m


def zak_transform(psi, l: int, m: int) -> ZakArray:
    """Zak coefficients for the factorization length = l*m."""
    l, m = int(l), int(m)
    if l < 1 or m < 1:
        raise ParseError(f"factors must be positive, got {l}, {m}")
    values = _zak_rows(_as_generator(psi, l * m), l, m).T
    return ZakArray(l, m, _freeze(values.copy()))


def _zak_rows(psis: np.ndarray, l: int, m: int) -> np.ndarray:
    """Zak coefficients of one signal or of each row of a stack, as (..., l, m).

    Entry [m1, n] is the transposed ZakArray cell: frequency m1, position n.
    """
    return np.fft.fft(psis.reshape(*psis.shape[:-1], l, m), axis=-2)


def inverse_zak(zak: ZakArray) -> np.ndarray:
    """Invert the Zak transform back to a length L*M signal."""
    blocks = np.fft.ifft(zak.values.T, axis=0)
    return blocks.reshape(-1)


def gabor_bracket_via_zak(phi, psi, l: int, m: int) -> DualFunction:
    """Cross-bracket of two vectors under the (l, m) shift-modulation model.

    The bracket at the character with exponents (m1, m2) in Z_l x Z_m is
    m * Zphi[m2, m1] * conj(Zpsi[m2, m1]): position index pairs with the
    second exponent, frequency with the first.  Both the factor m and the
    index pairing were calibrated against the operator-route bracket on
    delta and random generators over two grid sizes and are frozen here.  The
    sizes and the vectors are checked as gabor_representation and analyze
    check them.
    """
    l, m = int(l), int(m)
    _check_gabor_sizes(l, m)
    values = _zak_values(_as_generator(phi, l * m), _as_generator(psi, l * m), l, m)
    group = make_abelian_group([l, m])
    return DualFunction(group, _freeze(values))


def _zak_values(phis: np.ndarray, psis: np.ndarray, l: int, m: int) -> np.ndarray:
    """gabor_bracket_via_zak values of one pair or of each row pair of two stacks.

    Builds no group.  The Zak cells multiply in (m1, m2) order, so the
    flattened product is indexed by the character m1 * m + m2; each row keeps
    the bits of a single pair.
    """
    prod = _zak_rows(phis, l, m) * np.conj(_zak_rows(psis, l, m))
    return m * prod.reshape(phis.shape)


def _transform_bracket(rep: UnitaryRepresentation, psi: np.ndarray) -> np.ndarray:
    """The model's classical self-bracket of psi, read from psi's own transform.

    |psi^|^2 over the invariant factors for regular: on a cyclic product,
    the periodization for shift: and the Zak product for gabor:
    (Hernandez, Sikic, Weiss and Wilson, Colloq. Math. 118, 2010).  Indexed
    like fourier_on_group's values of the bracket kernel, which it equals on
    a sound action; it reads only the sizes in rep.model and the group's
    factors.  The Zak product stays complex, its imaginary part the rounding
    of a fused multiply-add.  The regular DFT runs np.fft.fft one axis at a
    time, last axis first, as np.fft.fftn does: it has fftn's bits but
    shares no call with the multiplier's fftn.
    """
    kind, *sizes = rep.model
    if kind == "shift":
        return _periodization_values(psi, *sizes)
    if kind == "gabor":
        return _zak_values(psi, psi, *sizes)
    values = psi.reshape(rep.group.factors)
    for axis in reversed(range(values.ndim)):
        values = np.fft.fft(values, axis=axis)
    return np.abs(values).ravel() ** 2


def support_indicator(mult: DualFunction, tol: float = 1e-10) -> DualFunction:
    """0/1 indicator of where a real multiplier exceeds tol times its largest value.

    NotRealValuedError when the imaginary part exceeds 1e-10 times the
    largest |value|, at every scale alike.
    """
    indicator = _support_indicators(mult.values[None], tol)[0]
    return DualFunction(mult.group, _freeze(indicator))


def _support_indicators(values: np.ndarray, tol: float) -> np.ndarray:
    """support_indicator of each row of a (k, order) stack of multipliers."""
    imag_max = np.abs(values.imag).max(axis=1, initial=0.0)
    size = np.abs(values).max(axis=1, initial=0.0)
    _check_rounding(imag_max, size, 1e-10, NotRealValuedError, "multiplier is not real")
    return (values.real > _zero_level(values.real, tol)).astype(np.complex128)


def check_sandwich_equivalence(
    rep: UnitaryRepresentation, psi, a: float, b: float, tol: float = 1e-10
) -> SandwichReport:
    """Test A s <= [psi,psi] <= B s on the operator and scalar sides.

    The operator side compares the bracket operator against A and B times
    its support projection through eigenvalue margins; the scalar side
    checks A chi <= multiplier <= B chi pointwise on the support indicator.
    Both sides read zero at tol * lambda_max, as analyze does, and forgive that much.
    """
    _require_abelian(rep.group)
    kernel = correlation_function(rep, psi, psi).values
    bounds = np.array([[a], [b]], dtype=float)
    operator_ok, scalar_ok, deviations = _sandwich_sides(
        rep.group, kernel[None], *bounds, tol
    )
    return SandwichReport(
        operator_side=bool(operator_ok[0]),
        scalar_side=bool(scalar_ok[0]),
        deviations={name: float(dev[0]) for name, dev in deviations.items()},
    )


def _sandwich_sides(
    group: FiniteGroup, kernels: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """check_sandwich_equivalence for each bracket kernel of a (k, order) stack.

    Row i is tested against the bounds a[i] and b[i].  Returns the operator
    side, the scalar side and the deviations, one entry per row; one eigh
    (inside the support projections) and one eigvalsh serve the whole stack.
    """
    _require_abelian(group)
    k = kernels.shape[0]
    mats = _convolution_matrices(group, kernels)
    herm = (mats + mats.conj().transpose(0, 2, 1)) / 2.0
    _, proj = _support_projections(group, mats, tol)
    lower = a[:, None, None] * proj
    upper = b[:, None, None] * proj
    w = np.linalg.eigvalsh(np.concatenate([herm, herm - lower, upper - herm]))
    slack = _zero_level(w[:k], tol)[:, 0]
    lower_op, upper_op = w[k : 2 * k, 0], w[2 * k :, 0]
    operator_ok = (lower_op >= -slack) & (upper_op >= -slack)

    mult = _multipliers(group, kernels)
    vals = mult.real
    ind = _support_indicators(mult, tol).real
    lower_sc = (vals - a[:, None] * ind).min(axis=1, initial=0.0)
    upper_sc = (b[:, None] * ind - vals).min(axis=1, initial=0.0)
    scalar_ok = (lower_sc >= -slack) & (upper_sc >= -slack)

    deviations = {
        "operator_lower": np.maximum(0.0, -lower_op),
        "operator_upper": np.maximum(0.0, -upper_op),
        "scalar_lower": np.maximum(0.0, -lower_sc),
        "scalar_upper": np.maximum(0.0, -upper_sc),
    }
    return operator_ok, scalar_ok, deviations
