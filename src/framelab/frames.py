"""Riesz and frame analysis of finite vector systems and group orbits.

The Gram matrix of a system (psi_j) is G[k, j] = <psi_j, psi_k> with the
inner product linear in its first slot, i.e. G = T^H T for the synthesis
matrix T with the psi_j as columns.  Optimal Riesz/frame bounds are spectral
extremes of G; an eigenvalue counts as zero when it is at most
tol * lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import lambda_multiplier
from .errors import NonFiniteResultError, ZeroGeneratorError
from .groups import group_function
from .representations import (
    OrbitSystem,
    _as_generator,
    _correlation_values,
    _orbit_stack,
    bracket_operator,
    orbit_matrix,
    orbit_rows,
)
from .vnalgebra import (
    BLOCK_STRUCTURES,
    _convolution_matrices,
    block_spectrum,
    operator_from_coefficients,
)

__all__ = [
    "BLOCK_SPECTRUM_ORDER",
    "BracketGramianCheck",
    "DualLemmaReport",
    "FrameReport",
    "VERDICT_BESSEL_ONLY",
    "VERDICT_FRAME_NOT_RIESZ",
    "VERDICT_RIESZ",
    "VERDICT_ZERO",
    "VectorSystem",
    "analyze_orbit",
    "check_duallemma",
    "frame_bounds",
    "frame_operator_matrix",
    "gram_matrix",
    "riesz_bounds",
    "verify_bracket_equals_gramian",
]

VERDICT_RIESZ = "riesz"
VERDICT_FRAME_NOT_RIESZ = "frame_not_riesz"
VERDICT_BESSEL_ONLY = "bessel_only_degenerate"
VERDICT_ZERO = "zero_system"

# Eigenvalues inside (tol, GAP_GUARD * tol) * lambda_max are too close to the
# zero threshold for the riesz / frame-not-riesz split to be trustworthy; the
# verdict degrades to bessel_only_degenerate there.
GAP_GUARD = 1e3

# Above this group order, analyze_orbit takes the spectrum of a cyclic
# product or D<n> under its regular representation from the irreducible
# blocks of the correlation kernel instead of two dense O(order^3)
# eigensolves.  Every order the self-checks and examples use lies below it,
# where the dense routes decide and their output keeps its bytes.
BLOCK_SPECTRUM_ORDER = 64
# Gram columns compared against operator columns on the block route.
_BLOCK_CHECK_COLUMNS = 4


@dataclass(frozen=True, eq=False)
class VectorSystem:
    """A finite family of vectors, stored as columns of a synthesis matrix."""

    matrix: np.ndarray  # (dim, count)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class FrameReport:
    """Verdict and spectral data for one analyzed system."""

    verdict: str
    riesz_bounds: tuple[float, float] | None
    frame_bounds: tuple[float, float] | None
    gram_spectrum: np.ndarray
    kernel_dim: int
    route_agreement: dict[str, float]
    tolerance: float
    spectral_gap: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "riesz_bounds": list(self.riesz_bounds) if self.riesz_bounds else None,
            "frame_bounds": list(self.frame_bounds) if self.frame_bounds else None,
            "spectrum": [float(x) for x in self.gram_spectrum],
            "kernel_dim": self.kernel_dim,
            "routes": {k: float(v) for k, v in sorted(self.route_agreement.items())},
            "tolerance": self.tolerance,
            "spectral_gap": self.spectral_gap,
        }


@dataclass(frozen=True)
class DualLemmaReport:
    """Four equivalent spectral tests for the same two-sided bound."""

    frame_operator_sandwich: bool
    gram_quadratic_sandwich: bool
    gram_spectrum_in_band: bool
    gram_projection_sandwich: bool
    deviations: dict[str, float] = field(default_factory=dict)

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.frame_operator_sandwich,
            self.gram_quadratic_sandwich,
            self.gram_spectrum_in_band,
            self.gram_projection_sandwich,
        )

    @property
    def consistent(self) -> bool:
        return len(set(self.as_tuple())) == 1


@dataclass(frozen=True)
class BracketGramianCheck:
    """Entrywise and trace agreement between the two Gramian constructions."""

    max_deviation: float
    trace_deviation: float


def vector_system(matrix) -> VectorSystem:
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"synthesis matrix must be 2-d, got shape {arr.shape}")
    return VectorSystem(arr)


def gram_matrix(system: VectorSystem) -> np.ndarray:
    t = system.matrix
    return t.conj().T @ t


def frame_operator_matrix(system: VectorSystem) -> np.ndarray:
    t = system.matrix
    return t @ t.conj().T


def riesz_bounds(
    system: VectorSystem, tol: float = 1e-10
) -> tuple[float, float] | None:
    """Optimal Riesz-sequence bounds, or None when the Gram has a kernel.

    Unlike the verdict's Riesz bounds, these are given inside the guard band.
    """
    bounds, kernel_dim = frame_bounds(system, tol)
    return bounds if kernel_dim == 0 else None


def frame_bounds(
    system: VectorSystem, tol: float = 1e-10
) -> tuple[tuple[float, float] | None, int]:
    """Optimal frame-sequence bounds over the span, plus the Gram kernel dim."""
    w = np.linalg.eigvalsh(gram_matrix(system))
    _, _, bounds, kernel_dim, _ = _verdict_from_spectrum(w, tol)
    return bounds, kernel_dim


def check_duallemma(
    k_matrix, a: float, b: float, tol: float = 1e-10
) -> DualLemmaReport:
    """Evaluate four equivalent spectral formulations of A <= K K* <= B.

    For G = K* K, F = K K*, and P the orthogonal projections onto the closed
    ranges of K and K*, the four tests are (i) A P_ran(K) <= F <= B P_ran(K),
    (ii) A G <= G^2 <= B G, (iii) every eigenvalue of G lies in {0} or
    [A, B], and (iv) A P_ran(K*) <= G <= B P_ran(K*).  Each test is run
    independently from its own eigenvalue computation; deviations record the
    worst violation per test, scaled decisions use tol * max(1, B, |G|).
    """
    return _duallemma_reports(k_matrix, (a,), b, tol)[0]


def _duallemma_reports(
    k_matrix, lower_bounds, b: float, tol: float = 1e-10
) -> list[DualLemmaReport]:
    """check_duallemma for one K and upper bound B at each lower bound A.

    The SVD, G, F, G^2, both projections and the B-side matrices are formed
    once; every margin then comes from one eigvalsh over the rows x rows
    stack and one over the cols x cols stack.
    """
    k = np.asarray(k_matrix, dtype=np.complex128)
    g = k.conj().T @ k
    f = k @ k.conj().T
    u, s, vh = np.linalg.svd(k)
    s2 = s**2
    lam_max = float(s2[0]) if s2.size else 0.0
    rank = int(np.sum(s2 > tol * max(lam_max, 0.0)))
    p_ran_k = u[:, :rank] @ u[:, :rank].conj().T
    p_ran_kstar = vh[:rank].conj().T @ vh[:rank]
    scale = max(1.0, float(b), lam_max)
    slack = tol * scale
    g2 = g @ g
    count = len(lower_bounds)

    def hermitized(mats: list[np.ndarray]) -> np.ndarray:
        stack = np.stack(mats)
        return (stack + stack.conj().transpose(0, 2, 1)) / 2.0

    # rows x rows: f - a P_ran(K) per a, then b P_ran(K) - f.
    on_rows = hermitized([f - a * p_ran_k for a in lower_bounds] + [b * p_ran_k - f])
    # cols x cols: the (ii) pairs, then the (iv) pairs, then G itself.
    on_cols = np.concatenate([
        hermitized(
            [g2 - a * g for a in lower_bounds]
            + [b * g - g2]
            + [g - a * p_ran_kstar for a in lower_bounds]
            + [b * p_ran_kstar - g]
        ),
        g[None],
    ])
    w_rows = np.linalg.eigvalsh(on_rows)
    w_cols = np.linalg.eigvalsh(on_cols)
    rows_margin = w_rows[:, 0] if w_rows.shape[1] else np.zeros(len(on_rows))
    cols_margin = w_cols[:, 0] if w_cols.shape[1] else np.zeros(len(on_cols))
    upper_i = float(rows_margin[count])
    upper_ii = float(cols_margin[count])
    upper_iv = float(cols_margin[2 * count + 1])
    w_g = w_cols[-1]
    dist_zero = np.abs(w_g)

    reports = []
    for j, a in enumerate(lower_bounds):
        m_i = min(float(rows_margin[j]), upper_i)
        m_ii = min(float(cols_margin[j]), upper_ii)
        m_iv = min(float(cols_margin[count + 1 + j]), upper_iv)
        dist_band = np.maximum(a - w_g, w_g - b)
        m_iii = -float(
            np.minimum(dist_zero, np.maximum(dist_band, 0.0)).max(initial=0.0)
        )
        margins = {
            "frame_operator_sandwich": m_i,
            "gram_quadratic_sandwich": m_ii,
            "gram_spectrum_in_band": m_iii,
            "gram_projection_sandwich": m_iv,
        }
        reports.append(
            DualLemmaReport(
                frame_operator_sandwich=m_i >= -slack,
                gram_quadratic_sandwich=m_ii >= -slack,
                gram_spectrum_in_band=m_iii >= -slack,
                gram_projection_sandwich=m_iv >= -slack,
                deviations={name: max(0.0, -m) for name, m in margins.items()},
            )
        )
    return reports


def _verdict_from_spectrum(
    w: np.ndarray, tol: float
) -> tuple[str, tuple[float, float] | None, tuple[float, float] | None, int, float]:
    lam_max = float(w[-1]) if w.size else 0.0
    kept = w[w > tol * max(lam_max, 0.0)]
    kernel_dim = int(w.size - kept.size)
    if kept.size == 0:
        return VERDICT_ZERO, None, None, kernel_dim, 0.0
    a, b = float(kept[0]), float(kept[-1])
    gap = a / lam_max
    borderline = a <= GAP_GUARD * tol * lam_max
    if borderline:
        return VERDICT_BESSEL_ONLY, None, (a, b), kernel_dim, gap
    if kernel_dim == 0:
        return VERDICT_RIESZ, (a, b), (a, b), kernel_dim, gap
    return VERDICT_FRAME_NOT_RIESZ, None, (a, b), kernel_dim, gap


def _power_of_two_scaled(psi: np.ndarray) -> tuple[np.ndarray, int]:
    """psi / 2^e with its largest component in [0.5, 1), and e.

    Dividing by a power of two is exact, so the Gram and operator matrices
    of the scaled generator are exactly 4^-e times those of psi (short of
    underflow in entries far below the largest), and neither can overflow.
    """
    peak = max(
        float(np.abs(psi.real).max(initial=0.0)), float(np.abs(psi.imag).max(initial=0.0))
    )
    exp = int(np.frexp(peak)[1])
    scaled = np.empty_like(psi)
    scaled.real = np.ldexp(psi.real, -exp)
    scaled.imag = np.ldexp(psi.imag, -exp)
    return scaled, exp


def _scalar_route(op, w: np.ndarray, lam_max: float) -> float:
    """Deviation of the character-table multiplier from the spectrum w."""
    mult = lambda_multiplier(op)
    vals = np.sort(mult.values.real)
    dev_scalar = float(np.abs(vals - w).max()) / lam_max
    dev_imag = float(np.abs(mult.values.imag).max()) / lam_max
    return max(dev_scalar, dev_imag)


def _dense_routes(orbit: OrbitSystem) -> tuple[np.ndarray, dict[str, float]]:
    """Spectrum from the dense Gram matrix, checked against the operator matrix."""
    psi = orbit.generator
    gram = gram_matrix(vector_system(orbit_matrix(orbit)))
    w = np.linalg.eigvalsh(gram)
    lam_max = max(float(w[-1]), 1e-300)

    op = bracket_operator(orbit.rep, psi, psi)
    dev_matrix = float(np.abs(op.matrix - gram).max()) / lam_max
    w_op = np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2.0)
    dev_spec = float(np.abs(w_op - w).max()) / lam_max
    routes = {"bracket": max(dev_matrix, dev_spec)}

    if orbit.rep.group.abelian is not None:
        routes["scalar"] = _scalar_route(op, w, lam_max)
    return w, routes


def _block_routes(orbit: OrbitSystem) -> tuple[np.ndarray, dict[str, float]]:
    """Spectrum from the irreducible blocks of the bracket kernel.

    No order x order matrix is formed.  The bracket route checks the paper's
    identity on what is left: Gram against operator on a few seeded columns,
    and the trace and squared Frobenius norm of the Gram matrix against the
    first two moments of the block spectrum.
    """
    psi, group = orbit.generator, orbit.rep.group
    order = group.order
    moved = orbit_rows(orbit)  # row g is U(g) psi
    # c(g) = <psi, U(g) psi> = conj(moved[g] @ conj(psi)), which is also the
    # Gram column of the identity; conjugating the short side spares a copy
    # of moved.
    c = (moved @ psi.conj()).conj()
    op = operator_from_coefficients(group_function(group, c))
    w = block_spectrum(op.coefficients)
    lam_max = max(float(w[-1]), 1e-300)

    cols = np.random.default_rng(0).choice(order, _BLOCK_CHECK_COLUMNS, replace=False)
    gram_cols = (moved @ moved[cols].conj().T).conj()  # moved.conj() @ moved[j]
    op_cols = c[group.table[group.inverses[cols]]].T  # F[x, j] = c(j^-1 x)
    dev_cols = float(np.abs(gram_cols - op_cols).max()) / lam_max
    trace = float(c[group.identity].real)
    dev_trace = abs(float(w.sum()) - order * trace) / (order * lam_max)
    frobenius = float(np.sum(np.abs(c) ** 2))
    dev_frob = abs(float(np.sum(w**2)) - order * frobenius) / (order * lam_max**2)
    routes = {"bracket": max(dev_cols, dev_trace, dev_frob)}

    if group.abelian is not None:
        routes["scalar"] = _scalar_route(op, w, lam_max)
    return w, routes


def _uses_blocks(rep) -> bool:
    return (
        rep.group.order > BLOCK_SPECTRUM_ORDER
        and rep.model[0] == "regular"
        and rep.group.structure_tag in BLOCK_STRUCTURES
    )


def analyze_orbit(orbit: OrbitSystem, tol: float = 1e-10) -> FrameReport:
    """Classify the orbit of a generator under a representation.

    Three routes produce the same spectral data: the Gram matrix of the
    orbit, the operator whose kernel is the correlation function, and (for
    commutative groups) its multiplier transform.  Up to order
    BLOCK_SPECTRUM_ORDER, and for every group other than a cyclic product or
    D<n> under its regular representation, the verdict and bounds come from
    the Gram route and route_agreement records how far the other routes
    stray, as max deviation relative to lambda_max.  Above it the spectrum
    comes from the irreducible blocks of the correlation kernel
    (block_spectrum); "bracket" then holds the Gram-vs-operator deviation on
    a few seeded columns and the trace and Frobenius-norm deviations of that
    spectrum, and "scalar" the character-table multiplier against it.
    """
    psi = np.asarray(orbit.generator, dtype=np.complex128).reshape(-1)
    # The verdict depends on the spectrum relative to lambda_max, not on the
    # scale of psi; only a squared norm that is zero or has lost precision
    # below the smallest normal float leaves nothing to classify.  The norm
    # is taken on the scaled generator, where it cannot overflow, and scaled
    # back, where it may overflow to infinity but never reads NaN.
    scaled, exp = _power_of_two_scaled(psi)
    with np.errstate(over="ignore"):
        norm_sq = float(np.ldexp(np.vdot(scaled, scaled).real, 2 * exp))
    if not norm_sq >= np.finfo(float).tiny:
        raise ZeroGeneratorError("orbit generator is numerically zero")

    scaled_orbit = OrbitSystem(orbit.rep, scaled)
    routes_of = _block_routes if _uses_blocks(orbit.rep) else _dense_routes
    w, routes = routes_of(scaled_orbit)
    verdict, rb, fb, kernel_dim, gap = _verdict_from_spectrum(w, tol)

    # The verdict is read off the scaled spectrum; values go back to the
    # scale of psi, where the largest may no longer fit in a float.
    with np.errstate(over="ignore"):
        w = np.ldexp(w, 2 * exp)
    if not np.isfinite(w).all():
        raise NonFiniteResultError(
            "the Gram spectrum of this generator overflows a float"
        )

    def unscaled(bounds):
        if bounds is None:
            return None
        return tuple(float(np.ldexp(x, 2 * exp)) for x in bounds)

    return FrameReport(
        verdict=verdict,
        riesz_bounds=unscaled(rb),
        frame_bounds=unscaled(fb),
        gram_spectrum=w,
        kernel_dim=kernel_dim,
        route_agreement=routes,
        tolerance=tol,
        spectral_gap=gap,
    )


def verify_bracket_equals_gramian(
    orbit: OrbitSystem, tol: float = 1e-11
) -> BracketGramianCheck:
    """Compare the correlation-kernel operator against the orbit Gram matrix.

    The two matrices are built independently: one from |group| inner products
    arranged by group structure, the other from all pairwise inner products
    of the orbit.  Also checks that the operator trace equals the squared
    generator norm.
    """
    psi = _as_generator(orbit.rep, orbit.generator)
    max_dev, trace_dev = _bracket_gramian_deviations(orbit.rep, psi[None])
    return BracketGramianCheck(
        max_deviation=float(max_dev[0]), trace_deviation=float(trace_dev[0])
    )


def _bracket_gramian_deviations(
    rep, psis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """verify_bracket_equals_gramian for each generator of a (k, dim) stack.

    Returns the entrywise and the trace deviation per generator.
    """
    moved = _orbit_stack(rep, psis)  # (k, order, dim)
    synthesis = moved.transpose(0, 2, 1).copy()
    gram = synthesis.conj().transpose(0, 2, 1) @ synthesis
    kernels = _correlation_values(rep, psis, psis)
    max_dev = np.abs(_convolution_matrices(rep.group, kernels) - gram).max(axis=(1, 2))
    # The squared norm as np.linalg.norm(psi) ** 2 forms it, one scalar power
    # per generator.
    real, imag = psis.real, psis.imag
    sq = (real[:, None, :] @ real[:, :, None] + imag[:, None, :] @ imag[:, :, None])
    norm_sq = [float(r**2) for r in np.sqrt(sq[:, 0, 0])]
    trace = kernels[:, rep.group.identity]
    trace_dev = np.array([abs(complex(t) - n) for t, n in zip(trace, norm_sq)])
    return max_dev, trace_dev
