"""Riesz and frame analysis of finite vector systems and group orbits.

The Gram matrix of a system (psi_j) is G[k, j] = <psi_j, psi_k> with the
inner product linear in its first slot, i.e. G = T^H T for the synthesis
matrix T with the psi_j as columns.  Optimal Riesz/frame bounds are spectral
extremes of G; an eigenvalue counts as zero when it is at most
tol * lambda_max.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .abelian import _transform_bracket
from .errors import NonFiniteResultError, ZeroGeneratorError
from .groups import GroupFunction, group_function
from .representations import (
    OrbitSystem,
    _as_generator,
    _kernel_values,
    _orbit_blocks,
    _orbit_stack,
)
from .vnalgebra import _convolution_matrices, _hermitian_spectrum, _zero_level, block_spectrum

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

# Above this group order, analyze_orbit takes the spectrum of an orbit of
# any group, under any of its representations, from the blocks of the
# correlation kernel over an abelian subgroup instead of two dense
# O(order^3) eigensolves.  Every order the self-checks and examples use lies
# below it, where the dense routes decide and their output keeps its bytes.
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
    worst violation per test.  With s = max(B, |G|), test (ii) forgives
    tol * s^2 and the others tol * s.
    """
    return _duallemma_reports(k_matrix, (a,), b, tol)[0]


def _duallemma_reports(
    k_matrix, lower_bounds, b: float, tol: float = 1e-10
) -> list[DualLemmaReport]:
    """check_duallemma for one K and upper bound B at each lower bound A.

    The SVD, G, F, G^2, both projections and the B-side matrices are formed
    once, and every difference is written into its slot of one preallocated
    rows x rows stack or one cols x cols stack; every margin then comes from
    one eigvalsh over each.
    """
    k = np.asarray(k_matrix, dtype=np.complex128)
    g = k.conj().T @ k
    f = k @ k.conj().T
    u, s, vh = np.linalg.svd(k)
    s2 = s**2
    rank = int(np.sum(s2 > _zero_level(s2, tol)))
    p_ran_k = u[:, :rank] @ u[:, :rank].conj().T
    p_ran_kstar = vh[:rank].conj().T @ vh[:rank]
    scale = max(float(b), float(s2.max(initial=0.0)))
    slack = tol * scale
    g2 = g @ g
    count = len(lower_bounds)

    # rows x rows: f - a P_ran(K) per a, then b P_ran(K) - f.
    on_rows = np.empty((count + 1, *f.shape), dtype=np.complex128)
    # cols x cols: the (ii) pairs, then the (iv) pairs, then G itself.
    on_cols = np.empty((2 * count + 3, *g.shape), dtype=np.complex128)
    for j, a in enumerate(lower_bounds):
        np.subtract(f, a * p_ran_k, out=on_rows[j])
        np.subtract(g2, a * g, out=on_cols[j])
        np.subtract(g, a * p_ran_kstar, out=on_cols[count + 1 + j])
    np.subtract(b * p_ran_k, f, out=on_rows[count])
    np.subtract(b * g, g2, out=on_cols[count])
    np.subtract(b * p_ran_kstar, g, out=on_cols[2 * count + 1])
    # Hermitize every difference in place; conj() makes a fresh array, so
    # no entry is read after it is overwritten.  G enters unhermitized.
    for stack in (on_rows, on_cols[:-1]):
        stack += stack.conj().transpose(0, 2, 1)
        stack /= 2.0
    on_cols[-1] = g
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
                gram_quadratic_sandwich=m_ii >= -slack * scale,
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
    kept = w[w > _zero_level(w, tol)]
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
    peak = max(float(np.abs(psi.real).max()), float(np.abs(psi.imag).max()))
    exp = int(np.frexp(peak)[1])
    scaled = np.empty_like(psi)
    scaled.real = np.ldexp(psi.real, -exp)
    scaled.imag = np.ldexp(psi.imag, -exp)
    return scaled, exp


def _scalar_route(orbit: OrbitSystem, w: np.ndarray, lam_max: float) -> float:
    """Deviation of the generator's classical bracket from the spectrum w.

    On a cyclic product the operator is diagonal in the characters, so the
    bracket read from psi's own transform (abelian._transform_bracket), never
    from the action, must sort onto the ascending w.
    """
    values = np.sort(_transform_bracket(orbit.rep, orbit.generator).real)
    return float(np.abs(values - w).max()) / lam_max


def _grams_and_kernels(rep, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit Gram matrices and bracket kernels of one generator or a (k, dim) stack.

    The orbit is gathered once, and the synthesis matrix (column g is
    U(g) psi) is copied out of it before _kernel_values conjugates it in
    place.
    """
    moved = _orbit_stack(rep, psis)  # row g is U(g) psi
    synthesis = np.swapaxes(moved, -1, -2).copy()
    gram = np.swapaxes(synthesis.conj(), -1, -2) @ synthesis
    return gram, _kernel_values(moved, psis)


def _dense_routes(orbit: OrbitSystem) -> tuple[np.ndarray, dict[str, float]]:
    """Spectrum from the dense Gram matrix, checked against the operator matrix.

    On a cyclic product the scalar route checks it against the generator's
    classical bracket (_scalar_route).
    """
    rep = orbit.rep
    gram, c = _grams_and_kernels(rep, orbit.generator)  # c(g) = <psi, U(g) psi>
    w = np.linalg.eigvalsh(gram)
    lam_max = max(float(w[-1]), 1e-300)

    op_matrix = _convolution_matrices(rep.group, c)
    dev_matrix = float(np.abs(op_matrix - gram).max()) / lam_max
    dev_spec = float(np.abs(_hermitian_spectrum(op_matrix) - w).max()) / lam_max
    routes = {"bracket": max(dev_matrix, dev_spec)}

    if rep.group.factors is not None:
        routes["scalar"] = _scalar_route(orbit, w, lam_max)
    return w, routes


def _block_routes(orbit: OrbitSystem) -> tuple[np.ndarray, dict[str, float]]:
    """Spectrum from the blocks of the bracket kernel (block_spectrum).

    The Gram matrix of any unitary orbit is the convolution operator of
    c(g) = <psi, U(g) psi>, so this holds whatever space the group acts on.
    No order x order matrix is formed, and the orbit is gathered a block of
    rows at a time (representations._orbit_blocks).  The bracket
    route checks the paper's identity on what is left: Gram against
    operator on a few seeded columns, and the trace and squared Frobenius
    norm of the Gram matrix against the first two moments of the block
    spectrum.  On a cyclic product the scalar route checks the spectrum
    against the generator's classical bracket (_scalar_route).
    """
    rep, psi = orbit.rep, orbit.generator
    group = rep.group
    order = group.order
    # Drawn by random.Random(0), not numpy.random, which analyze never loads.
    cols = np.array(random.Random(0).sample(range(order), _BLOCK_CHECK_COLUMNS))
    # Row g of a block is U(g) psi.  c(g) = conj(U(g) psi @ conj(psi)) is
    # also the Gram column of the identity, and Gram column j is
    # conj(U(g) psi @ conj(U(j) psi)); conjugating the short side spares a
    # copy of each block.
    right = _orbit_stack(rep, psi, cols).conj().T
    c = np.empty(order, dtype=np.complex128)
    gram_cols = np.empty((order, _BLOCK_CHECK_COLUMNS), dtype=np.complex128)
    for block, moved in _orbit_blocks(rep, psi):
        c[block] = moved @ psi.conj()
        gram_cols[block] = moved @ right
    c, gram_cols = c.conj(), gram_cols.conj()
    w = block_spectrum(group_function(group, c))
    lam_max = max(float(w[-1]), 1e-300)

    op_cols = c[group.rows(group.inverses[cols])].T  # F[x, j] = c(j^-1 x)
    dev_cols = float(np.abs(gram_cols - op_cols).max()) / lam_max
    trace = float(c[group.identity].real)
    dev_trace = abs(float(w.sum()) - order * trace) / (order * lam_max)
    frobenius = float(np.sum(np.abs(c) ** 2))
    dev_frob = abs(float(np.sum(w**2)) - order * frobenius) / (order * lam_max**2)
    routes = {"bracket": max(dev_cols, dev_trace, dev_frob)}

    if group.factors is not None:
        routes["scalar"] = _scalar_route(orbit, w, lam_max)
    return w, routes


def _uses_blocks(group) -> bool:
    return group.order > BLOCK_SPECTRUM_ORDER


def _kernel_spectrum(kernel: GroupFunction) -> np.ndarray:
    """Ascending spectrum of the convolution operator of a self-bracket.

    By analyze's rule: from the kernel's blocks (block_spectrum) above
    BLOCK_SPECTRUM_ORDER, from the hermitized dense matrix at or below it.
    """
    if _uses_blocks(kernel.group):
        return block_spectrum(kernel)
    return _hermitian_spectrum(_convolution_matrices(kernel.group, kernel.values))


def analyze_orbit(orbit: OrbitSystem, tol: float = 1e-10) -> FrameReport:
    """Classify the orbit of a generator under a representation.

    Three routes produce the same spectral data: the Gram matrix of the
    orbit, the operator whose kernel is the correlation function, and (on
    cyclic products) the model's classical bracket of the generator.  Up to
    order BLOCK_SPECTRUM_ORDER the verdict and bounds come from the Gram
    route and route_agreement records how far the other routes stray, as
    max deviation relative to lambda_max.  Above it, for every group, the
    spectrum comes from the blocks of the correlation kernel over an abelian
    subgroup (block_spectrum), with the orbit gathered a block of rows at a
    time; "bracket" then holds the Gram-vs-operator deviation on a few
    seeded columns and the trace and Frobenius-norm deviations of that
    spectrum.  On both routes "scalar" is how far the sorted classical
    bracket, read from the generator's own transform, lies from the
    spectrum.  The generator is checked on entry, as orbit_matrix checks it.
    """
    psi = _as_generator(orbit.generator, orbit.rep.dim)
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
    routes_of = _block_routes if _uses_blocks(orbit.rep.group) else _dense_routes
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


def verify_bracket_equals_gramian(orbit: OrbitSystem) -> BracketGramianCheck:
    """Compare the correlation-kernel operator against the orbit Gram matrix.

    The two matrices are built independently: one from |group| inner products
    arranged by group structure, the other from all pairwise inner products
    of the orbit.  Also checks that the operator trace equals the squared
    generator norm.
    """
    psi = _as_generator(orbit.generator, orbit.rep.dim)
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
    gram, kernels = _grams_and_kernels(rep, psis)
    max_dev = np.abs(_convolution_matrices(rep.group, kernels) - gram).max(axis=(1, 2))
    # The squared norm as np.linalg.norm(psi) ** 2 forms it, one scalar power
    # per generator.
    real, imag = psis.real, psis.imag
    sq = (real[:, None, :] @ real[:, :, None] + imag[:, None, :] @ imag[:, :, None])
    norm_sq = [float(r**2) for r in np.sqrt(sq[:, 0, 0])]
    trace = kernels[:, rep.group.identity]
    trace_dev = np.array([abs(complex(t) - n) for t, n in zip(trace, norm_sq)])
    return max_dev, trace_dev
