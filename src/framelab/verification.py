"""Randomized self-checks behind the `frame-lab verify` command.

Each check returns a CheckResult with the worst deviation it saw and the
tolerance it held that to; each runner fixes its own tolerance and draw
sizes, and the acceptance tests reuse the runners with their own sample
counts.  All randomness flows from one seeded generator so a verify run is
reproducible from its reported seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import (
    _dual_lp_norms,
    _inverse_multipliers,
    _multipliers,
    _periodization_values,
    _sandwich_sides,
    _support_indicators,
    _zak_values,
)
from .frames import _bracket_gramian_deviations, _duallemma_reports
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, _convolve_values, group_from_spec
from .representations import (
    UnitaryRepresentation,
    _action_deviation,
    _kernel_values,
    _orbit_stack,
    _product_action,
    gabor_representation,
    parse_rep_spec,
    regular_representation,
    shift_model_representation,
    verify_representation,
)
from .vnalgebra import _convolution_matrices, _lp_norms, _support_projections, _zero_level

__all__ = [
    "CheckResult",
    "DEFAULT_GROUP_SPECS",
    "check_bracket_gramian",
    "check_duallemma_suite",
    "check_gabor_commutativity",
    "check_lambda_structure",
    "check_periodization_calibration",
    "check_representation_validity",
    "check_sandwich_suite",
    "check_support_lemma",
    "check_zak_calibration",
    "run_verification_suite",
]

DEFAULT_GROUP_SPECS = ("Z2", "Z4", "Z2xZ2", "Z3xZ4", "D4", "H3")
_DEFAULT_MODELS = ("shift:4,2", "gabor:2,3")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    samples: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # A check that ran no sample has shown nothing.
        if self.samples < 1:
            object.__setattr__(self, "passed", False)

    def to_json_dict(self) -> dict:
        payload = {
            "name": self.name,
            "passed": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "tolerance": float(self.tolerance),
            "samples": int(self.samples),
        }
        if self.details:
            payload["details"] = {
                k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                for k, v in sorted(self.details.items())
            }
        return payload


def _cvec(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex values of the given shape, one row of the last axis at a time.

    Each row of n values draws its n real parts first, then its n imaginary
    parts, the rows in C order; a Generator draws values in sequence, so one
    call consumes the stream exactly as a call per row would.
    """
    draws = rng.standard_normal((*shape[:-1], 2, shape[-1]))
    return draws[..., 0, :] + 1j * draws[..., 1, :]


def check_representation_validity(reps: list[UnitaryRepresentation]) -> CheckResult:
    """Identity, unitarity, and the group law for every given representation.

    verify_representation checks the law on each group's generators, which
    carries it to every pair; samples counts the representations.
    """
    tol = 1e-13
    worst = 0.0
    failing = None
    for rep in reps:
        report = verify_representation(rep, tol=tol)
        if report.max_deviation > worst:
            worst = report.max_deviation
            if not report.passed:
                failing = rep.label
    details = {"failing": failing} if failing else {}
    return CheckResult(
        "representation_validity", worst <= tol, worst, tol, len(reps), details
    )


def check_gabor_commutativity(models) -> CheckResult:
    """Commutativity of the shift-modulation lattice.

    models lists representations; those of gabor models are checked and the
    others skipped.  For every pair (a, b) of group elements the products
    U(a) U(b) and U(b) U(a) are compared with a strict tolerance, entry by
    entry on their monomial form.  It never compares a product with U(ab),
    so an action that breaks the law but still commutes passes it; the
    suite passes it its parsed models, whose law check_representation_validity
    checks on generators, and so for every pair.
    """
    worst = 0.0
    count = 0
    for rep in models:
        if rep.model[0] != "gabor":
            continue
        n = rep.group.order
        # One row per pair (a, b), b running fastest.
        a, b = np.indices((n, n)).reshape(2, -1)
        action = rep.rows(np.arange(n))
        dev = _action_deviation(*_product_action(*action, a, b), *_product_action(*action, b, a))
        worst = max(worst, float(dev.max()))
        count += a.size
    tol = 1e-14
    return CheckResult("gabor_commutativity", worst <= tol, worst, tol, count)


def check_bracket_gramian(
    reps: list[UnitaryRepresentation],
    rng: np.random.Generator,
    samples: int = 100,
) -> CheckResult:
    """Correlation-kernel operator vs orbit Gram matrix, entrywise and in trace."""
    tol, trace_tol = 1e-11, 1e-12
    worst = 0.0
    worst_trace = 0.0
    count = 0
    for rep in reps:
        dev, trace_dev = _bracket_gramian_deviations(rep, _cvec(rng, samples, rep.dim))
        worst = max(worst, float(dev.max(initial=0.0)))
        worst_trace = max(worst_trace, float(trace_dev.max(initial=0.0)))
        count += samples
    passed = worst <= tol and worst_trace <= trace_tol
    return CheckResult(
        "bracket_equals_gramian",
        passed,
        worst,
        tol,
        count,
        {"trace_deviation": worst_trace, "trace_tolerance": trace_tol},
    )


def _random_factor_matrix(
    rng: np.random.Generator, max_side: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random K with controlled, well separated nonzero singular values.

    Square (rows, rows) and (cols, cols) draws are taken from the stream, but
    only their first rank columns are factored: those columns alone give the
    first rank columns of Q, the only ones K uses.
    """
    rows = int(rng.integers(2, max_side + 1))
    cols = int(rng.integers(2, max_side + 1))
    rank = int(rng.integers(1, min(rows, cols) + 1))
    sing = np.sort(rng.uniform(0.5, 2.0, size=rank)) + 0.05 * np.arange(rank)
    q1, _ = np.linalg.qr(_cvec(rng, rows * rows).reshape(rows, rows)[:, :rank])
    q2, _ = np.linalg.qr(_cvec(rng, cols * cols).reshape(cols, cols)[:, :rank])
    k = (q1 * sing) @ q2.conj().T
    return k, sing**2


def check_duallemma_suite(rng: np.random.Generator, samples: int = 200) -> CheckResult:
    """All four spectral tests agree, and flip together when A is pushed up.

    Each sample's K has between 2 and max_side rows and columns.
    """
    max_side, tol = 32, 1e-10
    disagreements = 0
    false_negatives = 0
    stuck_flips = 0
    for _ in range(samples):
        k, s2 = _random_factor_matrix(rng, max_side)
        a = float(s2.min()) * (1.0 - 1e-3)
        b = float(s2.max()) * (1.0 + 1e-3)
        # s2 is strictly increasing, so s2[1] is its second smallest value.
        ceiling = float(s2[1]) if s2.size > 1 else b
        a_bad = float(s2.min()) + 0.5 * (ceiling - float(s2.min()))
        # The flipped bound shares K and B, so one evaluation serves both.
        report, flipped = _duallemma_reports(k, (a, a_bad), b, tol=tol)
        if not report.consistent:
            disagreements += 1
        if not all(report.as_tuple()):
            false_negatives += 1
        if not flipped.consistent:
            disagreements += 1
        if any(flipped.as_tuple()):
            stuck_flips += 1
    bad = disagreements + false_negatives + stuck_flips
    return CheckResult(
        "duallemma",
        bad == 0,
        float(bad),
        0.0,
        samples,
        {
            "disagreements": disagreements,
            "false_negatives": false_negatives,
            "stuck_flips": stuck_flips,
            "slack": tol,
        },
    )


def _greedy_multiset_deviation(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per row of two (k, n) stacks, the largest distance in a greedy matching.

    Each left value in turn takes the nearest right value not yet taken, the
    first one on a tie.  Distances are np.hypot, which rounds like abs() of a
    complex scalar.
    """
    k, n = left.shape
    rows = np.arange(k)
    taken = np.zeros((k, n), dtype=bool)
    worst = np.zeros(k)
    for i in range(n):
        diff = left[:, i, None] - right
        gaps = np.hypot(diff.real, diff.imag)
        gaps[taken] = np.inf
        idx = gaps.argmin(axis=1)
        worst = np.maximum(worst, gaps[rows, idx])
        taken[rows, idx] = True
    return worst


def check_lambda_structure(
    groups: list[FiniteGroup],
    rng: np.random.Generator,
    pairs: int = 100,
) -> CheckResult:
    """Multiplier transform: homomorphism, star, p-norm isometry, spectrum."""
    tol, p_values = 1e-10, (1, 2, 4, np.inf)
    worst = 0.0
    count = 0
    for group in groups:
        if group.factors is None:
            continue
        c1, c2 = _cvec(rng, pairs, 2, group.order).transpose(1, 0, 2)
        m1 = _multipliers(group, c1)
        m2 = _multipliers(group, c2)
        prod = m1 * m2
        # F_c1 F_c2 has kernel c2 * c1.
        m12 = _multipliers(group, _convolve_values(group, c2, c1))
        prod_dev = np.abs(m12 - prod).max(axis=1) / np.maximum(
            1.0, np.abs(prod).max(axis=1)
        )
        m1_scale = np.maximum(1.0, np.abs(m1).max(axis=1))
        m_star = _multipliers(group, np.conj(c1[:, group.inverses]))
        star_dev = np.abs(m_star - np.conj(m1)).max(axis=1) / m1_scale
        mats = _convolution_matrices(group, c1)
        a = _lp_norms(mats, group.identity, p_values)
        b = _dual_lp_norms(m1, p_values)
        norm_dev = np.abs(a - b) / np.maximum(1.0, a)
        spec_dev = _greedy_multiset_deviation(m1, np.linalg.eigvals(mats)) / m1_scale
        for dev in (prod_dev, star_dev, norm_dev, spec_dev):
            worst = max(worst, float(dev.max(initial=0.0)))
        count += pairs
    return CheckResult("lambda_structure", worst <= tol, worst, tol, count)


def _random_psd_draw(rng: np.random.Generator, group: FiniteGroup, masked: bool):
    """One positive operator's draw: masked multiplier values or a generator.

    A generator stands for its self-bracket under the regular representation.
    """
    if masked:
        vals = rng.uniform(0.5, 2.0, size=group.order)
        mask = rng.integers(0, 2, size=group.order).astype(bool)
        if mask.all():
            mask[int(rng.integers(0, group.order))] = False
        return np.where(mask, 0.0, vals).astype(np.complex128)
    return _cvec(rng, group.order)


def check_support_lemma(
    reps: list[UnitaryRepresentation],
    rng: np.random.Generator,
    samples: int = 100,
) -> CheckResult:
    """Multiplier of the support projection equals the support indicator.

    reps are regular representations; those of groups without
    cyclic-product coordinates are skipped.
    """
    tol = 1e-10
    mismatches = 0
    worst = 0.0
    count = 0
    for rep in reps:
        group = rep.group
        if group.factors is None:
            continue
        # Even samples are masked multipliers, odd ones self-brackets of a
        # generator under the regular representation.
        draws = [
            _random_psd_draw(rng, group, masked=(i % 2 == 0)) for i in range(samples)
        ]
        if not draws:
            continue
        kernels = np.empty((samples, group.order), dtype=np.complex128)
        kernels[0::2] = _inverse_multipliers(group, np.array(draws[0::2]))
        psis = np.array(draws[1::2]).reshape(-1, group.order)
        kernels[1::2] = _kernel_values(_orbit_stack(rep, psis), psis)
        mats = _convolution_matrices(group, kernels)
        via_proj = _multipliers(group, _support_projections(group, mats, tol)[0])
        chi = _support_indicators(_multipliers(group, kernels), tol)
        rounded = (via_proj.real > 0.5).astype(float)
        mismatches += int((rounded != chi.real).any(axis=1).sum())
        worst = max(worst, float(np.abs(via_proj - chi).max()))
        count += samples
    return CheckResult(
        "support_lemma",
        mismatches == 0,
        worst,
        tol,
        count,
        {"mismatches": mismatches},
    )


def _sandwich_bounds(
    i: int, adversarial: bool, mult: np.ndarray, tol: float
) -> tuple[float, float, bool]:
    """Bounds A, B for case i of a self-bracket multiplier, and whether they hold.

    Regular cases cycle through a bracketing pair, a raised lower bound and a
    lowered upper bound; adversarial ones move a bound by a relative 1e-6
    across the support's extreme values.  A raised lower bound moves at least
    10 times the zero level tol * lambda_max, past the slack both sides of
    the check forgive, so that the violation it makes is one they must see.
    """
    level = _zero_level(mult, tol)[0]
    nonzero = mult[mult > level]
    lo, hi = float(nonzero.min()), float(nonzero.max())
    if adversarial:
        eps = 1e-6
        if i % 2 == 0:
            return lo * (1.0 - eps), hi * (1.0 + eps), True
        return max(lo * (1.0 + eps), lo + 10.0 * level), hi * (1.0 + eps), False
    mode = i % 3
    if mode == 0:
        return 0.9 * lo, 1.1 * hi, True
    if mode == 1:
        return 1.5 * lo if hi > 1.6 * lo else 1.1 * hi, 1.1 * hi, False
    if 0.9 * hi > lo:
        return 0.9 * lo, 0.9 * hi, False
    return 0.9 * lo, 1.1 * hi, True


def check_sandwich_suite(
    reps: list[UnitaryRepresentation],
    rng: np.random.Generator,
    samples: int = 100,
    adversarial: int = 20,
) -> CheckResult:
    """Operator-side and scalar-side two-sided bounds always agree.

    reps are regular representations; those of groups without
    cyclic-product coordinates are skipped.
    """
    tol = 1e-10
    disagreements = 0
    wrong_calls = 0
    count = 0
    reps = [rep for rep in reps if rep.group.factors is not None]
    if not reps:
        return CheckResult(
            "sandwich_equivalence", True, 0.0, tol, 0, {"skipped": 1, "slack": tol}
        )

    # Case i draws its generator for reps[i % len(reps)] in the order of the
    # cases; each representation's cases are then tested as one stack.
    cases = [(i, False) for i in range(samples)] + [(i, True) for i in range(adversarial)]
    psis = [_cvec(rng, reps[i % len(reps)].dim) for i, _ in cases]
    for r, rep in enumerate(reps):
        at = [j for j, (i, _) in enumerate(cases) if i % len(reps) == r]
        if not at:
            continue
        stack = np.array([psis[j] for j in at])
        kernels = _kernel_values(_orbit_stack(rep, stack), stack)
        mults = _multipliers(rep.group, kernels).real
        bounds = [_sandwich_bounds(*cases[j], mult, tol) for j, mult in zip(at, mults)]
        a, b, expected = (np.array(column) for column in zip(*bounds))
        operator_ok, scalar_ok, _ = _sandwich_sides(rep.group, kernels, a, b, tol)
        disagreements += int((operator_ok != scalar_ok).sum())
        wrong_calls += int((operator_ok != expected).sum())
        count += len(at)
    bad = disagreements + wrong_calls
    return CheckResult(
        "sandwich_equivalence",
        bad == 0,
        float(bad),
        0.0,
        count,
        {"disagreements": disagreements, "wrong_calls": wrong_calls, "slack": tol},
    )


def check_periodization_calibration(
    rng: np.random.Generator, samples: int = 100
) -> CheckResult:
    """Folded-spectrum bracket vs operator-route bracket for shift models.

    Every sample's shape, N in 2..16 and M in 1..8, and generator are drawn
    first, in order; the samples of each shape are then checked as one stack
    on one representation.
    """
    tol = 1e-10
    draws: dict[tuple[int, int], list[np.ndarray]] = {}
    for _ in range(samples):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 9))
        draws.setdefault((n, m), []).append(_cvec(rng, n * m))
    worst = 0.0
    for (n, m), psis in draws.items():
        stack = np.array(psis)
        rep = shift_model_representation(n, m)
        oracle = _multipliers(rep.group, _kernel_values(_orbit_stack(rep, stack), stack))
        fast = _periodization_values(stack, n, m)
        worst = max(worst, _calibration_deviation(fast, oracle))
    return CheckResult("periodization_calibration", worst <= tol, worst, tol, samples)


def check_zak_calibration(rng: np.random.Generator, samples: int = 100) -> CheckResult:
    """Zak-product bracket vs operator-route bracket for shift-modulation models.

    The shapes drawn are those with L, M >= 2 and L * M <= 36.  Every
    element's action enters the operator-route values, so on these shapes an
    action with any element off, even by a unit scalar, fails this comparison.
    """
    tol = 1e-10
    shapes = [(l, m) for l in range(2, 19) for m in range(2, 19) if l * m <= 36]
    # Even samples are self-brackets; shapes group as in the periodization check.
    draws: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
    for i in range(samples):
        l, m = shapes[int(rng.integers(0, len(shapes)))]
        phi = _cvec(rng, l * m)
        psi = phi if i % 2 == 0 else _cvec(rng, l * m)
        draws.setdefault((l, m), []).append((phi, psi))
    worst = 0.0
    for (l, m), pairs in draws.items():
        phis, psis = (np.array(column) for column in zip(*pairs))
        rep = gabor_representation(l, m)
        oracle = _multipliers(rep.group, _kernel_values(_orbit_stack(rep, psis), phis))
        fast = _zak_values(phis, psis, l, m)
        worst = max(worst, _calibration_deviation(fast, oracle))
    return CheckResult("zak_calibration", worst <= tol, worst, tol, samples)


def _calibration_deviation(fast: np.ndarray, oracle: np.ndarray) -> float:
    """Largest over rows of max |fast - oracle| / max(1, max |oracle|)."""
    scale = np.maximum(1.0, np.abs(oracle).max(axis=1))
    return float((np.abs(fast - oracle).max(axis=1) / scale).max())


def run_verification_suite(
    group_specs=DEFAULT_GROUP_SPECS,
    seed: int = 0,
    samples: int = 25,
    max_order: int = DEFAULT_MAX_ORDER,
) -> dict:
    """Run every named check and bundle the results for reporting.

    Each spec is resolved once, under max_order, and its regular
    representation built once; the checks take the built groups or
    representations.  Abelian-only checks are skipped (with a notice) when no
    given group is commutative.  Returns a JSON-ready dict; overall `passed`
    is the conjunction of the individual verdicts.
    """
    rng = np.random.default_rng(seed)
    specs = list(group_specs)
    groups = [group_from_spec(s, max_order=max_order) for s in specs]
    abelian = [g for g in groups if g.factors is not None]

    reps = [regular_representation(g) for g in groups]
    models = [parse_rep_spec(spec) for spec in _DEFAULT_MODELS]

    results = [
        check_representation_validity(reps + models),
        check_gabor_commutativity(models),
        check_bracket_gramian(reps, rng, samples=samples),
        check_duallemma_suite(rng, samples=max(samples, 25)),
    ]
    notices = []
    if abelian:
        results.append(check_lambda_structure(abelian, rng, pairs=samples))
        results.append(check_support_lemma(reps, rng, samples=samples))
        results.append(
            check_sandwich_suite(
                reps, rng, samples=samples, adversarial=max(4, samples // 5)
            )
        )
    else:
        skipped = "multiplier, support, and sandwich checks skipped"
        if any(g.is_abelian for g in groups):
            notices.append(
                "the multiplier transform needs cyclic-product coordinates, "
                f"which no given group has: {skipped}"
            )
        else:
            notices.append(f"no abelian groups given: {skipped}")
    results.append(check_periodization_calibration(rng, samples=samples))
    results.append(check_zak_calibration(rng, samples=samples))

    payload = {
        "seed": seed,
        "groups": specs,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json_dict() for r in results],
    }
    if notices:
        payload["notices"] = notices
    return payload
