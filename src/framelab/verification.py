"""Randomized self-checks behind the `frame-lab verify` command.

Each check returns a CheckResult with the worst deviation it saw; the
acceptance tests reuse these runners with their own sample counts and
tolerances.  All randomness flows from one seeded generator so a verify run
is reproducible from its reported seed.
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
    _correlation_values,
    _product_action,
    gabor_representation,
    parse_rep_spec,
    regular_representation,
    shift_model_representation,
    verify_representation,
)
from .vnalgebra import _convolution_matrices, _lp_norms, _support_projections

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


def _cvec(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _cvecs(rng: np.random.Generator, shape: tuple[int, ...], n: int) -> np.ndarray:
    """An array of _cvec(rng, n) draws, the last axis of shape running fastest.

    A Generator draws values in sequence, so this consumes the stream exactly
    as the same _cvec calls in order would.
    """
    draws = rng.standard_normal((*shape, 2, n))
    return draws[..., 0, :] + 1j * draws[..., 1, :]


def check_representation_validity(
    reps: list[UnitaryRepresentation], tol: float = 1e-13
) -> CheckResult:
    """Identity, unitarity, and the group law for every given representation."""
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
    """Commutativity of the shift-modulation lattice, on exact integer phases.

    models lists the (l, m) sizes of gabor models.  For the (l, m) model the
    composed action of (k, j) then (k', j') carries the integer phase
    l j x + l j' (x - m k) mod n.  Commutativity is exact when swapping the
    pair leaves all phases and shifts unchanged as integers, which avoids
    trusting bitwise floating products.  The two products U(a) U(b) and
    U(b) U(a) are also compared with a strict tolerance, entry by entry on
    their monomial form.
    """
    worst = 0.0
    exact = True
    count = 0
    for l, m in models:
        n = l * m
        x = np.arange(n)
        rep = gabor_representation(l, m)
        # One row per (k1, j1, k2, j2), the last running fastest.
        k1, j1, k2, j2 = (i.reshape(-1, 1) for i in np.indices((l, m, l, m)))
        t12 = (l * j1 * x + l * j2 * ((x - m * k1) % n)) % n
        t21 = (l * j2 * x + l * j1 * ((x - m * k2) % n)) % n
        exact = exact and bool(np.array_equal(t12, t21))
        a, b = (k1 * m + j1).ravel(), (k2 * m + j2).ravel()
        dev = _action_deviation(*_product_action(rep, a, b), *_product_action(rep, b, a))
        worst = max(worst, float(dev.max()))
        count += a.size
    tol = 1e-14
    return CheckResult(
        "gabor_commutativity",
        exact and worst <= tol,
        worst,
        tol,
        count,
        {"integer_phases_exact": exact},
    )


def check_bracket_gramian(
    groups: list[FiniteGroup],
    rng: np.random.Generator,
    samples: int = 100,
    tol: float = 1e-11,
    trace_tol: float = 1e-12,
    inject_fault: bool = False,
) -> CheckResult:
    """Correlation-kernel operator vs orbit Gram matrix, entrywise and in trace."""
    worst = 0.0
    worst_trace = 0.0
    count = 0
    for group in groups:
        rep = regular_representation(group)
        dev, trace_dev = _bracket_gramian_deviations(rep, _cvecs(rng, (samples,), rep.dim))
        if inject_fault:
            # Deliberate bias so failure paths stay testable end to end.
            dev = dev + 1e-6
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
    rng: np.random.Generator, max_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random K with controlled, well separated nonzero singular values."""
    rows = int(rng.integers(2, max_dim + 1))
    cols = int(rng.integers(2, max_dim + 1))
    rank = int(rng.integers(1, min(rows, cols) + 1))
    sing = np.sort(rng.uniform(0.5, 2.0, size=rank)) + 0.05 * np.arange(rank)
    q1, _ = np.linalg.qr(_cvec(rng, rows * rows).reshape(rows, rows))
    q2, _ = np.linalg.qr(_cvec(rng, cols * cols).reshape(cols, cols))
    k = (q1[:, :rank] * sing) @ q2[:, :rank].conj().T
    return k, sing**2


def check_duallemma_suite(
    rng: np.random.Generator,
    samples: int = 200,
    max_dim: int = 32,
    tol: float = 1e-10,
) -> CheckResult:
    """All four spectral tests agree, and flip together when A is pushed up."""
    disagreements = 0
    false_negatives = 0
    stuck_flips = 0
    for _ in range(samples):
        k, s2 = _random_factor_matrix(rng, max_dim)
        a = float(s2.min()) * (1.0 - 1e-3)
        b = float(s2.max()) * (1.0 + 1e-3)
        distinct = np.unique(s2)
        ceiling = float(distinct[1]) if distinct.size > 1 else b
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
    tol: float = 1e-10,
    p_values=(1, 2, 4, np.inf),
) -> CheckResult:
    """Multiplier transform: homomorphism, star, p-norm isometry, spectrum."""
    worst = 0.0
    count = 0
    for group in groups:
        if group.abelian is None:
            continue
        c1, c2 = _cvecs(rng, (pairs, 2), group.order).transpose(1, 0, 2)
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
    groups: list[FiniteGroup],
    rng: np.random.Generator,
    samples: int = 100,
    tol: float = 1e-10,
) -> CheckResult:
    """Multiplier of the support projection equals the support indicator."""
    mismatches = 0
    worst = 0.0
    count = 0
    for group in groups:
        if group.abelian is None:
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
        kernels[1::2] = _correlation_values(regular_representation(group), psis, psis)
        mats = _convolution_matrices(group, kernels)
        via_proj = _multipliers(group, _support_projections(group, mats, tol))
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
    lowered upper bound; adversarial ones move a bound by 1e-6 across the
    support's extreme values.
    """
    nonzero = mult[mult > tol * max(1.0, mult.max())]
    lo, hi = float(nonzero.min()), float(nonzero.max())
    if adversarial:
        eps = 1e-6
        if i % 2 == 0:
            return lo * (1.0 - eps), hi * (1.0 + eps), True
        return lo * (1.0 + eps), hi * (1.0 + eps), False
    mode = i % 3
    if mode == 0:
        return 0.9 * lo, 1.1 * hi, True
    if mode == 1:
        return 1.5 * lo if hi > 1.6 * lo else 1.1 * hi, 1.1 * hi, False
    if 0.9 * hi > lo:
        return 0.9 * lo, 0.9 * hi, False
    return 0.9 * lo, 1.1 * hi, True


def check_sandwich_suite(
    groups: list[FiniteGroup],
    rng: np.random.Generator,
    samples: int = 100,
    adversarial: int = 20,
    tol: float = 1e-10,
) -> CheckResult:
    """Operator-side and scalar-side two-sided bounds always agree."""
    disagreements = 0
    wrong_calls = 0
    count = 0
    reps = [regular_representation(g) for g in groups if g.abelian is not None]
    if not reps:
        return CheckResult("sandwich_equivalence", True, 0.0, tol, 0, {"skipped": 1})

    # Case i draws its generator for reps[i % len(reps)] in the order of the
    # cases; each representation's cases are then tested as one stack.
    cases = [(i, False) for i in range(samples)] + [(i, True) for i in range(adversarial)]
    psis = [_cvec(rng, reps[i % len(reps)].dim) for i, _ in cases]
    for r, rep in enumerate(reps):
        at = [j for j, (i, _) in enumerate(cases) if i % len(reps) == r]
        if not at:
            continue
        stack = np.array([psis[j] for j in at])
        kernels = _correlation_values(rep, stack, stack)
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
        {"disagreements": disagreements, "wrong_calls": wrong_calls},
    )


def check_periodization_calibration(
    rng: np.random.Generator,
    samples: int = 100,
    tol: float = 1e-10,
    max_n: int = 16,
    max_m: int = 8,
) -> CheckResult:
    """Folded-spectrum bracket vs operator-route bracket for shift models.

    Every sample's shape and generator are drawn first, in order; the samples
    of each shape are then checked as one stack on one representation.
    """
    draws: dict[tuple[int, int], list[np.ndarray]] = {}
    for _ in range(samples):
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, max_m + 1))
        draws.setdefault((n, m), []).append(_cvec(rng, n * m))
    worst = 0.0
    for (n, m), psis in draws.items():
        stack = np.array(psis)
        rep = shift_model_representation(n, m)
        oracle = _multipliers(rep.group, _correlation_values(rep, stack, stack))
        fast = _periodization_values(stack, n, m)
        worst = max(worst, _calibration_deviation(fast, oracle))
    return CheckResult("periodization_calibration", worst <= tol, worst, tol, samples)


def check_zak_calibration(
    rng: np.random.Generator,
    samples: int = 100,
    tol: float = 1e-10,
    max_product: int = 36,
) -> CheckResult:
    """Zak-product bracket vs operator-route bracket for shift-modulation models."""
    shapes = [
        (l, m)
        for l in range(2, max_product // 2 + 1)
        for m in range(2, max_product // 2 + 1)
        if l * m <= max_product
    ]
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
        oracle = _multipliers(rep.group, _correlation_values(rep, phis, psis))
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
    inject_fault: bool = False,
    max_order: int | None = None,
) -> dict:
    """Run every named check and bundle the results for reporting.

    Each spec is resolved once, under max_order, and the checks take the
    built groups.  Abelian-only checks are skipped (with a notice) when no
    given group is commutative.  Returns a JSON-ready dict; overall `passed`
    is the conjunction of the individual verdicts.
    """
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    rng = np.random.default_rng(seed)
    specs = list(group_specs)
    groups = [group_from_spec(s, max_order=cap) for s in specs]
    abelian = [g for g in groups if g.abelian is not None]

    reps = [regular_representation(g) for g in groups]
    models = [parse_rep_spec(spec) for spec in _DEFAULT_MODELS]
    gabor_sizes = [tuple(rep.model[1:]) for rep in models if rep.model[0] == "gabor"]

    results = [
        check_representation_validity(reps + models),
        check_gabor_commutativity(gabor_sizes),
        check_bracket_gramian(groups, rng, samples=samples, inject_fault=inject_fault),
        check_duallemma_suite(rng, samples=max(samples, 25)),
    ]
    notices = []
    if abelian:
        results.append(check_lambda_structure(abelian, rng, pairs=samples))
        results.append(check_support_lemma(abelian, rng, samples=samples))
        results.append(
            check_sandwich_suite(
                abelian, rng, samples=samples, adversarial=max(4, samples // 5)
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
