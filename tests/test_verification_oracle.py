"""The batched self-check runners against per-sample oracles.

Each oracle below is a runner as it was written before the checks were
batched: one sample at a time, one LAPACK call per matrix, every formula
spelled out on the group's own tables.  The batched runners draw the same
random stream and must return equal CheckResults, float for float, and
leave the generator in the same state.
"""

import numpy as np
import pytest

import framelab.abelian as abelian
import framelab.vnalgebra as vnalgebra
from framelab.frames import _bracket_gramian_deviations, _duallemma_reports, check_duallemma
from framelab.groups import character_table, group_from_spec
from framelab.representations import (
    gabor_representation,
    regular_representation,
    shift_model_representation,
)
from framelab.verification import (
    CheckResult,
    _cvec,
    _greedy_multiset_deviation as greedy_stack,
    _random_factor_matrix,
    _random_psd_draw,
    check_bracket_gramian,
    check_duallemma_suite,
    check_gabor_commutativity,
    check_lambda_structure,
    check_periodization_calibration,
    check_sandwich_suite,
    check_support_lemma,
    check_zak_calibration,
)

SEEDS = range(6)
SAMPLES = (1, 7, 25)
SPECS = ("Z2", "Z4", "Z2xZ2", "Z3xZ4", "D4", "H3", "Z2xZ3", "D5", "H5")


# -- per-sample formulas ---------------------------------------------------------


def _dense(group, c):
    return c[group.table[group.inverses].T]  # F[x, y] = c(y^-1 x)


def _multiplier(group, c):
    return np.conj(character_table(group)) @ c


def _inverse_multiplier(group, values):
    return (values @ character_table(group)) / group.order


def _correlation(rep, phi, psi):
    moved = rep.phase * psi[rep.src]
    return moved.conj() @ phi


def _convolve(group, u, v):
    return u[group.table[:, group.inverses]] @ v


def _lp_norm(mat, identity, p):
    if np.isinf(p):
        return float(np.linalg.norm(mat, ord=2))
    gram = mat.conj().T @ mat
    w, v = np.linalg.eigh(gram)
    mu = np.sqrt(np.clip(w, 0.0, None))
    weights = np.abs(v[identity, :]) ** 2
    return float((weights @ mu**p) ** (1.0 / p))


def _dual_lp_norm(values, p):
    mags = np.abs(values)
    if np.isinf(p):
        return float(mags.max(initial=0.0))
    return float((np.mean(mags**p)) ** (1.0 / p))


def _support_indicator(values, tol):
    real = values.real
    thresh = tol * max(float(real.max(initial=0.0)), 1.0)
    return (real > thresh).astype(np.complex128)


def _support_projection(group, mat, tol):
    """Kernel of the support projection, with every check the old code made."""
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    assert float(np.abs(mat - mat.conj().T).max(initial=0.0)) <= 1e-12 * scale
    w, v = np.linalg.eigh(mat)
    recon = (v * w) @ v.conj().T
    assert float(np.abs(recon - mat).max()) <= 1e-9 * (1.0 + float(np.abs(w).max()))
    keep = np.abs(w) > tol * max(1.0, float(np.abs(w).max(initial=0.0)))
    basis = v[:, keep]
    proj = basis @ basis.conj().T
    kernel = proj[group.identity, group.inverses]
    rebuilt = _dense(group, kernel)
    scale = max(1.0, float(np.abs(proj).max(initial=0.0)))
    assert float(np.abs(rebuilt - proj).max()) <= max(tol, 1e-10) * scale
    idem = float(np.abs(rebuilt @ rebuilt - rebuilt).max())
    assert idem <= 1e-10 * max(1.0, float(np.abs(rebuilt).max()))
    return kernel


def _duallemma(k, a, b, tol):
    g = k.conj().T @ k
    f = k @ k.conj().T
    u, s, vh = np.linalg.svd(k)
    s2 = s**2
    lam_max = float(s2[0]) if s2.size else 0.0
    rank = int(np.sum(s2 > tol * max(lam_max, 0.0)))
    p_ran_k = u[:, :rank] @ u[:, :rank].conj().T
    p_ran_kstar = vh[:rank].conj().T @ vh[:rank]
    slack = tol * max(1.0, float(b), lam_max)

    def psd_margin(mat):
        w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        return float(w[0]) if w.size else 0.0

    m_i = min(psd_margin(f - a * p_ran_k), psd_margin(b * p_ran_k - f))
    m_ii = min(psd_margin(g @ g - a * g), psd_margin(b * g - g @ g))
    m_iv = min(psd_margin(g - a * p_ran_kstar), psd_margin(b * p_ran_kstar - g))
    w_g = np.linalg.eigvalsh(g)
    dist_band = np.maximum(a - w_g, w_g - b)
    m_iii = -float(np.minimum(np.abs(w_g), np.maximum(dist_band, 0.0)).max(initial=0.0))
    margins = (m_i, m_ii, m_iii, m_iv)
    return tuple(m >= -slack for m in margins), tuple(max(0.0, -m) for m in margins)


def _sandwich_sides(group, c, a, b, tol):
    mat = _dense(group, c)
    herm = (mat + mat.conj().T) / 2.0
    slack = tol * max(1.0, float(np.linalg.eigvalsh(herm)[-1]))
    proj = _dense(group, _support_projection(group, mat, tol))
    lower_op = float(np.linalg.eigvalsh(herm - a * proj)[0])
    upper_op = float(np.linalg.eigvalsh(b * proj - herm)[0])
    mult = _multiplier(group, c)
    vals = mult.real
    ind = _support_indicator(mult, tol).real
    lower_sc = float((vals - a * ind).min(initial=0.0))
    upper_sc = float((b * ind - vals).min(initial=0.0))
    deviations = [max(0.0, -m) for m in (lower_op, upper_op, lower_sc, upper_sc)]
    return (
        lower_op >= -slack and upper_op >= -slack,
        lower_sc >= -slack and upper_sc >= -slack,
        deviations,
    )


def _greedy_multiset_deviation(left, right):
    right = list(right)
    worst = 0.0
    for val in left:
        gaps = [abs(val - r) for r in right]
        idx = int(np.argmin(gaps))
        worst = max(worst, float(gaps[idx]))
        right.pop(idx)
    return worst


# -- per-sample runners ------------------------------------------------------------


def _abelian_groups(specs):
    groups = (group_from_spec(s) for s in specs)
    return [g for g in groups if g.is_abelian and g.abelian is not None]


def oracle_bracket_gramian(specs, rng, samples, tol=1e-11, trace_tol=1e-12):
    worst = worst_trace = 0.0
    count = 0
    for spec in specs:
        rep = regular_representation(group_from_spec(spec))
        for _ in range(samples):
            psi = _cvec(rng, rep.dim)
            synthesis = (rep.phase * psi[rep.src]).T.copy()
            gram = synthesis.conj().T @ synthesis
            c = _correlation(rep, psi, psi)
            worst = max(worst, float(np.abs(_dense(rep.group, c) - gram).max()))
            norm_sq = float(np.linalg.norm(psi) ** 2)
            worst_trace = max(worst_trace, abs(complex(c[rep.group.identity]) - norm_sq))
            count += 1
    return CheckResult(
        "bracket_equals_gramian",
        worst <= tol and worst_trace <= trace_tol,
        worst,
        tol,
        count,
        {"trace_deviation": worst_trace, "trace_tolerance": trace_tol},
    )


def oracle_duallemma_suite(rng, samples, max_dim=32, tol=1e-10):
    disagreements = false_negatives = stuck_flips = 0
    for _ in range(samples):
        k, s2 = _random_factor_matrix(rng, max_dim)
        a = float(s2.min()) * (1.0 - 1e-3)
        b = float(s2.max()) * (1.0 + 1e-3)
        report, _ = _duallemma(k, a, b, tol)
        disagreements += len(set(report)) != 1
        false_negatives += not all(report)
        distinct = np.unique(s2)
        ceiling = float(distinct[1]) if distinct.size > 1 else b
        a_bad = float(s2.min()) + 0.5 * (ceiling - float(s2.min()))
        flipped, _ = _duallemma(k, a_bad, b, tol)
        disagreements += len(set(flipped)) != 1
        stuck_flips += any(flipped)
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


def oracle_lambda_structure(specs, rng, pairs, tol=1e-10, p_values=(1, 2, 4, np.inf)):
    worst = 0.0
    count = 0
    for group in _abelian_groups(specs):
        for _ in range(pairs):
            c1 = _cvec(rng, group.order)
            c2 = _cvec(rng, group.order)
            m1 = _multiplier(group, c1)
            m2 = _multiplier(group, c2)
            m12 = _multiplier(group, _convolve(group, c2, c1))
            prod_dev = float(np.abs(m12 - m1 * m2).max()) / max(
                1.0, float(np.abs(m1 * m2).max())
            )
            m_star = _multiplier(group, np.conj(c1[group.inverses]))
            star_dev = float(np.abs(m_star - np.conj(m1)).max()) / max(
                1.0, float(np.abs(m1).max())
            )
            worst = max(worst, prod_dev, star_dev)
            mat = _dense(group, c1)
            for p in p_values:
                a = _lp_norm(mat, group.identity, float(p))
                b = _dual_lp_norm(m1, float(p))
                worst = max(worst, abs(a - b) / max(1.0, a))
            eig = np.linalg.eigvals(mat)
            spec_dev = _greedy_multiset_deviation(m1, eig) / max(
                1.0, float(np.abs(m1).max())
            )
            worst = max(worst, spec_dev)
            count += 1
    return CheckResult("lambda_structure", worst <= tol, worst, tol, count)


def oracle_support_lemma(specs, rng, samples, tol=1e-10):
    mismatches = 0
    worst = 0.0
    count = 0
    for group in _abelian_groups(specs):
        for i in range(samples):
            if i % 2 == 0:
                vals = rng.uniform(0.5, 2.0, size=group.order)
                mask = rng.integers(0, 2, size=group.order).astype(bool)
                if mask.all():
                    mask[int(rng.integers(0, group.order))] = False
                vals = np.where(mask, 0.0, vals).astype(np.complex128)
                c = _inverse_multiplier(group, vals)
            else:
                psi = _cvec(rng, group.order)
                c = _correlation(regular_representation(group), psi, psi)
            proj = _support_projection(group, _dense(group, c), tol)
            via_proj = _multiplier(group, proj)
            chi = _support_indicator(_multiplier(group, c), tol)
            rounded = (via_proj.real > 0.5).astype(float)
            mismatches += not np.array_equal(rounded, chi.real)
            worst = max(worst, float(np.abs(via_proj - chi).max()))
            count += 1
    return CheckResult(
        "support_lemma", mismatches == 0, worst, tol, count, {"mismatches": mismatches}
    )


def oracle_sandwich_suite(specs, rng, samples, adversarial, tol=1e-10):
    reps = [regular_representation(g) for g in _abelian_groups(specs)]
    if not reps:
        return CheckResult("sandwich_equivalence", True, 0.0, tol, 0, {"skipped": 1})
    disagreements = wrong_calls = count = 0

    def run_case(rep, c, a, b, expected):
        nonlocal disagreements, wrong_calls, count
        operator_ok, scalar_ok, _ = _sandwich_sides(rep.group, c, a, b, tol)
        disagreements += operator_ok != scalar_ok
        wrong_calls += operator_ok != expected
        count += 1

    def draw(i):
        rep = reps[i % len(reps)]
        psi = _cvec(rng, rep.dim)
        c = _correlation(rep, psi, psi)
        mult = _multiplier(rep.group, c).real
        nonzero = mult[mult > tol * max(1.0, mult.max())]
        return rep, c, float(nonzero.min()), float(nonzero.max())

    for i in range(samples):
        rep, c, lo, hi = draw(i)
        mode = i % 3
        if mode == 0:
            run_case(rep, c, 0.9 * lo, 1.1 * hi, True)
        elif mode == 1:
            run_case(rep, c, 1.5 * lo if hi > 1.6 * lo else 1.1 * hi, 1.1 * hi, False)
        elif 0.9 * hi > lo:
            run_case(rep, c, 0.9 * lo, 0.9 * hi, False)
        else:
            run_case(rep, c, 0.9 * lo, 1.1 * hi, True)
    for i in range(adversarial):
        rep, c, lo, hi = draw(i)
        eps = 1e-6
        if i % 2 == 0:
            run_case(rep, c, lo * (1.0 - eps), hi * (1.0 + eps), True)
        else:
            run_case(rep, c, lo * (1.0 + eps), hi * (1.0 + eps), False)
    bad = disagreements + wrong_calls
    return CheckResult(
        "sandwich_equivalence",
        bad == 0,
        float(bad),
        0.0,
        count,
        {"disagreements": disagreements, "wrong_calls": wrong_calls},
    )


def oracle_gabor_commutativity(models):
    worst = 0.0
    exact = True
    count = 0
    for l, m in models:
        n = l * m
        x = np.arange(n)
        mats = gabor_representation(l, m).matrices
        for k1 in range(l):
            for j1 in range(m):
                for k2 in range(l):
                    for j2 in range(m):
                        t12 = (l * j1 * x + l * j2 * ((x - m * k1) % n)) % n
                        t21 = (l * j2 * x + l * j1 * ((x - m * k2) % n)) % n
                        exact = exact and np.array_equal(t12, t21)
                        a, b = k1 * m + j1, k2 * m + j2
                        dev = float(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a]).max())
                        worst = max(worst, dev)
                        count += 1
    return CheckResult(
        "gabor_commutativity",
        exact and worst <= 1e-14,
        worst,
        1e-14,
        count,
        {"integer_phases_exact": exact},
    )


def oracle_periodization_calibration(rng, samples, tol=1e-10, max_n=16, max_m=8):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, max_m + 1))
        psi = _cvec(rng, n * m)
        rep = shift_model_representation(n, m)
        oracle = abelian.scalar_bracket(rep, psi, psi).values
        fast = abelian.periodization_bracket(psi, n, m).values
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.abs(fast - oracle).max()) / scale)
    return CheckResult("periodization_calibration", worst <= tol, worst, tol, samples)


def oracle_zak_calibration(rng, samples, tol=1e-10, max_product=36):
    shapes = [
        (l, m)
        for l in range(2, max_product // 2 + 1)
        for m in range(2, max_product // 2 + 1)
        if l * m <= max_product
    ]
    worst = 0.0
    for i in range(samples):
        l, m = shapes[int(rng.integers(0, len(shapes)))]
        phi = _cvec(rng, l * m)
        psi = phi if i % 2 == 0 else _cvec(rng, l * m)
        rep = gabor_representation(l, m)
        oracle = abelian.scalar_bracket(rep, phi, psi).values
        fast = abelian.gabor_bracket_via_zak(phi, psi, l, m).values
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.abs(fast - oracle).max()) / scale)
    return CheckResult("zak_calibration", worst <= tol, worst, tol, samples)


# -- batched == per-sample ---------------------------------------------------------


def _same(batched, oracle, rng_batched, rng_oracle):
    assert batched == oracle
    assert batched.to_json_dict() == oracle.to_json_dict()
    assert rng_batched.bit_generator.state == rng_oracle.bit_generator.state


def _rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bracket_gramian_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    _same(
        check_bracket_gramian([group_from_spec(s) for s in SPECS], new, samples=samples),
        oracle_bracket_gramian(SPECS, old, samples),
        new,
        old,
    )


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_duallemma_suite_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    _same(
        check_duallemma_suite(new, samples=samples),
        oracle_duallemma_suite(old, samples),
        new,
        old,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_duallemma_reports_match_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        k, s2 = _random_factor_matrix(rng, 32)
        b = float(s2.max()) * (1.0 + 1e-3)
        lower = (float(s2.min()) * (1.0 - 1e-3), float(s2.min()) * 1.01, 0.5 * b)
        batched = _duallemma_reports(k, lower, b)
        for a, report in zip(lower, batched):
            flags, deviations = _duallemma(k, a, b, 1e-10)
            assert report.as_tuple() == flags
            assert tuple(report.deviations.values()) == deviations
            assert check_duallemma(k, a, b) == report


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_lambda_structure_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    _same(
        check_lambda_structure([group_from_spec(s) for s in SPECS], new, pairs=samples),
        oracle_lambda_structure(SPECS, old, samples),
        new,
        old,
    )


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_support_lemma_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    _same(
        check_support_lemma([group_from_spec(s) for s in SPECS], new, samples=samples),
        oracle_support_lemma(SPECS, old, samples),
        new,
        old,
    )


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_sandwich_suite_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    adversarial = max(4, samples // 5)
    _same(
        check_sandwich_suite(
            [group_from_spec(s) for s in SPECS], new, samples=samples, adversarial=adversarial
        ),
        oracle_sandwich_suite(SPECS, old, samples, adversarial),
        new,
        old,
    )


# Over 100 samples the draws repeat shapes, so stacks hold several rows.
@pytest.mark.parametrize("samples", SAMPLES + (100,))
@pytest.mark.parametrize("seed", SEEDS)
def test_periodization_calibration_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    _same(
        check_periodization_calibration(new, samples=samples),
        oracle_periodization_calibration(old, samples),
        new,
        old,
    )


@pytest.mark.parametrize("samples", SAMPLES + (100,))
@pytest.mark.parametrize("seed", SEEDS)
def test_zak_calibration_matches_oracle(seed, samples):
    new, old = _rngs(seed)
    _same(
        check_zak_calibration(new, samples=samples),
        oracle_zak_calibration(old, samples),
        new,
        old,
    )


@pytest.mark.parametrize("models", [((2, 3),), ((2, 2), (3, 4)), ((5, 6),)])
def test_gabor_commutativity_matches_dense_oracle(models):
    assert check_gabor_commutativity(models) == oracle_gabor_commutativity(models)


@pytest.mark.parametrize("models", [((4, 3),), ((6, 6),)])
def test_gabor_commutativity_where_dense_products_fuse(models):
    # On these shapes the dense zgemm product reads an exact 0 where the
    # rounded phase products differ by one ulp of a unit value.
    got = check_gabor_commutativity(models)
    want = oracle_gabor_commutativity(models)
    assert got.passed == want.passed and got.samples == want.samples
    assert got.details == want.details
    assert abs(got.max_deviation - want.max_deviation) <= 1e-16


# -- each stacked kernel row by row ---------------------------------------------------
#
# The runners above compare only the worst value over all samples; these
# compare every row of every stacked kernel with its per-sample formula.


def _abelian_kernels(group, rng, count):
    """Bracket kernels of random generators and kernels of masked multipliers."""
    draws = [_random_psd_draw(rng, group, masked=(i % 2 == 0)) for i in range(count)]
    rep = regular_representation(group)
    return np.array(
        [
            _inverse_multiplier(group, d) if i % 2 == 0 else _correlation(rep, d, d)
            for i, d in enumerate(draws)
        ]
    )


# Z3 and Z5 often give rank-1 projections, whose product numpy forms
# without BLAS.
@pytest.mark.parametrize("spec", ["Z2", "Z3", "Z5", "Z3xZ4", "Z2xZ2xZ3", "Z2xZ4xZ6", "Z48"])
def test_stacked_kernels_match_per_sample_formulas(spec):
    group = group_from_spec(spec)
    rng = np.random.default_rng(11)
    p_values = (1, 2, 4, np.inf)

    general = np.array([_cvec(rng, group.order) for _ in range(25)])
    mats = vnalgebra._convolution_matrices(group, general)
    norms = vnalgebra._lp_norms(mats, group.identity, p_values)
    mults = abelian._multipliers(group, general)
    dual = abelian._dual_lp_norms(mults, p_values)
    for row, c in enumerate(general):
        assert np.array_equal(mults[row], _multiplier(group, c))
        for col, p in enumerate(p_values):
            assert norms[row, col] == _lp_norm(_dense(group, c), group.identity, float(p))
            assert dual[row, col] == _dual_lp_norm(_multiplier(group, c), float(p))

    kernels = _abelian_kernels(group, rng, 25)
    mats = vnalgebra._convolution_matrices(group, kernels)
    projections = vnalgebra._support_projections(group, mats, 1e-10)
    indicators = abelian._support_indicators(abelian._multipliers(group, kernels), 1e-10)
    a = rng.uniform(0.0, 1.0, len(kernels))
    b = rng.uniform(1.0, 20.0, len(kernels))
    sides = abelian._sandwich_sides(group, kernels, a, b, 1e-10)
    operator_ok, scalar_ok, deviations = sides
    for row, c in enumerate(kernels):
        want = _support_projection(group, _dense(group, c), 1e-10)
        assert np.array_equal(projections[row], want)
        want = _support_indicator(_multiplier(group, c), 1e-10)
        assert np.array_equal(indicators[row], want)
        want_op, want_sc, want_dev = _sandwich_sides(group, c, a[row], b[row], 1e-10)
        assert (operator_ok[row], scalar_ok[row]) == (want_op, want_sc)
        assert [float(d[row]) for d in deviations.values()] == want_dev


@pytest.mark.parametrize("spec", ["Z4", "Z3xZ4", "D5", "H3"])
def test_bracket_gramian_rows_match_per_sample(spec):
    rep = regular_representation(group_from_spec(spec))
    rng = np.random.default_rng(12)
    psis = np.array([_cvec(rng, rep.dim) for _ in range(25)])
    max_dev, trace_dev = _bracket_gramian_deviations(rep, psis)
    for row, psi in enumerate(psis):
        synthesis = (rep.phase * psi[rep.src]).T.copy()
        gram = synthesis.conj().T @ synthesis
        c = _correlation(rep, psi, psi)
        assert max_dev[row] == float(np.abs(_dense(rep.group, c) - gram).max())
        norm_sq = float(np.linalg.norm(psi) ** 2)
        assert trace_dev[row] == abs(complex(c[rep.group.identity]) - norm_sq)


def test_greedy_matching_takes_the_first_of_equal_gaps():
    # 0 is as far from 1 as from -1; taking 1 first leaves 2 to match -1.
    left = np.array([[0.0, 2.0]], dtype=complex)
    right = np.array([[1.0, -1.0]], dtype=complex)
    assert greedy_stack(left, right)[0] == 3.0
    assert _greedy_multiset_deviation(left[0], right[0]) == 3.0
    rng = np.random.default_rng(13)
    left, right = (_cvec(rng, 180).reshape(30, 6) for _ in range(2))
    want = [_greedy_multiset_deviation(x, y) for x, y in zip(left, right)]
    assert greedy_stack(left, right).tolist() == want
