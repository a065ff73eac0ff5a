"""Gram spectra, Riesz and frame bounds, verdicts, equivalent spectral tests."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from framelab import (
    GAP_GUARD,
    VERDICT_BESSEL_ONLY,
    VERDICT_FRAME_NOT_RIESZ,
    VERDICT_RIESZ,
    VERDICT_ZERO,
    NonFiniteResultError,
    OrbitSystem,
    ZeroGeneratorError,
    analyze_orbit,
    bracket_operator,
    check_duallemma,
    dihedral_group,
    frame_bounds,
    frame_operator_matrix,
    gabor_representation,
    gram_matrix,
    heisenberg_group,
    make_abelian_group,
    make_builtin_group,
    orbit_matrix,
    parse_rep_spec,
    regular_representation,
    riesz_bounds,
    scalar_bracket,
    shift_model_representation,
    vector_system,
    verify_bracket_equals_gramian,
)


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _cyclic_orbit_from_spectrum(values):
    """Generator on Z_n whose shift-orbit Gram has the given eigenvalues."""
    values = np.asarray(values, dtype=float)
    psi = np.fft.ifft(np.sqrt(values))
    rep = regular_representation(make_abelian_group([values.size]))
    return OrbitSystem(rep, psi)


def test_gram_convention():
    # columns are the vectors; G[k, j] = <psi_j, psi_k>, linear in the row index
    e0 = np.array([1.0, 0.0])
    sys = vector_system(np.column_stack([e0, 1j * e0]))
    gram = gram_matrix(sys)
    assert gram[0, 1] == pytest.approx(1j)
    assert gram[1, 0] == pytest.approx(-1j)


def test_gram_and_frame_operator_shapes():
    rng = np.random.default_rng(1)
    mat = _cvec(rng, 15).reshape(3, 5)
    sys = vector_system(mat)
    assert gram_matrix(sys).shape == (5, 5)
    assert frame_operator_matrix(sys).shape == (3, 3)


def test_gram_and_frame_operator_share_nonzero_spectrum():
    rng = np.random.default_rng(2)
    mat = _cvec(rng, 28).reshape(4, 7)
    sys = vector_system(mat)
    wg = np.linalg.eigvalsh(gram_matrix(sys))
    wf = np.linalg.eigvalsh(frame_operator_matrix(sys))
    big_g = np.sort(wg[wg > 1e-10])
    np.testing.assert_allclose(big_g, np.sort(wf[wf > 1e-10]), atol=1e-10)


def test_riesz_bounds_orthonormal():
    sys = vector_system(np.eye(4))
    assert riesz_bounds(sys) == (pytest.approx(1.0), pytest.approx(1.0))


def test_riesz_bounds_two_vector_angle():
    # Gram [[1, a], [a, 1]] has eigenvalues 1 -+ a
    a = 0.3
    v1 = np.array([1.0, 0.0])
    v2 = np.array([a, np.sqrt(1 - a * a)])
    lo, hi = riesz_bounds(vector_system(np.column_stack([v1, v2])))
    assert lo == pytest.approx(1 - a, abs=1e-12)
    assert hi == pytest.approx(1 + a, abs=1e-12)


def test_riesz_bounds_none_for_dependent_system():
    v = np.array([1.0, 2.0, 0.0])
    sys = vector_system(np.column_stack([v, v]))
    assert riesz_bounds(sys) is None
    bounds, kernel_dim = frame_bounds(sys)
    assert kernel_dim == 1
    assert bounds[0] == pytest.approx(bounds[1])
    assert bounds[0] == pytest.approx(2 * 5.0)


def test_frame_bounds_zero_system():
    sys = vector_system(np.zeros((3, 4)))
    bounds, kernel_dim = frame_bounds(sys)
    assert bounds is None
    assert kernel_dim == 4


def test_bounds_inside_the_guard_band():
    # 1e-8 is kept at tol 1e-10 but lies under GAP_GUARD * tol: the verdict
    # withholds Riesz bounds there, riesz_bounds does not.
    from framelab.frames import _verdict_from_spectrum

    sys = vector_system(np.diag(np.sqrt([1e-8, 1.0])))
    want = (pytest.approx(1e-8), pytest.approx(1.0))
    assert riesz_bounds(sys, tol=1e-10) == want
    assert frame_bounds(sys, tol=1e-10) == (want, 0)
    verdict, rb, fb, kernel_dim, _ = _verdict_from_spectrum(
        np.linalg.eigvalsh(gram_matrix(sys)), 1e-10
    )
    assert (verdict, rb, fb, kernel_dim) == (VERDICT_BESSEL_ONLY, None, want, 0)


def test_bounds_against_random_quotients():
    # brute-force check of the optimality statement on a few random systems
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mat = _cvec(rng, n * m).reshape(n, m)
        sys = vector_system(mat)
        bounds, kernel_dim = frame_bounds(sys)
        a, b = bounds
        if kernel_dim == 0:
            assert riesz_bounds(sys) == bounds
            for _ in range(100):
                c = _cvec(rng, m)
                q = np.linalg.norm(mat @ c) ** 2 / np.linalg.norm(c) ** 2
                assert a * (1 - 1e-9) <= q <= b * (1 + 1e-9)
        # span vectors: analysis coefficients stay in the band
        for _ in range(100):
            phi = mat @ _cvec(rng, m)
            nrm = np.linalg.norm(phi) ** 2
            if nrm < 1e-12:
                continue
            q = np.linalg.norm(mat.conj().T @ phi) ** 2 / nrm
            assert a * (1 - 1e-9) <= q <= b * (1 + 1e-9)


def test_bounds_attained_by_eigenvectors():
    rng = np.random.default_rng(7)
    mat = _cvec(rng, 30).reshape(5, 6)
    sys = vector_system(mat)
    (a, b), _ = frame_bounds(sys)
    w, v = np.linalg.eigh(gram_matrix(sys))
    kept = w > 1e-10 * w[-1]
    idx_min = int(np.argmax(kept))  # first True: smallest kept eigenvalue
    for lam, idx in ((a, idx_min), (b, w.size - 1)):
        c = v[:, idx]
        q = np.linalg.norm(mat @ c) ** 2 / np.linalg.norm(c) ** 2
        assert abs(q - lam) < 1e-10 * max(1.0, lam)


def test_duallemma_identity():
    report = check_duallemma(np.eye(3), 0.5, 1.5)
    assert report.as_tuple() == (True, True, True, True)
    assert report.consistent


def test_duallemma_rejects_band_miss():
    # K K* = diag(4, 0): eigenvalue 4 misses [5, 6] in every formulation
    k = np.diag([2.0, 0.0])
    report = check_duallemma(k, 5.0, 6.0)
    assert report.as_tuple() == (False, False, False, False)
    assert report.consistent


def test_duallemma_true_on_bracketing_bounds():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rows, cols = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        k = _cvec(rng, rows * cols).reshape(rows, cols)
        w = np.linalg.eigvalsh(k @ k.conj().T)
        pos = w[w > 1e-10 * max(w[-1], 1.0)]
        a, b = pos[0] * (1 - 1e-6), pos[-1] * (1 + 1e-6)
        report = check_duallemma(k, a, b)
        assert report.as_tuple() == (True, True, True, True)


def test_duallemma_false_on_pushed_lower_bound():
    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(10):
        rows, cols = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        k = _cvec(rng, rows * cols).reshape(rows, cols)
        w = np.linalg.eigvalsh(k @ k.conj().T)
        pos = np.sort(w[w > 1e-10 * max(w[-1], 1.0)])
        distinct = np.unique(pos)
        if distinct.size < 2:
            continue
        # push A strictly above the smallest positive eigenvalue
        a_bad = distinct[0] + 0.5 * (distinct[1] - distinct[0])
        report = check_duallemma(k, a_bad, pos[-1] * 1.1)
        assert report.as_tuple() == (False, False, False, False)
        hits += 1
    assert hits >= 5


def test_duallemma_handles_rank_deficiency():
    rng = np.random.default_rng(17)
    base = _cvec(rng, 12).reshape(4, 3)
    k = np.column_stack([base, base[:, 0]])  # forced kernel in K* K
    w = np.linalg.eigvalsh(k @ k.conj().T)
    pos = w[w > 1e-8 * w[-1]]
    report = check_duallemma(k, pos[0] * 0.999, pos[-1] * 1.001)
    assert report.as_tuple() == (True, True, True, True)
    assert set(report.deviations) == {
        "frame_operator_sandwich",
        "gram_quadratic_sandwich",
        "gram_spectrum_in_band",
        "gram_projection_sandwich",
    }


def test_analyze_orbit_cyclic_worked_case():
    rep = regular_representation(make_abelian_group([4]))
    report = analyze_orbit(OrbitSystem(rep, [1.0, 0.5, 0.0, 0.0]))
    assert report.verdict == VERDICT_RIESZ
    assert report.riesz_bounds == (pytest.approx(0.25), pytest.approx(2.25))
    assert report.frame_bounds == (pytest.approx(0.25), pytest.approx(2.25))
    assert report.kernel_dim == 0
    np.testing.assert_allclose(
        report.gram_spectrum, [0.25, 1.25, 1.25, 2.25], atol=1e-12
    )
    assert report.route_agreement["bracket"] < 1e-12
    assert report.route_agreement["scalar"] < 1e-12
    assert report.spectral_gap == pytest.approx(0.25 / 2.25)


def test_analyze_orbit_rank_deficient_case():
    rep = regular_representation(make_abelian_group([2]))
    report = analyze_orbit(OrbitSystem(rep, [1.0, 1.0]))
    assert report.verdict == VERDICT_FRAME_NOT_RIESZ
    assert report.riesz_bounds is None
    assert report.frame_bounds == (pytest.approx(4.0), pytest.approx(4.0))
    assert report.kernel_dim == 1


def test_analyze_orbit_zero_generator():
    rep = regular_representation(make_abelian_group([3]))
    with pytest.raises(ZeroGeneratorError):
        analyze_orbit(OrbitSystem(rep, np.zeros(3)))


def test_analyze_orbit_verdict_boundaries():
    # eigenvalue below tol * lam_max counts as kernel
    report = analyze_orbit(_cyclic_orbit_from_spectrum([1.0, 1e-14, 1.0, 1.0]))
    assert report.verdict == VERDICT_FRAME_NOT_RIESZ
    # eigenvalue inside the guard band above the kernel cut is flagged
    report = analyze_orbit(_cyclic_orbit_from_spectrum([1.0, 3e-8, 1.0, 1.0]))
    assert report.verdict == VERDICT_BESSEL_ONLY
    assert report.riesz_bounds is None
    assert report.frame_bounds is not None
    # a clear gap stays riesz
    report = analyze_orbit(_cyclic_orbit_from_spectrum([1.0, 1e-3, 1.0, 1.0]))
    assert report.verdict == VERDICT_RIESZ
    assert report.riesz_bounds[0] == pytest.approx(1e-3, rel=1e-6)


def test_verdict_implications_on_assorted_reports():
    rng = np.random.default_rng(83)
    reports = []
    for k in range(10):
        values = np.abs(rng.standard_normal(8)) + 0.05
        dead = k % 3
        values[rng.permutation(8)[:dead]] = 0.0
        reports.append(analyze_orbit(_cyclic_orbit_from_spectrum(values)))
    for rep in (regular_representation(dihedral_group(3)), gabor_representation(3, 2)):
        reports.append(analyze_orbit(OrbitSystem(rep, _cvec(rng, rep.dim))))
    seen = {report.verdict for report in reports}
    assert VERDICT_RIESZ in seen and VERDICT_FRAME_NOT_RIESZ in seen
    for report in reports:
        if report.verdict == VERDICT_RIESZ:
            assert report.kernel_dim == 0
            assert report.riesz_bounds[0] > 0
            assert report.frame_bounds == report.riesz_bounds
        elif report.verdict == VERDICT_FRAME_NOT_RIESZ:
            assert report.kernel_dim >= 1
            assert report.riesz_bounds is None
            assert report.frame_bounds[0] > 0


def test_analyze_orbit_guard_band_width():
    # the flag band is (tol, GAP_GUARD * tol] relative to lambda_max
    tol = 1e-10
    just_above = 2.0 * GAP_GUARD * tol
    report = analyze_orbit(
        _cyclic_orbit_from_spectrum([1.0, just_above, 1.0, 1.0]), tol=tol
    )
    assert report.verdict == VERDICT_RIESZ


@pytest.mark.parametrize(
    "rep_factory",
    [
        lambda: regular_representation(make_builtin_group("Z3xZ4")),
        lambda: regular_representation(dihedral_group(4)),
        lambda: regular_representation(heisenberg_group(2)),
        lambda: shift_model_representation(5, 2),
        lambda: gabor_representation(3, 2),
    ],
)
def test_analyze_orbit_routes_agree_on_random_generators(rep_factory):
    rep = rep_factory()
    rng = np.random.default_rng(23)
    for _ in range(5):
        psi = _cvec(rng, rep.dim)
        report = analyze_orbit(OrbitSystem(rep, psi))
        assert report.route_agreement["bracket"] < 1e-9
        if rep.group.is_abelian:
            assert report.route_agreement["scalar"] < 1e-9
        else:
            assert "scalar" not in report.route_agreement


def test_analyze_orbit_json_payload():
    rep = regular_representation(make_abelian_group([4]))
    report = analyze_orbit(OrbitSystem(rep, [1.0, 0.5, 0.0, 0.0]))
    payload = report.to_json_dict()
    assert set(payload) == {
        "verdict",
        "riesz_bounds",
        "frame_bounds",
        "spectrum",
        "kernel_dim",
        "routes",
        "tolerance",
        "spectral_gap",
    }
    assert payload["verdict"] == "riesz"
    assert payload["riesz_bounds"] == pytest.approx([0.25, 2.25])


def test_bracket_equals_gramian_worked_case():
    rep = regular_representation(make_abelian_group([4]))
    check = verify_bracket_equals_gramian(OrbitSystem(rep, [1.0, 0.5, 0.0, 0.0]))
    assert check.max_deviation < 1e-12
    assert check.trace_deviation < 1e-12


@pytest.mark.parametrize(
    "rep_factory",
    [
        lambda: regular_representation(dihedral_group(4)),
        lambda: regular_representation(heisenberg_group(3)),
        lambda: gabor_representation(2, 3),
        lambda: shift_model_representation(4, 4),
    ],
)
def test_bracket_equals_gramian_random(rep_factory):
    rep = rep_factory()
    rng = np.random.default_rng(29)
    for _ in range(10):
        psi = _cvec(rng, rep.dim)
        check = verify_bracket_equals_gramian(OrbitSystem(rep, psi))
        assert check.max_deviation < 1e-11
        assert check.trace_deviation < 1e-12


_cyclic_specs = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
    lambda factors: "regular:" + "x".join(f"Z{n}" for n in factors)
)
_model_specs = st.one_of(
    st.tuples(st.integers(2, 8), st.integers(1, 6)).map(lambda t: f"shift:{t[0]},{t[1]}"),
    st.tuples(st.integers(2, 8), st.integers(2, 8)).map(lambda t: f"gabor:{t[0]},{t[1]}"),
)
# Every spec here has cyclic-product coordinates, so it has a multiplier.
_abelian_specs = st.one_of(_cyclic_specs, _model_specs)
_rep_specs = st.one_of(
    _abelian_specs,
    st.integers(2, 9).map(lambda n: f"regular:D{n}"),
    st.integers(2, 4).map(lambda p: f"regular:H{p}"),
)


@given(spec=_rep_specs, seed=st.integers(0, 2**32 - 1))
def test_bracket_operator_equals_gram_matrix(spec, seed):
    rep = parse_rep_spec(spec)
    psi = _cvec(np.random.default_rng(seed), rep.dim)
    orbit = OrbitSystem(rep, psi)
    gram = gram_matrix(vector_system(orbit_matrix(orbit)))
    op = bracket_operator(rep, psi, psi)
    norm_sq = float(np.vdot(psi, psi).real)
    assert np.abs(op.matrix - gram).max() <= 1e-13 * norm_sq
    check = verify_bracket_equals_gramian(orbit)
    assert check.max_deviation <= 1e-13 * norm_sq
    assert check.trace_deviation <= 1e-13 * norm_sq


@given(spec=_abelian_specs, seed=st.integers(0, 2**32 - 1))
def test_multiplier_values_are_the_gram_spectrum(spec, seed):
    rep = parse_rep_spec(spec)
    psi = _cvec(np.random.default_rng(seed), rep.dim)
    w = np.linalg.eigvalsh(gram_matrix(vector_system(orbit_matrix(OrbitSystem(rep, psi)))))
    values = scalar_bracket(rep, psi, psi).values
    assert np.abs(np.sort(values.real) - w).max() <= 1e-12 * w[-1]
    assert np.abs(values.imag).max() <= 1e-12 * w[-1]


def test_gram_entries_follow_group_structure():
    # G[x, y] = correlation(y^-1 x) ties the Gram to the group law directly
    from framelab import correlation_function, orbit_matrix

    rep = regular_representation(dihedral_group(3))
    rng = np.random.default_rng(31)
    psi = _cvec(rng, 6)
    corr = correlation_function(rep, psi, psi).values
    gram = gram_matrix(vector_system(orbit_matrix(OrbitSystem(rep, psi))))
    g = rep.group
    for x in g.elements():
        for y in g.elements():
            want = corr[g.product(g.inverse(y), x)]
            assert abs(gram[x, y] - want) < 1e-12


def test_zero_verdict_constant_exported():
    assert VERDICT_ZERO == "zero_system"


def test_vector_system_validation():
    with pytest.raises(ValueError):
        vector_system(np.ones(3))


_SCALE_REPS = {
    spec: parse_rep_spec(spec)
    for spec in (
        "regular:Z4",
        "regular:Z2xZ3",
        "regular:D3",
        "regular:H2",
        "shift:4,2",
        "gabor:2,3",
    )
}
_COEFFICIENTS = st.one_of(
    st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3)
)


@given(
    spec=st.sampled_from(sorted(_SCALE_REPS)),
    k=st.integers(-300, 300),
    data=st.data(),
)
def test_analyze_orbit_verdict_is_scale_free(spec, k, data):
    rep = _SCALE_REPS[spec]
    parts = data.draw(
        arrays(np.float64, (2, rep.dim), elements=_COEFFICIENTS), label="psi"
    )
    psi = parts[0] + 1j * parts[1]
    assume(np.any(psi != 0))
    base = analyze_orbit(OrbitSystem(rep, psi))
    w, lam_max = base.gram_spectrum, float(base.gram_spectrum[-1])
    for edge in (base.tolerance * lam_max, GAP_GUARD * base.tolerance * lam_max):
        assume(not np.any((w > edge / 10) & (w < edge * 10)))

    c = 10.0**k
    scaled_psi = c * psi
    # Three regimes: the squared norm underflows (nothing to classify), the
    # largest eigenvalue c^2 * lambda_max overflows (a typed error), or both
    # fit and the verdict and bounds are those at unit scale.  The squared
    # norm is c^2 times that at unit scale: it may overflow to infinity, but
    # unlike np.vdot of a complex c * psi it never reads NaN.
    with np.errstate(over="ignore"):
        norm_sq = (c * np.linalg.norm(psi)) ** 2
    if not norm_sq >= np.finfo(float).tiny:
        with pytest.raises(ZeroGeneratorError):
            analyze_orbit(OrbitSystem(rep, scaled_psi))
        return
    if not np.isfinite(lam_max * c * c):
        with pytest.raises(NonFiniteResultError):
            analyze_orbit(OrbitSystem(rep, scaled_psi))
        return
    scaled = analyze_orbit(OrbitSystem(rep, scaled_psi))
    assert scaled.verdict == base.verdict
    assert scaled.kernel_dim == base.kernel_dim
    # Eigenvalues are accurate relative to lambda_max, so a small kept bound
    # is compared on that scale; the largest one is held to rel 1e-9 itself.
    # c^2 itself overflows or underflows at |k| > 154, so c multiplies twice.
    for got, want in ((scaled.riesz_bounds, base.riesz_bounds),
                      (scaled.frame_bounds, base.frame_bounds)):
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(
                (want[0] * c * c, want[1] * c * c),
                rel=1e-9,
                abs=1e-9 * lam_max * c * c,
            )


def test_analyze_orbit_rejects_underflowing_norm():
    rep = regular_representation(make_abelian_group([3]))
    with pytest.raises(ZeroGeneratorError):
        analyze_orbit(OrbitSystem(rep, [1e-160, 0.0, 0.0]))
    report = analyze_orbit(OrbitSystem(rep, [1e-150, 0.0, 0.0]))
    assert report.verdict == VERDICT_RIESZ


def test_analyze_orbit_rejects_an_empty_generator():
    rep = regular_representation(make_abelian_group([3]))
    with pytest.raises(ZeroGeneratorError):
        analyze_orbit(OrbitSystem(rep, np.zeros(0)))
