"""Concrete unitary representations and orbit brackets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framelab.representations as reps
from framelab import (
    DimMismatchError,
    DimTooLargeError,
    FiniteGroup,
    OrbitSystem,
    ParseError,
    bracket_operator,
    correlation_function,
    dihedral_group,
    fourier_coefficient,
    gabor_representation,
    heisenberg_group,
    is_positive,
    lambda_matrix,
    make_abelian_group,
    make_builtin_group,
    orbit_matrix,
    parse_rep_spec,
    regular_representation,
    rho_matrix,
    shift_model_representation,
    trace_tau,
    verify_representation,
)

from conftest import faulty_rows


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_regular_rep_is_left_translation():
    g = dihedral_group(3)
    rep = regular_representation(g)
    assert rep.dim == g.order
    for x in g.elements():
        assert np.array_equal(rep.matrix(x), lambda_matrix(g, x))


def test_regular_rep_z2_flip():
    rep = regular_representation(make_abelian_group([2]))
    assert np.allclose(rep.matrix(1), [[0, 1], [1, 0]])


def test_regular_orbit_of_point_mass_is_standard_basis():
    g = heisenberg_group(2)
    rep = regular_representation(g)
    psi = np.zeros(g.order)
    psi[g.identity] = 1.0
    mat = orbit_matrix(OrbitSystem(rep, psi))
    assert np.allclose(mat, np.eye(g.order))


def test_shift_model_permutation():
    rep = shift_model_representation(2, 2)
    assert rep.dim == 4
    assert rep.group.order == 2
    # moving by the generator shifts coordinates down by 2 cyclically
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(rep.matrix(1) @ v, [3.0, 4.0, 1.0, 2.0])


def test_shift_model_with_step_one_is_regular():
    n = 5
    shift = shift_model_representation(n, 1)
    reg = regular_representation(make_abelian_group([n]))
    assert np.allclose(shift.matrices, reg.matrices)


def test_shift_orbit_of_point_mass_orthonormal():
    rep = shift_model_representation(4, 3)
    psi = np.zeros(12)
    psi[0] = 1.0
    mat = orbit_matrix(OrbitSystem(rep, psi))
    gram = mat.conj().T @ mat
    assert np.allclose(gram, np.eye(4))


def test_gabor_identity_and_modulation():
    rep = gabor_representation(2, 2)
    assert rep.dim == 4
    assert rep.group.order == 4
    assert np.allclose(rep.matrix(0), np.eye(4))
    # pure modulation (k=0, j=1): diagonal alternating signs
    assert np.allclose(rep.matrix(1), np.diag([1.0, -1.0, 1.0, -1.0]))
    # pure translation (k=1, j=0): shift by 2
    want = np.zeros((4, 4))
    for x in range(4):
        want[x, (x - 2) % 4] = 1.0
    assert np.allclose(rep.matrix(2), want)


def test_gabor_group_coordinates():
    # element index is k * M + j for translation k and modulation j
    rep = gabor_representation(3, 2)
    g = rep.group
    assert g.order == 6
    k1j1 = 1 * 2 + 1
    prod = g.product(k1j1, k1j1)
    assert prod == 2 * 2 + 0  # (k, j) adds componentwise


@pytest.mark.parametrize(
    "rep_factory",
    [
        lambda: regular_representation(make_builtin_group("Z3xZ4")),
        lambda: regular_representation(dihedral_group(4)),
        lambda: regular_representation(heisenberg_group(3)),
        lambda: shift_model_representation(4, 2),
        lambda: gabor_representation(2, 3),
        lambda: gabor_representation(4, 3),
    ],
)
def test_builtin_reps_verify(rep_factory):
    rep = rep_factory()
    result = verify_representation(rep)
    assert result.passed
    assert result.max_deviation < 1e-13
    assert result.failing_pair is None


def test_verify_checks_generators_for_large_groups():
    rep = regular_representation(make_abelian_group([80]))
    result = verify_representation(rep)
    gens, _ = rep.group.generators
    assert result.passed
    assert gens.tolist() == [1]
    assert result.checked_pairs == 80 * gens.size


def test_verify_flags_corrupted_matrix():
    rep = gabor_representation(2, 2)
    phase = rep.rows(np.arange(rep.group.order))[1].copy()
    phase[3] = phase[3] * 1.001
    broken = faulty_rows(rep, phase=phase)
    result = verify_representation(broken)
    assert not result.passed
    assert result.max_deviation > 1e-4
    assert result.failing_pair is not None


# Specs of order 65 to 1024.
_LARGE_SPECS = st.one_of(
    st.integers(65, 1024).map("regular:Z{}".format),
    st.integers(33, 512).map("regular:D{}".format),
    st.integers(5, 10).map("regular:H{}".format),
    st.tuples(st.integers(65, 1024), st.integers(1, 3)).map("shift:{0[0]},{0[1]}".format),
    st.tuples(st.integers(2, 32), st.integers(3, 32))
    .filter(lambda lm: 65 <= lm[0] * lm[1] <= 1024)
    .map("gabor:{0[0]},{0[1]}".format),
)


@settings(max_examples=15)
@given(spec=_LARGE_SPECS, data=st.data())
def test_verify_fails_every_planted_single_element_fault(spec, data):
    rep = parse_rep_spec(spec)
    g = data.draw(st.integers(0, rep.group.order - 1), label="element")
    src, phase = (rows.copy() for rows in rep.rows(np.arange(rep.group.order)))
    if data.draw(st.booleans(), label="phase fault"):
        phase[g] *= 1j
        broken = faulty_rows(rep, phase=phase)
    else:
        src[g] = np.roll(src[g], 1)
        broken = faulty_rows(rep, src=src)
    result = verify_representation(broken)
    assert not result.passed
    assert result.failing_pair is not None


@pytest.mark.parametrize("spec", ["regular:Z8xZ8", "regular:D32", "shift:64,2", "gabor:8,8"])
def test_law_check_evaluates_each_left_factor_once(spec, monkeypatch):
    # a*s for every a is (s^-1 a^-1)^-1: one law row per generator s.
    rep = parse_rep_spec(spec)
    phase = rep.rows(np.arange(rep.group.order))[1].copy()
    phase[5] *= 1j
    broken = faulty_rows(rep, phase=phase)
    sizes = []
    rows = FiniteGroup.rows

    def recording(self, elements):
        sizes.append(np.size(elements))
        return rows(self, elements)

    monkeypatch.setattr(FiniteGroup, "rows", recording)
    reports = [verify_representation(r) for r in (rep, broken)]
    # One law row per generator; a regular action's own rows, read once for
    # every element, are the law rows of their inverses.
    whole = [rep.group.order] if rep.model == ("regular",) else []
    assert sorted(sizes) == [1] * rep.group.generators[0].size + whole
    assert reports[0].passed and not reports[1].passed
    a, s = reports[1].failing_pair
    assert 5 in (a, rep.group.product(a, s))


def test_gabor_law_holds_on_every_zak_shape():
    # The law of each group on its generators, on the shapes the Zak
    # calibration draws.
    shapes = [(l, m) for l in range(2, 19) for m in range(2, 19) if l * m <= 36]
    assert len(shapes) == 69
    for l, m in shapes:
        report = verify_representation(gabor_representation(l, m))
        assert report.passed


# gabor:3,4 has phases +-1 and +-i only, which multiply exactly either way;
# the sixth roots of unity of gabor:2,3 are rounded, and round differently
# when a complex product swaps its operands.
@pytest.mark.parametrize("spec", ["regular:D4", "shift:4,2", "gabor:3,4", "gabor:2,3"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_orbit_stack_and_correlation_keep_the_former_bits(spec, dtype):
    # The phase is the left operand of each product, as in the former
    # expressions.
    rep = parse_rep_spec(spec)
    rng = np.random.default_rng(9)
    for shape in [(rep.dim,), (5, rep.dim)]:
        psis = rng.standard_normal(shape).astype(dtype)
        if dtype is np.complex128:
            psis += 1j * rng.standard_normal(shape)
        phis = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = psis.copy()
        src, phase = rep.rows(np.arange(rep.group.order))
        moved = phase * np.take(psis, src, axis=-1)
        got = reps._orbit_stack(rep, psis)
        assert got.dtype == np.complex128
        assert got.tobytes() == moved.tobytes()
        values = (moved.conj() @ phis[..., None])[..., 0]
        got = reps._kernel_values(reps._orbit_stack(rep, psis), phis)
        assert got.tobytes() == values.tobytes()
        assert psis.tobytes() == kept.tobytes()


def test_gabor_time_frequency_commutation():
    # translations and modulations commute in this finite model because the
    # modulation frequency step is locked to the translation step
    rep = gabor_representation(3, 4)
    for a in rep.group.elements():
        for b in rep.group.elements():
            lhs = rep.matrix(a) @ rep.matrix(b)
            rhs = rep.matrix(b) @ rep.matrix(a)
            assert np.abs(lhs - rhs).max() < 1e-14


def test_orbit_matrix_columns():
    rep = gabor_representation(2, 2)
    rng = np.random.default_rng(2)
    psi = _cvec(rng, 4)
    mat = orbit_matrix(OrbitSystem(rep, psi))
    for g in rep.group.elements():
        assert np.allclose(mat[:, g], rep.matrix(g) @ psi)


def test_orbit_matrix_validates_length():
    rep = shift_model_representation(3, 2)
    with pytest.raises(DimMismatchError):
        orbit_matrix(OrbitSystem(rep, np.ones(5)))


def test_correlation_at_identity_is_norm():
    rep = regular_representation(dihedral_group(4))
    rng = np.random.default_rng(3)
    psi = _cvec(rng, 8)
    corr = correlation_function(rep, psi, psi)
    assert abs(corr.values[rep.group.identity] - np.vdot(psi, psi)) < 1e-12


def test_correlation_worked_example():
    rep = regular_representation(make_abelian_group([4]))
    psi = np.array([1.0, 0.5, 0.0, 0.0])
    corr = correlation_function(rep, psi, psi)
    np.testing.assert_allclose(corr.values, [1.25, 0.5, 0.0, 0.5], atol=1e-14)


def test_correlation_conjugate_symmetry():
    rep = gabor_representation(3, 2)
    rng = np.random.default_rng(5)
    psi = _cvec(rng, 6)
    corr = correlation_function(rep, psi, psi).values
    g = rep.group
    for x in g.elements():
        assert abs(corr[g.inverse(x)] - np.conj(corr[x])) < 1e-12


def test_correlation_linear_in_first_slot():
    rep = regular_representation(heisenberg_group(2))
    rng = np.random.default_rng(7)
    phi1, phi2, psi = (_cvec(rng, 8) for _ in range(3))
    a = 1.5 - 2.0j
    lhs = correlation_function(rep, a * phi1 + phi2, psi).values
    rhs = a * correlation_function(rep, phi1, psi).values + correlation_function(
        rep, phi2, psi
    ).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_correlation_conjugate_linear_in_second_slot():
    rep = shift_model_representation(4, 2)
    rng = np.random.default_rng(9)
    phi, psi = _cvec(rng, 8), _cvec(rng, 8)
    a = 0.5 + 1.0j
    lhs = correlation_function(rep, phi, a * psi).values
    rhs = np.conj(a) * correlation_function(rep, phi, psi).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_bracket_defining_identity():
    # tau(bracket(phi, psi) rho(g)) equals <phi, U(g) psi> for every g
    for rep in (
        regular_representation(dihedral_group(3)),
        gabor_representation(2, 3),
    ):
        rng = np.random.default_rng(11)
        phi = _cvec(rng, rep.dim)
        psi = _cvec(rng, rep.dim)
        op = bracket_operator(rep, phi, psi)
        corr = correlation_function(rep, phi, psi).values
        for g in rep.group.elements():
            got = fourier_coefficient(op, g)
            assert abs(got - corr[g]) < 1e-12


def test_self_bracket_positive_with_norm_trace():
    for rep in (
        regular_representation(make_builtin_group("Z2xZ4")),
        shift_model_representation(3, 3),
        gabor_representation(3, 2),
    ):
        rng = np.random.default_rng(13)
        psi = _cvec(rng, rep.dim)
        op = bracket_operator(rep, psi, psi)
        assert is_positive(op, tol=1e-10)
        assert abs(trace_tau(op) - np.vdot(psi, psi)) < 1e-12 * rep.dim


def test_parse_rep_spec_forms():
    assert parse_rep_spec("regular:Z6").dim == 6
    assert parse_rep_spec("regular:D4").group.order == 8
    assert parse_rep_spec("shift:4,2").dim == 8
    assert parse_rep_spec("gabor:2,3").dim == 6
    assert parse_rep_spec(" gabor:2,3 ").label == "gabor:2,3"


@pytest.mark.parametrize(
    "bad",
    [
        "regular",
        "unknown:Z4",
        "shift:4",
        "shift:4,0",
        "shift:a,b",
        "gabor:1,4",
        "gabor:4",
        "gabor:0,0",
        "regular:Q8",
        "",
    ],
)
def test_parse_rep_spec_errors(bad):
    with pytest.raises(ParseError):
        parse_rep_spec(bad)


def test_parse_rep_spec_caps():
    with pytest.raises(DimTooLargeError):
        parse_rep_spec("shift:64,65")
    with pytest.raises(DimTooLargeError):
        parse_rep_spec("gabor:64,65", max_order=8192)


def test_shift_model_input_validation():
    with pytest.raises(ParseError):
        shift_model_representation(1, 2)
    with pytest.raises(ParseError):
        shift_model_representation(4, 0)
    with pytest.raises(ParseError):
        gabor_representation(2, 1)


def test_matrices_read_only():
    rep = gabor_representation(2, 2)
    with pytest.raises(ValueError):
        rep.matrices[0, 0, 0] = 5.0
