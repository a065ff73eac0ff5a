"""Fourier multiplier route: transforms, calibrated brackets, support tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from framelab import (
    DimMismatchError,
    DualFunction,
    InvalidPError,
    NotAbelianError,
    NotRealValuedError,
    OrbitSystem,
    analyze_orbit,
    bracket_operator,
    character_table,
    characters,
    check_sandwich_equivalence,
    correlation_function,
    delta,
    dihedral_group,
    dual_lp_norm,
    fourier_coefficient,
    fourier_on_group,
    gabor_bracket_via_zak,
    gabor_representation,
    group_function,
    identity_operator,
    inverse_lambda,
    inverse_zak,
    is_positive,
    lambda_multiplier,
    lp_norm,
    make_abelian_group,
    make_builtin_group,
    operator_from_coefficients,
    ParseError,
    parse_rep_spec,
    periodization_bracket,
    regular_representation,
    scalar_bracket,
    shift_model_representation,
    support_indicator,
    support_projection,
    zak_transform,
)
from framelab.abelian import _inverse_multipliers, _multipliers, _transform_bracket


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _random_op(group, rng):
    return operator_from_coefficients(group_function(group, _cvec(rng, group.order)))


@st.composite
def _factors(draw, cap=4096):
    """1 to 4 cyclic factors whose product is at most cap."""
    count = draw(st.integers(1, 4), label="count")
    factors, room = [], cap
    for left in range(count - 1, -1, -1):
        factors.append(draw(st.integers(2, room >> left)))
        room //= factors[-1]
    return factors


@settings(max_examples=30, deadline=None)
@given(factors=_factors(), rows=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
def test_fft_multipliers_match_the_character_table(factors, rows, seed):
    g = make_abelian_group(factors)
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((rows, g.order)) + 1j * rng.standard_normal((rows, g.order))
    table = character_table(g)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    # Row r of the products is conj(table) @ stack[r] and stack[r] @ table / order.
    mult = _multipliers(g, stack)
    assert close(mult, np.conj(np.conj(stack) @ table.T))
    assert close(_inverse_multipliers(g, stack), (stack @ table) / g.order)
    assert close(_inverse_multipliers(g, mult), stack)
    assert close(_multipliers(g, _inverse_multipliers(g, stack)), stack)


@st.composite
def _bracket_models(draw):
    """regular: on a cyclic product of order <= 1024, shift:N,M with N <= 64
    and M <= 8, or gabor:L,M with L*M <= 256."""
    kind = draw(st.sampled_from(["regular", "shift", "gabor"]), label="kind")
    if kind == "regular":
        return regular_representation(make_abelian_group(draw(_factors(1024))))
    if kind == "shift":
        return shift_model_representation(draw(st.integers(2, 64)), draw(st.integers(1, 8)))
    l = draw(st.integers(2, 128))
    return gabor_representation(l, draw(st.integers(2, 256 // l)))


# The examples put each model on either side of BLOCK_SPECTRUM_ORDER (64),
# at orders 24 and 1024, 60 and 72, 12 and 256, whatever is drawn.
@settings(max_examples=60)
@given(rep=_bracket_models(), seed=st.integers(0, 2**32 - 1))
@example(rep=parse_rep_spec("regular:Z2xZ3xZ4"), seed=21)
@example(rep=parse_rep_spec("regular:Z2xZ4xZ8xZ16"), seed=21)
@example(rep=parse_rep_spec("shift:60,4"), seed=21)
@example(rep=parse_rep_spec("shift:72,8"), seed=21)
@example(rep=parse_rep_spec("gabor:4,3"), seed=21)
@example(rep=parse_rep_spec("gabor:16,16"), seed=21)
def test_transform_bracket_is_the_operator_multiplier(rep, seed):
    # The classical bracket read from psi alone sits on the multiplier of the
    # operator built from the action, character by character, and analyze's
    # scalar route reads rounding on either side of BLOCK_SPECTRUM_ORDER.
    psi = _cvec(np.random.default_rng(seed), rep.dim)
    want = lambda_multiplier(bracket_operator(rep, psi, psi)).values
    got = _transform_bracket(rep, psi)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["scalar"] <= 1e-12


def test_multiplier_of_identity_is_one():
    g = make_abelian_group([2, 3])
    mult = lambda_multiplier(identity_operator(g))
    np.testing.assert_allclose(mult.values, np.ones(6), atol=1e-14)


def test_multiplier_of_point_mass_is_conjugate_character_column():
    g = make_abelian_group([4])
    mult = lambda_multiplier(operator_from_coefficients(delta(g, 1)))
    np.testing.assert_allclose(mult.values, [1.0, -1j, -1.0, 1j], atol=1e-12)


def test_multiplier_matches_fft_on_cyclic_groups():
    for n in (5, 12):
        g = make_abelian_group([n])
        rng = np.random.default_rng(n)
        vals = _cvec(rng, n)
        mult = lambda_multiplier(operator_from_coefficients(group_function(g, vals)))
        np.testing.assert_allclose(mult.values, np.fft.fft(vals), atol=1e-11)


def test_multiplier_diagonalizes_the_operator():
    g = make_builtin_group("Z3xZ4")
    rng = np.random.default_rng(3)
    op = _random_op(g, rng)
    mult = lambda_multiplier(op).values
    table = character_table(g)
    # each character row is an eigenvector: F alpha = m(alpha) alpha
    for i in range(g.order):
        vec = table[i]
        np.testing.assert_allclose(op.matrix @ vec, mult[i] * vec, atol=1e-10)


def test_multiplier_intertwines_fourier_transform():
    g = make_builtin_group("Z2xZ4")
    rng = np.random.default_rng(5)
    op = _random_op(g, rng)
    u = group_function(g, _cvec(rng, g.order))
    lhs = fourier_on_group(op.apply(u)).values
    rhs = lambda_multiplier(op).values * fourier_on_group(u).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_multiplier_spectrum_matches_eigenvalues():
    g = make_abelian_group([3, 4])
    rng = np.random.default_rng(7)
    op = _random_op(g, rng)
    mult = np.sort_complex(lambda_multiplier(op).values)
    eig = np.sort_complex(np.linalg.eigvals(op.matrix))
    np.testing.assert_allclose(mult, eig, atol=1e-9)


def test_inverse_lambda_roundtrip():
    g = make_builtin_group("Z2xZ4")
    rng = np.random.default_rng(9)
    op = _random_op(g, rng)
    back = inverse_lambda(lambda_multiplier(op))
    np.testing.assert_allclose(
        back.coefficients.values, op.coefficients.values, atol=1e-12
    )
    mult = DualFunction(g, _cvec(rng, g.order))
    again = lambda_multiplier(inverse_lambda(mult))
    np.testing.assert_allclose(again.values, mult.values, atol=1e-12)


def test_multiplier_averages_back_to_fourier_coefficients():
    # normalized dual average of the multiplier against a character recovers c
    g = make_abelian_group([3, 4])
    rng = np.random.default_rng(91)
    op = _random_op(g, rng)
    mult = lambda_multiplier(op).values
    table = character_table(g)
    for x in (0, 1, 5, 11):
        avg = np.sum(mult * table[:, x]) / g.order
        assert abs(avg - fourier_coefficient(op, x)) < 1e-12


def test_single_character_multiplier_is_rank_one_projection():
    g = make_abelian_group([5])
    ind = np.zeros(5)
    ind[2] = 1.0
    op = inverse_lambda(DualFunction(g, ind))
    mat = op.matrix
    np.testing.assert_allclose(mat @ mat, mat, atol=1e-12)
    assert abs(np.trace(mat) - 1.0) < 1e-12


def test_multiplier_homomorphism_and_star():
    g = make_builtin_group("Z3xZ4")
    rng = np.random.default_rng(11)
    f1, f2 = _random_op(g, rng), _random_op(g, rng)
    prod = lambda_multiplier(f1 @ f2).values
    np.testing.assert_allclose(
        prod, lambda_multiplier(f1).values * lambda_multiplier(f2).values, atol=1e-9
    )
    star = lambda_multiplier(f1.adjoint()).values
    np.testing.assert_allclose(star, np.conj(lambda_multiplier(f1).values), atol=1e-10)


def test_multiplier_isometry_for_lp_norms():
    g = make_abelian_group([2, 2, 3])
    rng = np.random.default_rng(13)
    op = _random_op(g, rng)
    mult = lambda_multiplier(op)
    for p in (1, 1.5, 2, 4, np.inf):
        assert abs(lp_norm(op, p) - dual_lp_norm(mult, p)) < 1e-9


def test_positivity_transfers_to_multiplier():
    rep = regular_representation(make_abelian_group([3, 2]))
    rng = np.random.default_rng(17)
    psi = _cvec(rng, 6)
    op = bracket_operator(rep, psi, psi)
    mult = lambda_multiplier(op).values
    assert mult.real.min() > -1e-10
    assert np.abs(mult.imag).max() < 1e-10
    # conversely a nonnegative multiplier gives a positive operator
    back = inverse_lambda(DualFunction(rep.group, np.abs(mult)))
    assert is_positive(back)


def test_scalar_bracket_of_point_mass_is_flat():
    rep = regular_representation(make_abelian_group([6]))
    psi = np.zeros(6)
    psi[0] = 1.0
    np.testing.assert_allclose(scalar_bracket(rep, psi, psi).values, 1.0, atol=1e-12)


def test_scalar_bracket_two_point_example():
    rep = regular_representation(make_abelian_group([2]))
    vals = scalar_bracket(rep, [1.0, 1.0], [1.0, 1.0]).values
    np.testing.assert_allclose(vals, [4.0, 0.0], atol=1e-13)


def test_scalar_bracket_worked_case():
    rep = regular_representation(make_abelian_group([4]))
    vals = scalar_bracket(rep, [1.0, 0.5, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]).values
    np.testing.assert_allclose(vals, [2.25, 1.25, 0.25, 1.25], atol=1e-12)


def test_scalar_bracket_inverts_to_correlation():
    rep = regular_representation(make_builtin_group("Z2xZ4"))
    rng = np.random.default_rng(19)
    phi, psi = _cvec(rng, 8), _cvec(rng, 8)
    mult = scalar_bracket(rep, phi, psi)
    kernel = inverse_lambda(mult).coefficients.values
    np.testing.assert_allclose(
        kernel, correlation_function(rep, phi, psi).values, atol=1e-11
    )


def test_scalar_bracket_needs_abelian():
    rep = regular_representation(dihedral_group(3))
    with pytest.raises(NotAbelianError):
        scalar_bracket(rep, np.ones(6), np.ones(6))


def test_periodization_of_point_mass_is_flat():
    vals = periodization_bracket([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3, 2).values
    np.testing.assert_allclose(vals, np.ones(3), atol=1e-13)


def test_periodization_two_point_example():
    vals = periodization_bracket([1.0, 1.0], 2, 1).values
    np.testing.assert_allclose(vals, [4.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 5), (7, 3)])
def test_periodization_matches_operator_route(n, m):
    rep = shift_model_representation(n, m)
    rng = np.random.default_rng(10 * n + m)
    for _ in range(5):
        psi = _cvec(rng, n * m)
        via_scalar = scalar_bracket(rep, psi, psi).values
        via_dft = periodization_bracket(psi, n, m).values
        np.testing.assert_allclose(via_dft, via_scalar, atol=1e-10)


def test_periodization_length_checks():
    with pytest.raises(DimMismatchError):
        periodization_bracket(np.ones(5), 3, 2)
    with pytest.raises(ParseError):
        periodization_bracket(np.ones(6), 0, 6)


def test_zak_point_mass():
    z = zak_transform([1.0, 0.0, 0.0, 0.0], 2, 2)
    assert z.values.shape == (2, 2)
    np.testing.assert_allclose(z.values[0], [1.0, 1.0], atol=1e-13)
    np.testing.assert_allclose(z.values[1], [0.0, 0.0], atol=1e-13)


def test_zak_even_comb():
    z = zak_transform([1.0, 0.0, 1.0, 0.0], 2, 2)
    np.testing.assert_allclose(z.values[0], [2.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(z.values[1], [0.0, 0.0], atol=1e-13)


def test_zak_definition_direct_sum():
    l, m = 3, 4
    rng = np.random.default_rng(23)
    psi = _cvec(rng, l * m)
    z = zak_transform(psi, l, m)
    for n in range(m):
        for freq in range(l):
            want = sum(
                psi[n + k * m] * np.exp(-2j * np.pi * k * freq / l) for k in range(l)
            )
            assert abs(z.values[n, freq] - want) < 1e-12


def test_zak_quasi_periodicity():
    # extending the position index past M wraps with phase exp(+2i pi freq / L)
    l, m = 4, 3
    rng = np.random.default_rng(29)
    psi = _cvec(rng, l * m)
    z = zak_transform(psi, l, m).values
    phases = np.exp(2j * np.pi * np.arange(l) / l)
    # advance the position by one: the last row wraps around and picks up
    # the phase, all other rows shift up
    rolled = zak_transform(np.roll(psi, -1), l, m).values
    np.testing.assert_allclose(rolled[:-1], z[1:], atol=1e-12)
    np.testing.assert_allclose(rolled[-1], z[0] * phases, atol=1e-12)
    # advancing by a full period of M positions phases every row
    full = zak_transform(np.roll(psi, -m), l, m).values
    np.testing.assert_allclose(full, z * phases, atol=1e-12)


def test_zak_norm_identity():
    l, m = 5, 2
    rng = np.random.default_rng(31)
    psi = _cvec(rng, l * m)
    z = zak_transform(psi, l, m)
    total = float(np.sum(np.abs(z.values) ** 2))
    assert abs(total - l * np.linalg.norm(psi) ** 2) < 1e-10


def test_zak_linearity_and_inverse():
    l, m = 4, 4
    rng = np.random.default_rng(37)
    psi, phi = _cvec(rng, 16), _cvec(rng, 16)
    z1 = zak_transform(psi, l, m).values
    z2 = zak_transform(phi, l, m).values
    z12 = zak_transform(psi + 2j * phi, l, m).values
    np.testing.assert_allclose(z12, z1 + 2j * z2, atol=1e-12)
    back = inverse_zak(zak_transform(psi, l, m))
    np.testing.assert_allclose(back, psi, atol=1e-12)


def test_zak_factorization_checks():
    with pytest.raises(DimMismatchError):
        zak_transform(np.ones(5), 2, 2)
    with pytest.raises(ParseError):
        gabor_bracket_via_zak(np.ones(4), np.ones(4), 4, 1)


@pytest.mark.parametrize("l,m", [(2, 3), (4, 3), (3, 5)])
def test_gabor_bracket_matches_operator_route(l, m):
    rep = gabor_representation(l, m)
    rng = np.random.default_rng(100 * l + m)
    for cross in (False, True):
        psi = _cvec(rng, l * m)
        phi = _cvec(rng, l * m) if cross else psi
        via_scalar = scalar_bracket(rep, phi, psi).values
        via_zak = gabor_bracket_via_zak(phi, psi, l, m).values
        np.testing.assert_allclose(via_zak, via_scalar, atol=1e-10)


def test_gabor_bracket_point_mass_fixed_by_modulations():
    # delta_0 is invariant under every modulation, so its bracket carries the
    # whole weight on the zero-frequency characters instead of being flat
    l, m = 2, 2
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    rep = gabor_representation(l, m)
    via_scalar = scalar_bracket(rep, psi, psi).values
    via_zak = gabor_bracket_via_zak(psi, psi, l, m).values
    np.testing.assert_allclose(via_zak, via_scalar, atol=1e-13)
    want = np.zeros(4)
    want[[0, 2]] = m  # characters with zero second exponent
    np.testing.assert_allclose(via_zak, want, atol=1e-13)


def test_gabor_bracket_vanishes_on_orthogonal_orbits():
    # generator supported on even positions, test vector on odd ones
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    phi = np.array([0.0, 1.0, 0.0, 0.0])
    vals = gabor_bracket_via_zak(phi, psi, 2, 2).values
    assert np.abs(vals).max() < 1e-13


def test_dual_lp_norm_values_and_errors():
    g = make_abelian_group([2])
    mult = DualFunction(g, np.array([3.0, -4.0]))
    assert dual_lp_norm(mult, np.inf) == pytest.approx(4.0)
    assert dual_lp_norm(mult, 1) == pytest.approx(3.5)
    assert dual_lp_norm(mult, 2) == pytest.approx(np.sqrt(12.5))
    with pytest.raises(InvalidPError):
        dual_lp_norm(mult, 0.3)
    with pytest.raises(InvalidPError):
        dual_lp_norm(mult, float("nan"))


def test_support_indicator_values():
    g = make_abelian_group([2])
    ind = support_indicator(DualFunction(g, np.array([4.0, 0.0])))
    np.testing.assert_allclose(ind.values, [1.0, 0.0])
    # Zero is read relative to the largest value, whatever its scale.
    small = support_indicator(DualFunction(g, np.array([4.0, 4e-11])))
    np.testing.assert_allclose(small.values, [1.0, 0.0])
    tiny = support_indicator(DualFunction(g, np.array([1e-13, 0.0])))
    np.testing.assert_allclose(tiny.values, [1.0, 0.0])


def test_support_indicator_rejects_complex():
    g = make_abelian_group([2])
    with pytest.raises(NotRealValuedError):
        support_indicator(DualFunction(g, np.array([1.0, 1.0j])))


def test_support_projection_multiplier_is_indicator():
    g = make_builtin_group("Z2xZ4")
    rng = np.random.default_rng(41)
    for _ in range(10):
        mask = rng.integers(0, 2, size=g.order).astype(float)
        lift = rng.uniform(0.5, 2.0, size=g.order) * mask
        op = inverse_lambda(DualFunction(g, lift))
        proj = support_projection(op)
        got = np.round(lambda_multiplier(proj).values.real)
        np.testing.assert_array_equal(got, mask)


_EQUIVARIANT_SPECS = ("Z8", "Z2xZ6", "Z12", "Z3xZ4", "D4", "D5", "H3")


def _zero_answers(rep, psi, bounds):
    """Every reading of which bracket values count as zero, for one generator.

    analyze's verdict and kernel dimension, the kernel dimension of the
    support projection and, on a cyclic product, that of the support
    indicator and both sides of the sandwich check at each pair of bounds.
    """
    report = analyze_orbit(OrbitSystem(rep, psi))
    op = bracket_operator(rep, psi, psi)
    rank = round(float(np.trace(support_projection(op).matrix).real))
    answers = [report.verdict, report.kernel_dim, rep.group.order - rank]
    if rep.group.factors is not None:
        support = support_indicator(lambda_multiplier(op)).values.real
        answers.append(rep.group.order - int(support.sum()))
        for a, b in bounds:
            sandwich = check_sandwich_equivalence(rep, psi, a, b)
            answers += [sandwich.operator_side, sandwich.scalar_side]
    return answers


@settings(max_examples=40)
@given(
    spec=st.sampled_from(_EQUIVARIANT_SPECS),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_is_read_at_every_scale_of_psi(spec, planted, seed):
    # Scaling psi by 2^e scales every bracket value by 4^e exactly; what
    # counts as zero, and so every support and bound decision, stays.
    rep = parse_rep_spec(f"regular:{spec}")
    rng = np.random.default_rng(seed)
    psi = _cvec(rng, rep.dim)
    factors = rep.group.factors
    if planted and factors is not None:
        # Zero some characters of psi's transform: the bracket gets a kernel.
        hat = np.fft.fftn(psi.reshape(factors)).ravel()
        hat[rng.permutation(hat.size)[: int(rng.integers(1, hat.size))]] = 0.0
        psi = np.fft.ifftn(hat.reshape(factors)).ravel()
    w = analyze_orbit(OrbitSystem(rep, psi)).gram_spectrum
    kept = w[w > 1e-10 * w[-1]]
    bounds = [(0.5 * kept[0], 2.0 * kept[-1]), (2.0 * kept[0], 2.0 * kept[-1])]
    base = _zero_answers(rep, psi, bounds)
    for e in (-40, -20, 20, 40):
        scaled = [(a * 4.0**e, b * 4.0**e) for a, b in bounds]
        assert _zero_answers(rep, 2.0**e * psi, scaled) == base, e


def test_sandwich_equivalence_worked_cases():
    rep = regular_representation(make_abelian_group([4]))
    psi = [1.0, 0.5, 0.0, 0.0]
    # spectrum is {0.25, 1.25, 1.25, 2.25}
    rep_ok = check_sandwich_equivalence(rep, psi, 0.2, 2.3)
    assert rep_ok.operator_side and rep_ok.scalar_side and rep_ok.consistent
    rep_lo = check_sandwich_equivalence(rep, psi, 0.3, 2.3)
    assert not rep_lo.operator_side and not rep_lo.scalar_side
    rep_hi = check_sandwich_equivalence(rep, psi, 0.2, 2.2)
    assert not rep_hi.operator_side and not rep_hi.scalar_side
    assert set(rep_ok.deviations) == {
        "operator_lower",
        "operator_upper",
        "scalar_lower",
        "scalar_upper",
    }


def test_sandwich_holds_on_support_for_degenerate_orbit():
    # rank-one system: bounds hold on the support even though riesz fails
    rep = regular_representation(make_abelian_group([2]))
    report = check_sandwich_equivalence(rep, [1.0, 1.0], 3.9, 4.1)
    assert report.operator_side and report.scalar_side


def test_sandwich_random_generators_consistent():
    rep = regular_representation(make_builtin_group("Z3xZ2"))
    rng = np.random.default_rng(43)
    for _ in range(20):
        psi = _cvec(rng, 6)
        mult = scalar_bracket(rep, psi, psi).values.real
        pos = np.sort(mult[mult > 1e-10 * max(mult.max(), 1.0)])
        choice = rng.integers(0, 3)
        if choice == 0:
            a, b = 0.9 * pos[0], 1.1 * pos[-1]
        elif choice == 1 and pos[0] * 1.05 < pos[-1]:
            a, b = pos[0] * 1.05, 1.1 * pos[-1]
        else:
            a, b = 0.9 * pos[0], 0.95 * pos[-1]
        report = check_sandwich_equivalence(rep, psi, float(a), float(b))
        assert report.consistent


def test_abelian_guards():
    d4 = dihedral_group(4)
    with pytest.raises(NotAbelianError):
        characters(d4)
    with pytest.raises(NotAbelianError):
        lambda_multiplier(identity_operator(d4))
    rep = regular_representation(d4)
    with pytest.raises(NotAbelianError):
        check_sandwich_equivalence(rep, np.ones(8), 0.5, 2.0)
