"""The self-check suite: clean passes, failure paths, and skip notices."""

import numpy as np
import pytest

import framelab.verification as verification

from framelab.verification import (
    DEFAULT_GROUP_SPECS,
    check_bracket_gramian,
    check_duallemma_suite,
    check_gabor_commutativity,
    check_lambda_structure,
    check_periodization_calibration,
    check_representation_validity,
    check_sandwich_suite,
    check_support_lemma,
    check_zak_calibration,
    run_verification_suite,
    _random_factor_matrix,
    _sandwich_bounds,
)
from framelab import (
    gabor_representation,
    make_builtin_group,
    regular_representation,
    shift_model_representation,
    verify_representation,
)
from framelab.abelian import _inverse_multipliers, _sandwich_sides
from framelab.groups import group_from_spec

from conftest import faulty_rows


def _groups(*specs):
    return [group_from_spec(s) for s in specs]


def _reps(*specs):
    return [regular_representation(g) for g in _groups(*specs)]


EXPECTED_CHECKS = [
    "representation_validity",
    "gabor_commutativity",
    "bracket_equals_gramian",
    "duallemma",
    "lambda_structure",
    "support_lemma",
    "sandwich_equivalence",
    "periodization_calibration",
    "zak_calibration",
]


def test_full_suite_passes_and_is_complete():
    payload = run_verification_suite(seed=0, samples=8)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == EXPECTED_CHECKS
    assert all(c["passed"] for c in payload["checks"])
    assert payload["groups"] == list(DEFAULT_GROUP_SPECS)
    assert "notices" not in payload


def test_suite_is_deterministic_for_a_seed():
    one = run_verification_suite(seed=7, samples=5)
    two = run_verification_suite(seed=7, samples=5)
    assert one == two


def test_suite_skips_abelian_checks_without_abelian_groups():
    payload = run_verification_suite(group_specs=["D4"], seed=0, samples=5)
    names = [c["name"] for c in payload["checks"]]
    assert "lambda_structure" not in names
    assert "support_lemma" not in names
    assert "sandwich_equivalence" not in names
    assert payload["passed"] is True
    assert any("skipped" in note for note in payload["notices"])


@pytest.mark.usefixtures("biased_gramian")
def test_fault_injection_trips_the_gramian_check():
    payload = run_verification_suite(seed=0, samples=5)
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["bracket_equals_gramian"]["passed"] is False
    # every other check still passes
    others = [c for c in payload["checks"] if c["name"] != "bracket_equals_gramian"]
    assert all(c["passed"] for c in others)


def test_representation_validity_over_mixed_models():
    reps = [
        regular_representation(make_builtin_group("Z4")),
        gabor_representation(2, 2),
    ]
    result = check_representation_validity(reps)
    assert result.passed
    assert result.samples == 2
    assert result.max_deviation < 1e-13


def test_gabor_commutativity_integer_phase_route():
    models = [gabor_representation(2, 2), gabor_representation(3, 4)]
    result = check_gabor_commutativity(models=models)
    assert result.passed
    assert result.samples == 2**4 + 12**2
    assert result.details == {}


def test_individual_checks_pass_quickly():
    rng = np.random.default_rng(1)
    assert check_bracket_gramian(_reps("Z4", "D4"), rng, samples=5).passed
    assert check_duallemma_suite(rng, samples=10).passed
    assert check_lambda_structure(_groups("Z4", "Z2xZ2"), rng, pairs=5).passed
    assert check_support_lemma(_reps("Z4"), rng, samples=5).passed
    assert check_sandwich_suite(_reps("Z4"), rng, samples=10, adversarial=3).passed
    assert check_periodization_calibration(rng, samples=5).passed
    assert check_zak_calibration(rng, samples=5).passed


def test_duallemma_suite_counts_cases():
    rng = np.random.default_rng(3)
    result = check_duallemma_suite(rng, samples=12)
    details = result.details
    assert details["disagreements"] == 0
    assert details["false_negatives"] == 0
    assert result.samples == 12


def test_sandwich_suite_counts_adversarial_runs():
    rng = np.random.default_rng(5)
    result = check_sandwich_suite(_reps("Z2xZ2"), rng, samples=8, adversarial=4)
    assert result.passed
    assert result.details["disagreements"] == 0
    assert result.details["wrong_calls"] == 0


@pytest.mark.parametrize("case", range(4))
def test_adversarial_sandwich_bounds_are_called_as_expected(case):
    # The smallest support value sits far below the largest, so a relative
    # 1e-6 move of the lower bound alone stays inside the slack
    # tol * max(1, lambda_max) that both sides of the check forgive.
    group, tol = make_builtin_group("Z8"), 1e-10
    mult = np.array([8330.0, 0.053, 1.0, 2.0, 0.0, 5.0, 2.0, 1.0])
    kernels = _inverse_multipliers(group, mult[None])
    a, b, expected = _sandwich_bounds(case, True, mult, tol)
    operator_ok, scalar_ok, _ = _sandwich_sides(
        group, kernels, np.array([a]), np.array([b]), tol
    )
    assert bool(operator_ok[0]) == bool(scalar_ok[0]) == expected


def test_sandwich_suite_calls_a_low_support_bound_wrong_nowhere():
    rng = np.random.default_rng(0)
    result = check_sandwich_suite(_reps("Z512"), rng, samples=3, adversarial=4)
    assert result.details == {"disagreements": 0, "wrong_calls": 0, "slack": 1e-10}
    assert result.passed


def test_check_result_json_shape():
    rng = np.random.default_rng(7)
    result = check_periodization_calibration(rng, samples=3)
    payload = result.to_json_dict()
    assert set(payload) >= {"name", "passed", "max_deviation", "tolerance", "samples"}
    assert isinstance(payload["max_deviation"], float)


def test_suite_respects_group_order_cap():
    from framelab import OrderTooLargeError

    with pytest.raises(OrderTooLargeError):
        run_verification_suite(group_specs=["Z128"], seed=0, samples=3, max_order=64)


_NO_SAMPLE_RUNS = {
    "bracket": lambda rng: check_bracket_gramian(_reps("Z4", "D4"), rng, samples=0),
    "duallemma": lambda rng: check_duallemma_suite(rng, samples=0),
    "lambda-D4": lambda rng: check_lambda_structure(_groups("D4"), rng),
    "lambda-Z4": lambda rng: check_lambda_structure(_groups("Z4"), rng, pairs=0),
    "support-D4-H3": lambda rng: check_support_lemma(_reps("D4", "H3"), rng),
    "support-Z4": lambda rng: check_support_lemma(_reps("Z4"), rng, samples=0),
    "sandwich-D4": lambda rng: check_sandwich_suite(_reps("D4"), rng),
    "sandwich-Z4": lambda rng: check_sandwich_suite(_reps("Z4"), rng, samples=0, adversarial=0),
    "periodization": lambda rng: check_periodization_calibration(rng, samples=0),
    "zak": lambda rng: check_zak_calibration(rng, samples=0),
    "representations": lambda rng: check_representation_validity([]),
    "gabor": lambda rng: check_gabor_commutativity(models=()),
    "gabor-shift-only": lambda rng: check_gabor_commutativity(
        models=[shift_model_representation(4, 2)]
    ),
}


@pytest.mark.parametrize("run", _NO_SAMPLE_RUNS.values(), ids=_NO_SAMPLE_RUNS.keys())
def test_a_check_with_no_sample_fails(run):
    result = run(np.random.default_rng(0))
    assert result.samples == 0
    assert result.passed is False
    assert result.to_json_dict()["passed"] is False


def test_zero_sample_suite_fails():
    payload = run_verification_suite(seed=0, samples=0)
    assert payload["passed"] is False
    empty = [c for c in payload["checks"] if c["samples"] == 0]
    assert {c["name"] for c in empty} == {
        "bracket_equals_gramian",
        "lambda_structure",
        "support_lemma",
        "periodization_calibration",
        "zak_calibration",
    }
    assert not any(c["passed"] for c in empty)


def test_support_lemma_counts_each_mismatching_sample(monkeypatch):
    # A zero projection misses the whole support of every sample.
    import framelab.verification as verification

    monkeypatch.setattr(
        verification,
        "_support_projections",
        lambda group, mats, tol: (np.zeros(mats.shape[:2]), np.zeros_like(mats)),
    )
    result = check_support_lemma(_reps("Z4", "Z3xZ4"), np.random.default_rng(0), samples=6)
    assert result.details["mismatches"] == 12
    assert result.passed is False


def test_suite_resolves_each_spec_once_under_its_cap(monkeypatch):
    import framelab.verification as verification

    caps = []

    def counting(spec, max_order):
        caps.append(max_order)
        return group_from_spec(spec, max_order=max_order)

    monkeypatch.setattr(verification, "group_from_spec", counting)
    run_verification_suite(seed=0, samples=1, max_order=8192)
    assert caps == [8192] * len(DEFAULT_GROUP_SPECS)


def test_suite_builds_each_regular_action_once(monkeypatch):
    built = []

    def counting(group):
        built.append(group)
        return regular_representation(group)

    monkeypatch.setattr(verification, "regular_representation", counting)
    run_verification_suite(seed=0, samples=1)
    assert len(built) == len(DEFAULT_GROUP_SPECS)
    assert len({id(group) for group in built}) == len(built)


@pytest.mark.parametrize("n", [1, 7, 64])
def test_cvec_draws_real_then_imaginary_parts(n):
    rng, former = np.random.default_rng(n), np.random.default_rng(n)
    z = verification._cvec(rng, n)
    expected = former.standard_normal(n) + 1j * former.standard_normal(n)
    assert z.tobytes() == expected.tobytes()
    # A stack of rows draws as one call per row, in C order.
    stack = verification._cvec(rng, 3, 2, n)
    rows = [former.standard_normal(n) + 1j * former.standard_normal(n) for _ in range(6)]
    assert stack.tobytes() == np.reshape(rows, (3, 2, n)).tobytes()
    assert rng.bit_generator.state == former.bit_generator.state


def test_only_the_suite_resolves_group_specs():
    import ast
    import inspect

    import framelab.verification as verification

    tree = ast.parse(inspect.getsource(verification))
    readers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Name) and node.id == "group_from_spec"
            for node in ast.walk(fn)
        )
    }
    assert readers == {"run_verification_suite"}
    # The default gabor model is written in _DEFAULT_MODELS only.
    models = inspect.signature(check_gabor_commutativity).parameters["models"]
    assert models.default is inspect.Parameter.empty


def _scaled_row(row, scale, entries=slice(None)):
    """A gabor_representation whose row `row` has `entries` scaled by `scale`."""

    def build(l, m):
        rep = gabor_representation(l, m)
        phase = rep.rows(np.arange(rep.group.order))[1].copy()
        phase[row, entries] *= scale
        return faulty_rows(rep, phase=phase)

    return build


def test_gabor_checks_fail_on_a_broken_action_without_the_guard(monkeypatch):
    def run(build):
        # The Zak calibration builds its own actions; the commutativity
        # check is handed the broken ones.
        monkeypatch.setattr(verification, "gabor_representation", build)
        zak = check_zak_calibration(np.random.default_rng(0), samples=25)
        models = [build(2, 3), build(3, 4)]
        return zak.passed, check_gabor_commutativity(models).passed

    assert run(gabor_representation) == (True, True)
    # One entry off: the action breaks the law and stops commuting.
    assert run(_scaled_row(1, 1j, 0)) == (False, False)
    # A whole row times a unit scalar: U(1) U(1^-1) is 1j times the identity,
    # so the law fails, yet every pair still commutes.  Only the Zak
    # calibration catches it.
    assert run(_scaled_row(1, 1j)) == (False, True)
    rep = verification.gabor_representation(3, 4)
    assert not verify_representation(rep).passed


def _former_factor_draws(rng, max_dim):
    """The draws of _random_factor_matrix, with full square QR factors."""
    rows = int(rng.integers(2, max_dim + 1))
    cols = int(rng.integers(2, max_dim + 1))
    rank = int(rng.integers(1, min(rows, cols) + 1))
    sing = np.sort(rng.uniform(0.5, 2.0, size=rank)) + 0.05 * np.arange(rank)
    squares = []
    for n in (rows, cols):
        draws = rng.standard_normal((2, n * n))
        squares.append((draws[0] + 1j * draws[1]).reshape(n, n))
    q1, q2 = (np.linalg.qr(square)[0] for square in squares)
    return (q1[:, :rank] * sing) @ q2[:, :rank].conj().T, sing**2


@pytest.mark.parametrize("max_dim", [2, 5, 32])
def test_random_factor_matrix_spectrum_rank_and_stream(max_dim):
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(40):
        k, s2 = _random_factor_matrix(rng, max_dim)
        want_k, want_s2 = _former_factor_draws(twin, max_dim)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert np.array_equal(s2, want_s2)
        assert k.shape == want_k.shape
        np.testing.assert_allclose(k, want_k, rtol=0, atol=1e-13)
        sq = np.linalg.svd(k, compute_uv=False) ** 2
        np.testing.assert_allclose(sq[: s2.size], np.sort(s2)[::-1], rtol=1e-12)
        assert np.linalg.matrix_rank(k) == s2.size
