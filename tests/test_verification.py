"""The self-check suite: clean passes, fault injection, and skip notices."""

import numpy as np
import pytest

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
)
from framelab import gabor_representation, regular_representation, make_builtin_group
from framelab.groups import group_from_spec


def _groups(*specs):
    return [group_from_spec(s) for s in specs]


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


def test_fault_injection_trips_the_gramian_check():
    payload = run_verification_suite(seed=0, samples=5, inject_fault=True)
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
    result = check_gabor_commutativity(models=((2, 2), (3, 4)))
    assert result.passed
    assert result.details["integer_phases_exact"] is True


def test_individual_checks_pass_quickly():
    rng = np.random.default_rng(1)
    assert check_bracket_gramian(_groups("Z4", "D4"), rng, samples=5).passed
    assert check_duallemma_suite(rng, samples=10).passed
    assert check_lambda_structure(_groups("Z4", "Z2xZ2"), rng, pairs=5).passed
    assert check_support_lemma(_groups("Z4"), rng, samples=5).passed
    assert check_sandwich_suite(_groups("Z4"), rng, samples=10, adversarial=3).passed
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
    result = check_sandwich_suite(_groups("Z2xZ2"), rng, samples=8, adversarial=4)
    assert result.passed
    assert result.details["disagreements"] == 0
    assert result.details["wrong_calls"] == 0


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
    "bracket": lambda rng: check_bracket_gramian(_groups("Z4", "D4"), rng, samples=0),
    "duallemma": lambda rng: check_duallemma_suite(rng, samples=0),
    "lambda-D4": lambda rng: check_lambda_structure(_groups("D4"), rng),
    "lambda-Z4": lambda rng: check_lambda_structure(_groups("Z4"), rng, pairs=0),
    "support-D4-H3": lambda rng: check_support_lemma(_groups("D4", "H3"), rng),
    "support-Z4": lambda rng: check_support_lemma(_groups("Z4"), rng, samples=0),
    "sandwich-D4": lambda rng: check_sandwich_suite(_groups("D4"), rng),
    "sandwich-Z4": lambda rng: check_sandwich_suite(_groups("Z4"), rng, samples=0, adversarial=0),
    "periodization": lambda rng: check_periodization_calibration(rng, samples=0),
    "zak": lambda rng: check_zak_calibration(rng, samples=0),
    "representations": lambda rng: check_representation_validity([]),
    "gabor": lambda rng: check_gabor_commutativity(models=()),
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
        verification, "_support_projections", lambda group, mats, tol: np.zeros(mats.shape[:2])
    )
    result = check_support_lemma(_groups("Z4", "Z3xZ4"), np.random.default_rng(0), samples=6)
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
