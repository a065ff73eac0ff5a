"""Acceptance gate: the structural claims at full sample counts.

Each test covers one criterion and prints a single summary line (visible
with `pytest -s` and in failure reports).  Sample counts are stated inline;
the tolerances the runners fix are asserted on their results, so loosening
one fails here.  None of them are tuned down for speed.
"""

import json
import time

import numpy as np
import pytest

from framelab import (
    OrbitSystem,
    analyze_orbit,
    frame_bounds,
    gram_matrix,
    make_abelian_group,
    regular_representation,
    riesz_bounds,
    vector_system,
)
import framelab.verification as verification
from framelab.cli import main
from framelab.verification import (
    check_bracket_gramian,
    check_duallemma_suite,
    check_gabor_commutativity,
    check_lambda_structure,
    check_periodization_calibration,
    check_representation_validity,
    check_sandwich_suite,
    check_support_lemma,
    check_zak_calibration,
)
from framelab.representations import (
    gabor_representation,
    shift_model_representation,
)
from framelab.groups import group_from_spec, make_builtin_group


def _announce(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS {detail}")


def test_criterion_1_bracket_operator_equals_gramian():
    specs = ["Z4", "Z2xZ2", "Z3xZ4", "D4", "H3"]
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    result = check_bracket_gramian(
        [regular_representation(group_from_spec(s)) for s in specs],
        rng,
        samples=100,
    )
    elapsed = time.perf_counter() - start
    assert result.tolerance == 1e-11
    assert result.details["trace_tolerance"] == 1e-12
    assert result.passed, (
        f"bracket/Gramian deviation {result.max_deviation:.3e} over {result.samples}"
        f" generators exceeds 1e-11"
    )
    assert result.samples == 500
    assert elapsed < 30.0, f"criterion took {elapsed:.1f}s, budget is 30s"
    _announce(
        "criterion 1",
        f"bracket=Gramian on 500 generators across {specs}, worst entry "
        f"{result.max_deviation:.2e} (tol {result.tolerance:.0e}), worst trace "
        f"{result.details['trace_deviation']:.2e} "
        f"(tol {result.details['trace_tolerance']:.0e}), {elapsed:.1f}s",
    )


def test_criterion_2_duallemma_four_tests_agree(monkeypatch):
    # The runner hands each K and its spectral tolerance to _duallemma_reports.
    seen = []
    reports = verification._duallemma_reports

    def recording(k, lower_bounds, b, tol):
        seen.append((max(k.shape), tol))
        return reports(k, lower_bounds, b, tol=tol)

    monkeypatch.setattr(verification, "_duallemma_reports", recording)
    rng = np.random.default_rng(2)
    result = check_duallemma_suite(rng, samples=200)
    details = result.details
    assert len(seen) == 200
    assert max(side for side, _ in seen) <= 32
    assert {tol for _, tol in seen} == {1e-10}
    assert result.tolerance == 0.0
    assert details["slack"] == 1e-10
    assert details["disagreements"] == 0, details
    assert details["false_negatives"] == 0, details
    assert details["stuck_flips"] == 0, details
    assert result.passed
    _announce(
        "criterion 2",
        f"four equivalent spectral tests (tol {seen[0][1]:.0e}) agree on 200 "
        f"random K (dims <= 32), bracketing bounds all-true and perturbed lower "
        f"bounds all-false, 0 disagreements (tol {result.tolerance:g}, "
        f"slack {details['slack']:.0e})",
    )


def test_criterion_3_bounds_are_optimal_quotient_bounds():
    rng = np.random.default_rng(3)
    checked = 0
    worst_violation = 0.0
    worst_attain = 0.0
    for case in range(20):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        mat = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        if case % 3 == 0 and m >= 3:
            mat[:, -1] = mat[:, 0]  # force a Gram kernel
        sys = vector_system(mat)
        bounds, kernel_dim = frame_bounds(sys)
        a, b = bounds
        if kernel_dim == 0:
            assert riesz_bounds(sys) == bounds
        else:
            assert riesz_bounds(sys) is None
        # 500 random coefficient/span vectors respect the bounds
        for _ in range(250):
            c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if kernel_dim == 0:
                q = np.linalg.norm(mat @ c) ** 2 / np.linalg.norm(c) ** 2
                worst_violation = max(
                    worst_violation, (a - q) / a, (q - b) / b
                )
            phi = mat @ c
            nrm = np.linalg.norm(phi) ** 2
            if nrm > 1e-12:
                q = np.linalg.norm(mat.conj().T @ phi) ** 2 / nrm
                worst_violation = max(
                    worst_violation, (a - q) / a, (q - b) / b
                )
        # eigenvectors of the Gram attain both bounds
        w, v = np.linalg.eigh(gram_matrix(sys))
        kept = w > 1e-10 * w[-1]
        for lam, idx in ((a, int(np.argmax(kept))), (b, w.size - 1)):
            c = v[:, idx]
            q = np.linalg.norm(mat @ c) ** 2 / np.linalg.norm(c) ** 2
            worst_attain = max(worst_attain, abs(q - lam) / max(1.0, lam))
        checked += 1
    assert checked == 20
    assert worst_violation <= 1e-9, worst_violation
    assert worst_attain <= 1e-10, worst_attain
    _announce(
        "criterion 3",
        f"20 random systems (n,m <= 64), 500 quotients each inside the bounds "
        f"(worst overshoot {worst_violation:.2e}, tol 1e-9); eigenvector "
        f"extremizers attain to {worst_attain:.2e} (tol 1e-10)",
    )


def test_criterion_4_multiplier_transform_structure():
    specs = ["Z4", "Z2xZ2", "Z3xZ4", "Z2xZ4xZ6", "Z48"]
    for spec in specs:
        assert make_builtin_group(spec).order <= 48
    rng = np.random.default_rng(4)
    result = check_lambda_structure(
        [group_from_spec(s) for s in specs], rng, pairs=100
    )
    assert result.tolerance == 1e-10
    assert result.passed, (
        f"multiplier structure deviation {result.max_deviation:.3e} exceeds 1e-10"
    )
    assert result.samples == 100 * len(specs)
    _announce(
        "criterion 4",
        f"multiplication, star, p-norms (p in {{1,2,4,inf}}) and spectra match "
        f"through the multiplier transform on {result.samples} operator pairs "
        f"over {specs}, worst relative deviation {result.max_deviation:.2e} "
        f"(tol {result.tolerance:.0e})",
    )


def test_criterion_5_support_lemma_and_sandwich_agreement():
    specs = ["Z4", "Z2xZ2", "Z3xZ4"]
    rng = np.random.default_rng(5)
    support = check_support_lemma(
        [regular_representation(group_from_spec(s)) for s in specs], rng, samples=100
    )
    assert support.tolerance == 1e-10
    assert support.passed, support.details
    assert support.details["mismatches"] == 0
    assert support.samples == 300
    sandwich = check_sandwich_suite(
        [regular_representation(group_from_spec(s)) for s in specs],
        rng,
        samples=100,
        adversarial=20,
    )
    assert sandwich.passed, sandwich.details
    assert sandwich.details["disagreements"] == 0
    assert sandwich.details["wrong_calls"] == 0
    assert sandwich.samples == 120
    assert sandwich.details["slack"] == 1e-10
    _announce(
        "criterion 5",
        f"support projection multiplier is an exact 0/1 indicator on "
        f"{support.samples} positive operators (worst gap "
        f"{support.max_deviation:.2e}, tol {support.tolerance:.0e}); operator and scalar sandwich tests "
        f"agree on 120 cases including 20 near-boundary (+-1e-6) ones (slack "
        f"{sandwich.details['slack']:.0e})",
    )


def test_criterion_6_fast_bracket_calibrations():
    rng = np.random.default_rng(6)
    period = check_periodization_calibration(rng, samples=100)
    assert period.tolerance == 1e-10
    assert period.passed, period.max_deviation
    zak = check_zak_calibration(rng, samples=100)
    assert zak.tolerance == 1e-10
    assert zak.passed, zak.max_deviation
    _announce(
        "criterion 6",
        f"folded-spectrum bracket matches the operator route on 100 shift "
        f"systems (N<=16, M<=8, worst {period.max_deviation:.2e}, tol "
        f"{period.tolerance:.0e}) and the Zak product bracket on 100 "
        f"shift-modulation systems (L*M<=36, worst {zak.max_deviation:.2e}, "
        f"tol {zak.tolerance:.0e})",
    )


def test_criterion_7_worked_examples_and_cli_determinism(tmp_path, capsys):
    # cyclic worked example
    rep4 = regular_representation(make_abelian_group([4]))
    report = analyze_orbit(OrbitSystem(rep4, [1.0, 0.5, 0.0, 0.0]))
    assert report.verdict == "riesz"
    assert report.riesz_bounds == (pytest.approx(0.25), pytest.approx(2.25))
    np.testing.assert_allclose(
        np.sort(report.gram_spectrum), [0.25, 1.25, 1.25, 2.25], atol=1e-12
    )
    # rank-deficient worked example
    rep2 = regular_representation(make_abelian_group([2]))
    report2 = analyze_orbit(OrbitSystem(rep2, [1.0, 1.0]))
    assert report2.verdict == "frame_not_riesz"
    assert report2.frame_bounds == (pytest.approx(4.0), pytest.approx(4.0))
    assert report2.kernel_dim == 1

    # byte-identical CLI reruns at seed 0
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(
        json.dumps({"values": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    )
    outputs = []
    for _ in range(2):
        code = main(
            ["analyze", "--rep", "regular:Z4", "--psi", str(psi_path), "--seed", "0"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    verify_outputs = []
    for _ in range(2):
        code = main(["verify", "--groups", "Z4,D4", "--samples", "5", "--seed", "0"])
        assert code == 0
        verify_outputs.append(capsys.readouterr().out)
    assert verify_outputs[0] == verify_outputs[1]
    _announce(
        "criterion 7",
        "worked cyclic examples reproduce published spectra and bounds; "
        "analyze and verify emit byte-identical output across reruns at seed 0",
    )


def test_criterion_8_representations_verify_and_gabor_commutes():
    reps = [
        regular_representation(make_builtin_group(s))
        for s in ("Z2", "Z4", "Z2xZ2", "Z3xZ4", "D4", "H3")
    ]
    reps += [shift_model_representation(4, 2), gabor_representation(2, 3)]
    validity = check_representation_validity(reps)
    assert validity.tolerance == 1e-13
    assert validity.passed, (
        f"representation deviation {validity.max_deviation:.3e} exceeds 1e-13"
    )
    gabors = [gabor_representation(l, m) for l, m in ((2, 2), (2, 3), (4, 3))]
    commute = check_gabor_commutativity(models=gabors)
    assert commute.passed
    assert commute.details["integer_phases_exact"] is True
    _announce(
        "criterion 8",
        f"8 built-in representations verify to {validity.max_deviation:.2e} "
        f"(tol {validity.tolerance:.0e}); shift-modulation commutativity is exact on integer "
        f"phases and dense products agree to {commute.max_deviation:.2e}",
    )
