"""The monomial action core: gathers against the dense matrices they replace."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import framelab.cli
from framelab import (
    OrbitSystem,
    ParseError,
    correlation_function,
    group_from_spec,
    lambda_matrix,
    make_abelian_group,
    orbit_matrix,
    orbit_rows,
    parse_rep_spec,
    regular_representation,
    verify_representation,
)

from conftest import faulty_rows


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@st.composite
def group_specs(draw):
    kind = draw(st.sampled_from(["Z", "D", "H"]))
    if kind == "Z":
        factors = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        return "x".join(f"Z{n}" for n in factors)
    if kind == "D":
        return f"D{draw(st.integers(2, 9))}"
    return f"H{draw(st.integers(2, 4))}"


@st.composite
def relabelled_table(draw):
    """A multiplication table with the element labels of a built group shuffled."""
    group = group_from_spec(draw(group_specs()))
    perm = np.array(draw(st.permutations(range(group.order))))
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return table.tolist()


rep_specs = st.one_of(
    group_specs().map(lambda s: f"regular:{s}"),
    relabelled_table(),
    st.tuples(st.integers(2, 8), st.integers(1, 6)).map(lambda t: f"shift:{t[0]},{t[1]}"),
    st.tuples(st.integers(2, 8), st.integers(2, 8)).map(lambda t: f"gabor:{t[0]},{t[1]}"),
)

def _loop_matrices(spec, rep):
    """The dense tensor built element by element, as the builders once did."""
    if spec.startswith("regular:"):
        return np.stack([lambda_matrix(rep.group, g) for g in rep.group.elements()])
    kind, params = spec.split(":")
    a, b = (int(p) for p in params.split(","))
    n = rep.dim
    x = np.arange(n)
    mats = np.zeros((rep.group.order, n, n), dtype=np.complex128)
    if kind == "shift":
        for k in range(a):
            mats[k, x, (x - k * b) % n] = 1.0
        return mats
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    for k in range(a):
        for j in range(b):
            mats[k * b + j, x, (x - b * k) % n] = roots[(a * j * x) % n]
    return mats


bounded_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def _table_spec(table_dir, spec):
    """spec itself, or a regular:table: spec for a drawn table."""
    if not isinstance(spec, list):
        return spec
    path = table_dir / f"t{len(spec)}.json"
    path.write_text(json.dumps({"table": spec}))
    return f"regular:table:{path}"


@settings(max_examples=60, deadline=None)
@given(spec=rep_specs, data=st.data())
def test_gather_matches_dense_oracle(table_dir, spec, data):
    spec = _table_spec(table_dir, spec)
    rep = parse_rep_spec(spec)
    assert np.array_equal(rep.matrices, _loop_matrices(spec, rep))
    psi = data.draw(arrays(np.complex128, rep.dim, elements=bounded_complex))

    got = orbit_matrix(OrbitSystem(rep, psi))
    want = (rep.matrices @ psi).T
    if spec.startswith("gabor:"):
        norm_sq = float(np.vdot(psi, psi).real)
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, norm_sq)
    else:
        assert np.array_equal(got, want)
    for g in (0, rep.group.order - 1):
        assert np.array_equal(rep.matrix(g), rep.matrices[g])
    assert verify_representation(rep).passed


@settings(max_examples=60, deadline=None)
@given(spec=rep_specs, data=st.data())
def test_rows_of_any_elements_are_the_cached_rows(table_dir, spec, data):
    # Elements of any shape, in any order and with repeats, read the rows of
    # every element at their indices; rows is asked first, and asked again
    # on the same representation, where it reuses what the first call built.
    rep = parse_rep_spec(_table_spec(table_dir, spec))
    shape = tuple(data.draw(st.lists(st.integers(0, 4), max_size=3), label="shape"))
    elements = data.draw(
        arrays(np.int64, shape, elements=st.integers(0, rep.group.order - 1)), label="elements"
    )
    first = rep.rows(elements)
    second = rep.rows(elements)
    every_src, every_phase = rep.rows(np.arange(rep.group.order))
    for src, phase in (first, second):
        assert src.dtype == np.int64 and phase.dtype == np.complex128
        assert src.shape == phase.shape == (*shape, rep.dim)
        assert np.array_equal(src, every_src[elements])
        assert np.array_equal(
            np.ascontiguousarray(phase).view(np.int64),
            np.ascontiguousarray(every_phase[elements]).view(np.int64),
        )


def test_gabor_phase_block_is_built_once_per_representation(monkeypatch):
    rep = parse_rep_spec("gabor:6,4")
    exps = []
    exp = np.exp

    def counting(*args, **kwargs):
        exps.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    for elements in ([0], [5, 3], np.arange(rep.group.order)):
        rep.rows(elements)
    assert len(exps) == 1


def test_correlation_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for spec in ("regular:D5", "shift:6,3", "gabor:3,4"):
        rep = parse_rep_spec(spec)
        phi, psi = (rng.standard_normal((rep.dim, 2)) @ [1.0, 1j] for _ in range(2))
        want = (rep.matrices @ psi).conj() @ phi
        got = correlation_function(rep, phi, psi).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", ["regular:Z12", "regular:D5", "regular:H3", "shift:6,3"])
def test_permutation_phases_are_a_view_of_one_value(spec):
    rep = parse_rep_spec(spec)
    order, dim = rep.group.order, rep.dim
    src, phase = rep.rows(np.arange(order))
    assert phase.shape == (order, dim) and phase.dtype == np.complex128
    # No (order, dim) buffer behind the phases: one 16-byte value, read-only.
    assert phase.strides == (0, 0)
    low, high = np.lib.array_utils.byte_bounds(phase)
    assert high - low == 16
    assert not phase.flags.writeable
    assert verify_representation(rep).passed
    psi = np.random.default_rng(5).standard_normal((2, dim)).T @ [1.0, 1j]
    want = np.ones((order, dim), dtype=np.complex128) * psi[src]
    got = orbit_rows(OrbitSystem(rep, psi))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dense_matrices_are_built_once_on_demand():
    rep = regular_representation(make_abelian_group([4]))
    assert "matrices" not in vars(rep)
    mats = rep.matrices
    assert mats.shape == (4, 4, 4)
    assert rep.matrices is mats
    assert not mats.flags.writeable
    src, phase = rep.rows(np.arange(rep.group.order))
    assert src.dtype == np.int64 and phase.dtype == np.complex128


def test_verify_flags_a_wrong_source_coordinate():
    # All phases are 1, so only the source comparison can see the fault.
    rep = regular_representation(make_abelian_group([6]))
    src = rep.rows(np.arange(rep.group.order))[0].copy()
    src[4, [0, 1]] = src[4, [1, 0]]
    result = verify_representation(faulty_rows(rep, src=src))
    assert not result.passed
    assert result.homomorphism_deviation >= 1.0
    assert result.unitarity_deviation == 0.0
    a, b = result.failing_pair
    assert 4 in (a, b, rep.group.product(a, b))

    src = rep.rows(np.arange(rep.group.order))[0].copy()
    src[4, 0] = src[4, 1]
    result = verify_representation(faulty_rows(rep, src=src))
    assert result.unitarity_deviation >= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_library_rejects_non_finite_generator(bad):
    rep = regular_representation(make_abelian_group([3]))
    psi = np.array([1.0, bad, 0.0])
    with pytest.raises(ParseError):
        orbit_matrix(OrbitSystem(rep, psi))
    with pytest.raises(ParseError):
        correlation_function(rep, psi, np.ones(3))
    with pytest.raises(ParseError):
        correlation_function(rep, np.ones(3), psi)


def test_analyze_regular_z1024_stays_small(tmp_path, monkeypatch, capsys):
    # The dense (order, dim, dim) tensor alone would be 1024**3 * 16 bytes.
    built = []

    def recording_parse(*args, **kwargs):
        rep = parse_rep_spec(*args, **kwargs)
        built.append(rep)
        return rep

    monkeypatch.setattr(framelab.cli, "parse_rep_spec", recording_parse)
    rng = np.random.default_rng(0)
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": rng.standard_normal((1024, 2)).tolist()}))

    tracemalloc.start()
    try:
        code = framelab.cli.main(["analyze", "--rep", "regular:Z1024", "--psi", str(psi)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] in ("riesz", "frame_not_riesz", "bessel_only_degenerate")
    assert peak < 1 << 30
    assert [rep.dim for rep in built] == [1024]
    assert "matrices" not in vars(built[0])
