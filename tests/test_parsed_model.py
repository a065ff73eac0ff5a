"""The parsed model a representation carries, and the checks each spec limit has."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import framelab.frames as frames
import framelab.groups as groups
import framelab.verification as verification
from framelab import (
    BLOCK_SPECTRUM_ORDER,
    DimTooLargeError,
    ParseError,
    block_spectrum,
    correlation_function,
    dihedral_group,
    gabor_bracket_via_zak,
    gabor_representation,
    heisenberg_group,
    make_abelian_group,
    make_group_from_table,
    parse_rep_spec,
    periodization_bracket,
    regular_representation,
    shift_model_representation,
)

_pad = st.text(alphabet=" \t", max_size=2)


@st.composite
def _specs(draw):
    """A spec with random whitespace, its label, and the model it names."""
    kind = draw(st.sampled_from(["Z", "D", "H", "shift", "gabor"]))
    if kind in ("shift", "gabor"):
        a = draw(st.integers(2, 24))
        b = draw(st.integers(1 if kind == "shift" else 2, 12))
        tail = f"{draw(_pad)}{a}{draw(_pad)},{draw(_pad)}{b}{draw(_pad)}"
        return f"{draw(_pad)}{kind}:{tail}", f"{kind}:{a},{b}", (kind, a, b)
    if kind == "Z":
        factors = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        group = "x".join(f"Z{d}" for d in factors)
    elif kind == "D":
        group = f"D{draw(st.integers(2, 40))}"
    else:
        group = f"H{draw(st.integers(2, 4))}"
    spec = f"{draw(_pad)}regular:{draw(_pad)}{group}{draw(_pad)}"
    return spec, f"regular:{group}", ("regular",)


@given(case=_specs())
def test_label_round_trips_through_the_parser(case):
    spec, label, model = case
    rep = parse_rep_spec(spec)
    assert rep.model == model
    assert all(type(size) is int for size in rep.model[1:])
    assert rep.label == label
    assert parse_rep_spec(rep.label).model == rep.model
    if model[0] != "regular":
        assert rep.dim == model[1] * model[2]
        assert rep.group.order == (model[1] if model[0] == "shift" else rep.dim)


def test_table_group_label_is_regular(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"table": make_abelian_group([3]).table.tolist()}))
    rep = parse_rep_spec(f"regular:table:{path}")
    assert rep.model == ("regular",)
    assert rep.label == "regular"


def test_verify_default_models_match_the_builders():
    built = [parse_rep_spec(spec) for spec in verification._DEFAULT_MODELS]
    direct = [shift_model_representation(4, 2), gabor_representation(2, 3)]
    for got, want in zip(built, direct, strict=True):
        assert got.model == want.model
        elements = np.arange(want.group.order)
        for got_rows, want_rows in zip(got.rows(elements), want.rows(elements), strict=True):
            assert got_rows.tobytes() == want_rows.tobytes()


@pytest.mark.parametrize(
    "spec,build",
    [
        ("shift:1,2", lambda: shift_model_representation(1, 2)),
        ("shift:4,0", lambda: shift_model_representation(4, 0)),
        ("gabor:1,4", lambda: gabor_representation(1, 4)),
        ("gabor:3,1", lambda: gabor_representation(3, 1)),
        pytest.param(
            "shift:1,2",
            lambda: periodization_bracket(np.ones(2), 1, 2),
            id="shift:1,2-periodization",
        ),
        pytest.param(
            "shift:4,0",
            lambda: periodization_bracket(np.ones(0), 4, 0),
            id="shift:4,0-periodization",
        ),
        pytest.param(
            "gabor:1,4",
            lambda: gabor_bracket_via_zak(np.ones(4), np.ones(4), 1, 4),
            id="gabor:1,4-zak",
        ),
        pytest.param(
            "gabor:3,1",
            lambda: gabor_bracket_via_zak(np.ones(3), np.ones(3), 3, 1),
            id="gabor:3,1-zak",
        ),
        ("regular:D1", lambda: dihedral_group(1)),
        ("regular:H0", lambda: heisenberg_group(0)),
    ],
)
def test_parser_reports_the_builders_range_error(spec, build):
    with pytest.raises(ParseError) as direct:
        build()
    with pytest.raises(ParseError) as parsed:
        parse_rep_spec(spec)
    assert type(parsed.value) is type(direct.value)
    assert str(parsed.value) == str(direct.value)


@pytest.mark.parametrize("spec", ["regular:Z6000", "regular:D3000"])
def test_regular_over_the_dim_cap_is_refused_before_any_table(spec):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(DimTooLargeError, match="^dimension 6000 exceeds cap 4096$"):
            parse_rep_spec(spec, max_order=8192)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_GROUPS_BY_TAG = {
    "cyclic-product": lambda: make_abelian_group([2, 3]),
    "dihedral": lambda: dihedral_group(5),
    "heisenberg": lambda: heisenberg_group(2),
    "custom-table": lambda: make_group_from_table(dihedral_group(3).table),
}


def test_every_block_structure_has_a_group_here():
    assert set(_GROUPS_BY_TAG) == {*groups._KINDS, "custom-table"}


@pytest.mark.parametrize("tag", sorted(_GROUPS_BY_TAG))
def test_block_spectrum_accepts_exactly_the_block_structures(tag):
    group = _GROUPS_BY_TAG[tag]()
    assert group.structure_tag == tag
    rep = regular_representation(group)
    psi = np.random.default_rng(5).standard_normal((rep.dim, 2)) @ [1, 1j]
    kernel = correlation_function(rep, psi, psi)
    dense = np.linalg.eigvalsh(kernel.values[group.table[group.inverses].T])
    np.testing.assert_allclose(block_spectrum(kernel), dense, atol=1e-12 * dense[-1])


@pytest.mark.parametrize(
    "spec",
    [
        "regular:Z72", "regular:D40", "regular:H5", "shift:72,1", "gabor:9,8",
        "regular:Z64", "regular:D32", "shift:64,3", "gabor:8,8",
    ],
)
def test_analyze_takes_blocks_for_regular_block_structures_only(spec):
    # Blocks exactly above the threshold, whatever the group and the model:
    # the Gram matrix of any unitary orbit is the convolution operator of its
    # correlation kernel.  (The name, kept so the test ids stay put, dates
    # from when only regular: orbits of some structures took blocks.)
    group = parse_rep_spec(spec).group
    want = group.order > BLOCK_SPECTRUM_ORDER
    assert want == (
        spec in ("regular:Z72", "regular:D40", "regular:H5", "shift:72,1", "gabor:9,8")
    )
    assert frames._uses_blocks(group) == want
