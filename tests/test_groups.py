"""Group arithmetic, duals, and convolution."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import framelab.groups as groups_module

from framelab import (
    EmptyFactorsError,
    FiniteGroup,
    GroupMismatchError,
    MalformedTableError,
    NoIdentityError,
    NoInverseError,
    NotAbelianError,
    NotAssociativeError,
    OrderTooLargeError,
    ParseError,
    character_table,
    characters,
    convolve,
    delta,
    dihedral_group,
    group_from_spec,
    group_function,
    heisenberg_group,
    make_abelian_group,
    make_builtin_group,
    make_group_from_table,
    parse_rep_spec,
)
from framelab.cli import main
from framelab.groups import same_group
from framelab.vnalgebra import rho_matrix

from conftest import affine_table, relabelled

# Smallest loop (two-sided identity, two-sided inverses) that is not a group;
# found by exhaustive search at order 5.
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_group_table():
    g = make_abelian_group([4])
    assert g.order == 4
    assert g.identity == 0
    assert g.is_abelian
    assert [g.product(1, x) for x in range(4)] == [1, 2, 3, 0]
    assert [g.inverse(x) for x in range(4)] == [0, 3, 2, 1]


def test_mixed_radix_last_factor_fastest():
    g = make_abelian_group([2, 4])
    # element (1, 3) has index 1*4 + 3 = 7; its inverse is (1, 1) = index 5
    assert g.inverse(7) == 5
    dual = characters(g)
    assert dual[7].exponents == (1, 3)
    assert dual[5].exponents == (1, 1)


def test_abelian_group_is_commutative_table():
    g = make_abelian_group([3, 4])
    assert np.array_equal(g.table, g.table.T)
    assert g.spec == "Z3xZ4"


def test_empty_factors_rejected():
    with pytest.raises(EmptyFactorsError):
        make_abelian_group([])
    with pytest.raises(EmptyFactorsError):
        make_abelian_group([4, 1])


def test_order_cap():
    with pytest.raises(OrderTooLargeError):
        make_abelian_group([100], max_order=64)
    with pytest.raises(OrderTooLargeError):
        dihedral_group(64, max_order=100)
    with pytest.raises(OrderTooLargeError):
        heisenberg_group(5, max_order=100)


def test_builtin_specs():
    assert make_builtin_group("Z6").order == 6
    assert make_builtin_group("Z2xZ4").order == 8
    assert make_builtin_group("D4").order == 8
    assert make_builtin_group("H3").order == 27


@pytest.mark.parametrize(
    "bad", ["", "Z", "Z1", "Zx", "Z4x", "Z4xD2", "D", "D1", "H", "H1", "Q8", "z4", "Z-4"]
)
def test_builtin_spec_errors(bad):
    with pytest.raises(ParseError):
        make_builtin_group(bad)


def test_dihedral_relations():
    d4 = dihedral_group(4)
    r, s = 1, 4  # r^1 s^0 and r^0 s^1
    assert d4.product(r, s) == 5  # r s = index 1*... j=1, k=1
    assert d4.product(s, r) == 7  # s r = r^-1 s = (k=3, j=1)
    assert d4.product(s, s) == 0
    assert not d4.is_abelian
    # r has order 4
    x = r
    for _ in range(3):
        x = d4.product(x, r)
    assert x == 0


def test_dihedral_small_cases_commutative():
    assert dihedral_group(2).is_abelian
    assert not dihedral_group(3).is_abelian


def test_heisenberg_center():
    h = heisenberg_group(3)
    assert h.order == 27
    assert not h.is_abelian
    center = [
        g
        for g in h.elements()
        if all(h.product(g, x) == h.product(x, g) for x in h.elements())
    ]
    # the center is the cyclic subgroup (0, 0, c)
    assert center == [0, 1, 2]


def test_heisenberg_group_axioms_via_table_roundtrip():
    h = heisenberg_group(2)
    rebuilt = make_group_from_table(h.table)
    assert rebuilt.identity == h.identity
    assert np.array_equal(rebuilt.inverses, h.inverses)
    assert not rebuilt.is_abelian


def test_table_group_identity_not_at_zero():
    g = make_group_from_table([[1, 0], [0, 1]])
    assert g.identity == 1
    assert g.order == 2


def test_table_rejects_nonassociative_loop():
    with pytest.raises(NotAssociativeError):
        make_group_from_table(NONASSOCIATIVE_LOOP)


def test_table_rejects_monoid_without_inverses():
    # multiplicative monoid on {0, 1}: identity is 1, but 0 has no inverse
    with pytest.raises(NoInverseError):
        make_group_from_table([[0, 0], [0, 1]])


# Identity 2, and every element is its own inverse.  The search for
# generators takes 0, closing {2, 0}, then 1, which closes only {2, 0, 1}.
UNDOUBLED_CLOSURE = [
    [2, 0, 0, 5, 1, 3],
    [0, 2, 1, 0, 5, 4],
    [0, 1, 2, 3, 4, 5],
    [1, 5, 3, 4, 2, 0],
    [5, 0, 4, 2, 3, 1],
    [4, 3, 5, 1, 0, 2],
]


def test_table_whose_closure_does_not_double_is_refused():
    table = np.array(UNDOUBLED_CLOSURE)
    gens, columns = groups_module._generating_set(6, 2, lambda s: table[:, s])
    assert gens.tolist() == [0, 1]
    assert np.array_equal(columns, table[:, gens].T)
    with pytest.raises(NotAssociativeError, match=r"\(a\*b\)\*c != a\*\(b\*c\) at"):
        make_group_from_table(UNDOUBLED_CLOSURE)


def _closure(columns, identity):
    """The elements reached from identity along the given columns x -> x*s."""
    reached, frontier = {identity}, {identity}
    while frontier:
        frontier = set(columns[:, list(frontier)].ravel().tolist()) - reached
        reached |= frontier
    return reached


@given(group=st.one_of(
    st.lists(st.integers(2, 9), min_size=1, max_size=4).map(make_abelian_group),
    st.integers(2, 60).map(dihedral_group),
    st.integers(2, 6).map(heisenberg_group),
))
def test_builtin_generators_generate_and_fill_no_table(group):
    gens, columns = group.generators
    assert "table" not in vars(group)
    assert gens.size <= math.log2(group.order)
    assert np.array_equal(columns, group.table[:, gens].T)
    assert _closure(columns, group.identity) == set(group.elements())


# Group tables above order 512 that the table check reads.
_LARGE_TABLES = {
    "AGL(1,29)": lambda: affine_table(29),
    "AGL(1,31)": lambda: affine_table(31),
    "Z2^10": lambda: make_abelian_group([2] * 10).table,
}


def _breaks_associativity_on_row(table, a):
    """True when (a*b)*c != a*(b*c) for some b and c."""
    return not np.array_equal(table[table[a]], table[a][table])


@settings(max_examples=12)
@given(name=st.sampled_from(sorted(_LARGE_TABLES)), data=st.data())
def test_table_check_refuses_every_planted_intercalate_switch(name, data):
    base = _LARGE_TABLES[name]()
    n = len(base)
    perm = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")).permutation(n)
    table = relabelled(base, perm)
    e = int(perm[0])
    group = make_group_from_table(table)
    assert group.identity == e and group.generators[0].size <= math.log2(n)

    # For an involution u, rows a and b = a*u and columns c and d = u*c hold
    # an intercalate: a*c = b*d = x and a*d = b*c = y.  Switching x and y
    # keeps a table with identity and inverses, but no group table.
    elements = st.integers(0, n - 1)
    involutions = np.flatnonzero((table[np.arange(n), np.arange(n)] == e) & (np.arange(n) != e))
    u = int(involutions[data.draw(st.integers(0, involutions.size - 1), label="u")])
    a, c = data.draw(elements, label="a"), data.draw(elements, label="c")
    b, d = table[a, u], table[u, c]
    x, y = table[a, c], table[a, d]
    assume(e not in (a, b, c, d, x, y))
    table[[a, a, b, b], [c, d, c, d]] = y, x, x, y
    assert _breaks_associativity_on_row(table, a) or _breaks_associativity_on_row(table, b)
    with pytest.raises(NotAssociativeError):
        make_group_from_table(table)


def test_table_rejects_no_identity():
    with pytest.raises(NoIdentityError):
        make_group_from_table([[1, 0], [1, 0]])


@pytest.mark.parametrize(
    "bad",
    [
        [[0, 1]],
        [[0, 5], [1, 0]],
        [[0.5, 1], [1, 0]],
        [],
    ],
)
def test_table_rejects_malformed(bad):
    with pytest.raises(MalformedTableError):
        make_group_from_table(bad)


def test_table_relabeled_group_accepted():
    # conjugate Z5 by a permutation; the result is still a group
    rng = np.random.default_rng(3)
    base = make_abelian_group([5])
    perm = rng.permutation(5)
    inv_perm = np.argsort(perm)
    table = perm[base.table[np.ix_(inv_perm, inv_perm)]]
    g = make_group_from_table(table)
    assert g.order == 5
    assert g.identity == int(perm[0])


def test_group_from_spec_table_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text('{"table": [[0, 1], [1, 0]]}')
    g = group_from_spec(f"table:{path}")
    assert g.order == 2
    assert g.structure_tag == "custom-table"
    with pytest.raises(ParseError):
        group_from_spec(f"table:{tmp_path / 'missing.json'}")


def test_characters_z2():
    g = make_abelian_group([2])
    table = character_table(g)
    assert np.allclose(table, [[1, 1], [1, -1]])


def test_characters_sign_convention_z4():
    # character with exponent 1 sends the generator to exp(+2i pi / 4) = +i
    g = make_abelian_group([4])
    table = character_table(g)
    assert table[1, 1] == pytest.approx(1j)
    assert table[1, 3] == pytest.approx(-1j)


def test_characters_match_dft_matrix():
    n = 5
    g = make_abelian_group([n])
    dft = np.fft.fft(np.eye(n))
    assert np.abs(np.conj(character_table(g)) - dft).max() < 1e-12


def test_characters_z2xz2_real():
    g = make_abelian_group([2, 2])
    table = character_table(g)
    assert np.abs(table.imag).max() < 1e-15
    assert set(np.unique(np.round(table.real))) == {-1.0, 1.0}


@pytest.mark.parametrize("factors", [[4], [2, 2], [3, 4], [2, 3, 2]])
def test_character_orthogonality_and_totality(factors):
    g = make_abelian_group(factors)
    table = character_table(g)
    gram = table @ table.conj().T
    assert np.abs(gram - g.order * np.eye(g.order)).max() < 1e-10
    # all characters distinct
    assert len({tuple(np.round(row, 9)) for row in table}) == g.order


def test_characters_multiplicative():
    g = make_abelian_group([3, 4])
    table = character_table(g)
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b = rng.integers(0, g.order, size=2)
        ab = g.product(int(a), int(b))
        assert np.abs(table[:, a] * table[:, b] - table[:, ab]).max() < 1e-12


def test_characters_need_abelian():
    with pytest.raises(NotAbelianError):
        characters(dihedral_group(4))
    with pytest.raises(NotAbelianError):
        character_table(heisenberg_group(2))


def test_characters_list_exponents():
    g = make_abelian_group([2, 4])
    chars = characters(g)
    assert chars[7].exponents == (1, 3)
    assert np.allclose(chars[0].values, 1.0)


def test_convolve_identity():
    g = dihedral_group(4)
    rng = np.random.default_rng(1)
    u = group_function(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    e = delta(g, g.identity)
    assert np.allclose(convolve(u, e).values, u.values)
    assert np.allclose(convolve(e, u).values, u.values)


def test_convolve_point_masses_multiply():
    g = make_abelian_group([3])
    out = convolve(delta(g, 1), delta(g, 1))
    assert np.allclose(out.values, delta(g, 2).values)
    d4 = dihedral_group(4)
    r, s = 1, 4
    left = convolve(delta(d4, r), delta(d4, s))
    right = convolve(delta(d4, s), delta(d4, r))
    assert np.allclose(left.values, delta(d4, 5).values)
    assert np.allclose(right.values, delta(d4, 7).values)
    assert not np.allclose(left.values, right.values)


def _convolve_reference(group, u, v):
    out = np.zeros(group.order, dtype=complex)
    for g in group.elements():
        for h in group.elements():
            out[g] += u[group.product(g, group.inverse(h))] * v[h]
    return out


@pytest.mark.parametrize("spec", ["Z3xZ4", "D4", "H2"])
def test_convolve_against_direct_sum(spec):
    g = make_builtin_group(spec)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    v = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    got = convolve(group_function(g, u), group_function(g, v)).values
    want = _convolve_reference(g, u, v)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_convolve_associative():
    g = heisenberg_group(2)
    rng = np.random.default_rng(11)
    fns = [
        group_function(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        for _ in range(3)
    ]
    left = convolve(convolve(fns[0], fns[1]), fns[2]).values
    right = convolve(fns[0], convolve(fns[1], fns[2])).values
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_convolve_group_mismatch():
    a = make_abelian_group([4])
    b = make_abelian_group([2, 2])
    with pytest.raises(GroupMismatchError):
        convolve(delta(a, 0), delta(b, 0))


def test_group_function_wrong_length():
    g = make_abelian_group([4])
    with pytest.raises(GroupMismatchError):
        group_function(g, np.ones(3))


def test_tables_are_read_only():
    g = make_abelian_group([4])
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    with pytest.raises(ValueError):
        character_table(g)[0, 0] = 0.0


# ------------------------------- tables against the former direct builders


def _loop_abelian(factors):
    """Cyclic-product table, inverses and coordinates, one row at a time."""
    order = int(np.prod(factors))
    dims = np.asarray(factors, dtype=np.int64)
    coords = np.stack(np.unravel_index(np.arange(order), factors), axis=1)
    table = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        summed = (coords[a] + coords) % dims
        table[a] = np.ravel_multi_index(tuple(summed.T), factors)
    inverses = np.ravel_multi_index(tuple(((-coords) % dims).T), factors)
    return table, inverses, coords


def _broadcast_dihedral(n):
    """D_n table and inverses, index j*n + k for r^k s^j, as one broadcast."""
    idx = np.arange(2 * n)
    k, j = idx % n, idx // n
    k1, j1 = k[:, None], j[:, None]
    k2, j2 = k[None, :], j[None, :]
    kp = (k1 + np.where(j1 == 1, -k2, k2)) % n
    jp = (j1 + j2) % 2
    inverses = j * n + np.where(j == 0, (-k) % n, k)
    return jp * n + kp, inverses


def _loop_heisenberg(p):
    """H_p table and inverses, index (a*p + b)*p + c, one row at a time."""
    coords = np.stack(np.unravel_index(np.arange(p**3), (p, p, p)), axis=1)
    a, b, c = coords.T
    table = np.empty((p**3, p**3), dtype=np.int64)
    for i in range(p**3):
        aa = (a[i] + a) % p
        bb = (b[i] + b) % p
        cc = (c[i] + c + a[i] * b) % p
        table[i] = (aa * p + bb) * p + cc
    inverses = (((-a) % p) * p + ((-b) % p)) * p + ((-c + a * b) % p)
    return table, inverses


@st.composite
def factor_lists(draw):
    """One to six cyclic factors whose product is at most 1000."""
    count = draw(st.integers(1, 6))
    budget, factors = 1000, []
    for i in range(count):
        d = draw(st.integers(2, budget // 2 ** (count - 1 - i)))
        factors.append(d)
        budget //= d
    return factors


def _assert_fields(group, table, inverses, tag, spec, is_abelian):
    assert group.table.dtype == np.int64
    assert np.array_equal(group.table, table)
    assert np.array_equal(group.inverses, inverses)
    assert group.identity == 0
    assert group.is_abelian is is_abelian
    assert group.structure_tag == tag
    assert group.spec == spec
    assert not group.table.flags.writeable


@given(factors=factor_lists())
def test_abelian_table_matches_row_loop(factors):
    group = make_abelian_group(factors)
    table, inverses, coords = _loop_abelian(factors)
    spec = "x".join(f"Z{d}" for d in factors)
    _assert_fields(group, table, inverses, "cyclic-product", spec, True)
    assert [chi.exponents for chi in characters(group)] == [tuple(row) for row in coords]
    assert group.factors == tuple(factors)


@given(n=st.integers(2, 100))
def test_dihedral_table_matches_row_loop(n):
    table, inverses = _broadcast_dihedral(n)
    _assert_fields(dihedral_group(n), table, inverses, "dihedral", f"D{n}", n <= 2)
    assert dihedral_group(n).factors is None


@given(p=st.integers(2, 7))
def test_heisenberg_table_matches_row_loop(p):
    table, inverses = _loop_heisenberg(p)
    group = heisenberg_group(p)
    _assert_fields(group, table, inverses, "heisenberg", f"H{p}", False)
    assert group.factors is None


@pytest.mark.parametrize(
    "build,shape",
    [
        (lambda: make_abelian_group([4, 6]), (1, 4, 6)),
        (lambda: dihedral_group(5), (2, 5)),
        (lambda: heisenberg_group(3), (3, 3, 3)),
        (lambda: make_group_from_table(relabelled(affine_table(7), np.arange(42)[::-1])), (6, 7)),
        (lambda: make_group_from_table(make_abelian_group([2, 4]).table), (2, 4)),
    ],
    ids=["Z4xZ6", "D5", "H3", "AGL(1,7)", "Z2xZ4-table"],
)
def test_layout_is_the_cosets_of_an_abelian_subgroup(build, shape):
    group = build()
    layout = group.layout
    assert layout.shape == shape and not layout.flags.writeable
    assert sorted(layout.ravel()) == list(range(group.order))
    subgroup, reps = layout[0].ravel(), layout.reshape(shape[0], -1)[:, 0]
    assert subgroup[0] == reps[0] == group.identity
    products = group.table[np.ix_(subgroup, subgroup)]
    assert np.array_equal(products, products.T)
    assert set(products.ravel()) == set(subgroup)
    # Entry [t, b] is b t.
    assert np.array_equal(layout.reshape(shape[0], -1), group.table[subgroup[None, :], reps[:, None]])


# One builtin group of order 4096 of each shape.
_AT_THE_CAP = pytest.mark.parametrize(
    "build",
    [
        lambda: make_abelian_group([4096]),
        lambda: make_abelian_group([64, 64]),
        lambda: make_abelian_group([2] * 12),
        lambda: dihedral_group(2048),
        lambda: heisenberg_group(16),
    ],
    ids=["Z4096", "Z64xZ64", "Z2^12", "D2048", "H16"],
)


@_AT_THE_CAP
def test_table_build_peaks_near_one_table(build):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = build().table
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert table.shape == (4096, 4096)
    assert peak <= 1.25 * table.nbytes


@_AT_THE_CAP
def test_builtin_build_allocates_no_table(build):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        group = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert group.order == 4096
    assert peak < 2**20
    assert "table" not in vars(group)


@pytest.mark.parametrize("entries", [1, 100, 1000])
def test_blocked_tables_match_across_block_sizes(monkeypatch, entries):
    monkeypatch.setattr(groups_module, "_TABLE_BATCH_ENTRIES", entries)
    for n in (2, 7, 50):
        table, inverses = _broadcast_dihedral(n)
        assert np.array_equal(dihedral_group(n).table, table)
    for p in (2, 3, 5):
        table, inverses = _loop_heisenberg(p)
        assert np.array_equal(heisenberg_group(p).table, table)
    for factors in ([12], [5, 7], [2, 3, 4], [2, 2, 2, 2, 3]):
        table, inverses, coords = _loop_abelian(factors)
        assert np.array_equal(make_abelian_group(factors).table, table)


_BUILDERS = {
    "cyclic-product": lambda draw: make_abelian_group(draw(factor_lists())),
    "dihedral": lambda draw: dihedral_group(draw(st.integers(2, 60))),
    "heisenberg": lambda draw: heisenberg_group(draw(st.integers(2, 6))),
    "custom-table": lambda draw: make_group_from_table(
        dihedral_group(draw(st.integers(2, 12))).table
    ),
}


@given(
    kind=st.sampled_from(sorted(_BUILDERS)),
    entries=st.sampled_from([1, 7, 1 << 18]),
    data=st.data(),
)
def test_rows_match_the_table_rows(kind, entries, data):
    group = _BUILDERS[kind](data.draw)
    elements = np.array(
        data.draw(st.lists(st.integers(0, group.order - 1), max_size=30)), dtype=np.int64
    )
    first = int(elements[0]) if elements.size else 0
    with mock.patch.object(groups_module, "_TABLE_BATCH_ENTRIES", entries):
        rows = group.rows(elements)
        row = group.rows(first)
    assert group.structure_tag == kind
    assert rows.shape == (elements.size, group.order)
    assert np.array_equal(rows, group.table[elements])
    assert np.array_equal(row, group.table[first])


# ---------------------------------------- no table unless one is read


@pytest.fixture
def unreadable_tables(monkeypatch):
    """Make reading a builtin group's table fail the test."""

    def refuse(group):
        raise AssertionError(f"the table of {group.spec} was read")

    monkeypatch.setattr(FiniteGroup, "table", property(refuse))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--rep", "regular:Z1024"],
        ["analyze", "--rep", "regular:D512"],
        ["analyze", "--rep", "regular:Z2xZ36"],
        ["analyze", "--rep", "regular:H5"],
        ["bracket", "--oracle", "--rep", "shift:60,4"],
        ["bracket", "--oracle", "--rep", "gabor:10,12"],
    ],
)
def test_commands_never_fill_a_table(tmp_path, capsys, unreadable_tables, argv):
    dim = parse_rep_spec(argv[-1]).dim
    values = np.random.default_rng(3).standard_normal((dim, 2)).tolist()
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"values": values}))
    assert main([*argv, "--psi", str(path)]) == 0, capsys.readouterr().err


def test_verify_fills_no_table(capsys, unreadable_tables):
    # Exit 1 is a failed check, which is not this test's concern.
    argv = ["verify", "--samples", "3", "--seed", "0", "--groups", "Z512,D256"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), err
    assert json.loads(out)["groups"] == ["Z512", "D256"]


@pytest.mark.parametrize("spec", ["Z2xZ6", "D5", "H3"])
def test_rho_matrix_and_convolve_read_no_table(spec, unreadable_tables):
    g = make_builtin_group(spec)
    rng = np.random.default_rng(4)
    u, v = (rng.standard_normal(g.order) for _ in range(2))
    want = np.zeros(g.order)
    for x in g.elements():
        targets = [g.product(y, g.inverse(x)) for y in g.elements()]
        assert np.array_equal(np.argmax(rho_matrix(g, x), axis=0), targets)
        want[x] = sum(u[g.product(x, g.inverse(h))] * v[h] for h in g.elements())
    got = convolve(group_function(g, u), group_function(g, v)).values
    assert np.allclose(got, want)


def test_equal_builtin_structures_are_the_same_group_without_tables(unreadable_tables):
    for build in (
        lambda: make_abelian_group([64, 64]),
        lambda: dihedral_group(2048),
        lambda: heisenberg_group(16),
    ):
        assert same_group(build(), build())


def test_same_group_compares_tables_across_structures():
    z2z2 = make_abelian_group([2, 2])
    assert same_group(dihedral_group(2), z2z2)
    assert same_group(z2z2, make_group_from_table(z2z2.table))
    assert same_group(make_group_from_table(z2z2.table), z2z2)
    assert not same_group(make_abelian_group([4]), z2z2)
