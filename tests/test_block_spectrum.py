"""Block spectra over abelian subgroups against the dense Gram eigensolve they replace."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framelab.abelian as abelian
import framelab.cli as cli
import framelab.frames as frames
import framelab.groups as groups
import framelab.representations as representations
import framelab.vnalgebra as vnalgebra
from framelab import (
    BLOCK_SPECTRUM_ORDER,
    OrbitSystem,
    UnitaryRepresentation,
    analyze_orbit,
    block_spectrum,
    bracket_operator,
    correlation_function,
    dihedral_group,
    gram_matrix,
    heisenberg_group,
    make_abelian_group,
    make_group_from_table,
    orbit_matrix,
    orbit_rows,
    parse_rep_spec,
    regular_representation,
    vector_system,
)
from framelab.io import pairs_from_complex
from framelab.vnalgebra import _hermitian_spectrum

from conftest import affine_table, faulty_rows, relabelled


def _right_invariant(group, f, h):
    """Sum of f(x h^j) over the powers of h: constant on the cosets x<h>.

    Left translates stay constant on those cosets, so the orbit spans at most
    order/|<h>| dimensions and the Gram matrix has a kernel.
    """
    psi, x = np.zeros_like(f), group.identity
    while True:
        psi += f[group.table[:, x]]
        x = group.table[x, h]
        if x == group.identity:
            return psi


def _psi(data, group):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    h = data.draw(st.integers(0, group.order - 1), label="h")
    return _right_invariant(group, psi, h)


def _assert_matches_dense(rep, psi):
    kernel = correlation_function(rep, psi, psi)
    blocks = block_spectrum(kernel)
    synthesis = orbit_matrix(OrbitSystem(rep, psi))
    dense = np.linalg.eigvalsh(gram_matrix(vector_system(synthesis)))
    assert blocks.shape == dense.shape
    assert np.all(np.diff(blocks) >= 0)
    assert np.abs(blocks - dense).max() <= 1e-12 * dense[-1]


@given(n=st.integers(2, 200), data=st.data())
def test_dihedral_blocks_match_dense_spectrum(n, data):
    rep = regular_representation(dihedral_group(n))
    _assert_matches_dense(rep, _psi(data, rep.group))


@st.composite
def _cyclic_factors(draw, max_order=512):
    factors = []
    while not factors or draw(st.booleans()):
        room = max_order // math.prod(factors)
        if room < 2:
            break
        factors.append(draw(st.integers(2, room)))
    return factors


@settings(max_examples=60)
@given(factors=_cyclic_factors(), data=st.data())
def test_cyclic_product_blocks_match_dense_spectrum(factors, data):
    rep = regular_representation(make_abelian_group(factors))
    psi = _psi(data, rep.group)
    _assert_matches_dense(rep, psi)
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["scalar"] <= 1e-12


@settings(max_examples=30)
@given(p=st.integers(2, 9), data=st.data())
def test_heisenberg_blocks_match_dense_spectrum(p, data):
    rep = regular_representation(heisenberg_group(p))
    _assert_matches_dense(rep, _psi(data, rep.group))


def _symmetric_table(n):
    """S_n on the permutations of range(n) in lexicographic order: (a b)(i) = a(b(i))."""
    perms = np.array(list(itertools.permutations(range(n))))
    weights = n ** np.arange(n)[::-1]
    return np.searchsorted(perms @ weights, perms[:, perms] @ weights)


# Tables whose identity is element 0, and a relabelling moves it.
_TABLES = {
    "S4": lambda: _symmetric_table(4),
    "S5": lambda: _symmetric_table(5),
    **{f"AGL(1,{p})": lambda p=p: affine_table(p) for p in (2, 3, 5, 7, 11, 13)},
    "Z4xZ6": lambda: make_abelian_group([4, 6]).table,
}


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(_TABLES)), data=st.data())
def test_relabelled_table_blocks_match_dense_spectrum(name, data):
    table = _TABLES[name]()
    perm = data.draw(st.permutations(range(len(table))).filter(lambda p: p[0] != 0), label="perm")
    group = make_group_from_table(relabelled(table, np.array(perm)))
    assert group.identity == perm[0]
    rep = regular_representation(group)
    _assert_matches_dense(rep, _psi(data, group))


# agl13.json is written by the parse fixture: AGL(1,13), order 156,
# relabelled so that its identity is not element 0.
_BLOCK_SPECS = (
    "regular:Z72", "regular:Z2xZ6xZ8", "regular:Z5xZ13", "regular:D33", "regular:D40",
    "regular:H5", "regular:table:agl13.json",
)


@pytest.fixture(scope="module")
def spelled(tmp_path_factory):
    """Each spec with its table: path read from a folder that holds agl13.json."""
    folder = tmp_path_factory.mktemp("tables")
    table = affine_table(13)
    table = relabelled(table, np.random.default_rng(9).permutation(len(table)))
    (folder / "agl13.json").write_text(json.dumps({"table": table.tolist()}))
    return lambda spec: spec.replace("table:", f"table:{folder}/")


@pytest.fixture(scope="module")
def parse(spelled):
    return lambda spec: parse_rep_spec(spelled(spec))


def _recorded_rows(monkeypatch):
    """The sizes of the element arrays that UnitaryRepresentation.rows is asked for."""
    sizes, rows = [], UnitaryRepresentation.rows

    def recording(self, elements):
        sizes.append(np.size(elements))
        return rows(self, elements)

    monkeypatch.setattr(UnitaryRepresentation, "rows", recording)
    return sizes


@pytest.mark.parametrize("rows_per_block", [None, 5])
@pytest.mark.parametrize("spec", [*_BLOCK_SPECS, "shift:72,2", "gabor:9,8"])
def test_block_route_reads_rows_not_the_cached_action(spec, rows_per_block, parse, monkeypatch):
    # The block route and correlation_function gather the orbit from
    # rep.rows a block of rows at a time; in blocks of any size they report
    # the same bits, and at 5 rows per block no larger gather is made.
    rep = parse(spec)
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    want = analyze_orbit(OrbitSystem(rep, psi)).to_json_dict()
    kernel = correlation_function(rep, psi, psi).values
    sizes = _recorded_rows(monkeypatch)
    if rows_per_block is not None:
        monkeypatch.setattr(representations, "_LAW_BATCH_ENTRIES", rows_per_block * rep.dim)
    assert analyze_orbit(OrbitSystem(rep, psi)).to_json_dict() == want
    assert correlation_function(rep, psi, psi).values.tobytes() == kernel.tobytes()
    assert max(sizes) <= (rep.group.order if rows_per_block is None else rows_per_block)


def test_bracket_gathers_the_orbit_a_block_at_a_time(tmp_path, capsys, monkeypatch):
    # regular:D1024 has order and dimension 2048: four blocks of 512 rows
    # hold about 2^20 entries each, and no gather reads every element.
    path = tmp_path / "psi.json"
    psi = np.random.default_rng(13).standard_normal(2048)
    path.write_text(json.dumps({"values": pairs_from_complex(psi)}))
    sizes = _recorded_rows(monkeypatch)
    assert cli.main(["bracket", "--rep", "regular:D1024", "--psi", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "operator_kernel"
    assert sizes and max(sizes) <= 512


@pytest.mark.parametrize("spec", _BLOCK_SPECS)
def test_block_route_agrees_with_dense_route(spec, parse, monkeypatch):
    rep = parse(spec)
    assert rep.group.order > BLOCK_SPECTRUM_ORDER
    rng = np.random.default_rng(7)
    f = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    verdicts = set()
    for psi in (f, _right_invariant(rep.group, f, rep.group.order - 1)):
        blocks = analyze_orbit(OrbitSystem(rep, psi))
        monkeypatch.setattr(frames, "BLOCK_SPECTRUM_ORDER", 10**9)
        dense = analyze_orbit(OrbitSystem(rep, psi))
        monkeypatch.undo()
        lam = float(dense.gram_spectrum[-1])
        assert blocks.verdict == dense.verdict
        assert blocks.kernel_dim == dense.kernel_dim
        assert np.abs(blocks.gram_spectrum - dense.gram_spectrum).max() <= 1e-12 * lam
        for got, want in ((blocks.riesz_bounds, dense.riesz_bounds),
                          (blocks.frame_bounds, dense.frame_bounds)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * lam)
        assert blocks.route_agreement.keys() == dense.route_agreement.keys()
        assert max(blocks.route_agreement.values()) < 1e-12
        verdicts.add(blocks.verdict)
    assert verdicts == {"riesz", "frame_not_riesz"}


def _refuse_dense_operators(monkeypatch):
    """Make every dense convolution matrix and its hermitized eigensolve raise."""

    def refuse(*_args):
        raise AssertionError("bracket built a dense operator above the block order")

    for module in (frames, vnalgebra):
        monkeypatch.setattr(module, "_convolution_matrices", refuse)
        monkeypatch.setattr(module, "_hermitian_spectrum", refuse)


@pytest.mark.parametrize("spec", ["regular:D40", "regular:H5", "regular:table:agl13.json"])
def test_bracket_takes_the_block_spectrum_above_the_dense_orders(
    spec, spelled, tmp_path, capsys, monkeypatch
):
    # bracket on a group with no multiplier transform reports the spectrum
    # of the kernel's blocks, as analyze does, and builds no dense operator.
    rep = parse_rep_spec(spelled(spec))
    assert rep.group.factors is None and rep.group.order > BLOCK_SPECTRUM_ORDER
    rng = np.random.default_rng(12)
    psi = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"values": pairs_from_complex(psi)}))
    _refuse_dense_operators(monkeypatch)
    assert cli.main(["bracket", "--rep", spelled(spec), "--psi", str(path)]) == 0
    got = np.array(json.loads(capsys.readouterr().out)["spectrum"])
    monkeypatch.undo()
    dense = _hermitian_spectrum(bracket_operator(rep, psi, psi).matrix)
    assert np.abs(got - dense).max() <= 1e-12 * dense[-1]


def test_bracket_oracle_takes_no_eigensolve_above_the_dense_orders(
    tmp_path, capsys, monkeypatch
):
    # The regular: oracle reads |psi^|^2 over the invariant factors: on a
    # cyclic product of order 72 that takes no dense operator and no eigvalsh.
    rng = np.random.default_rng(14)
    psi = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"values": pairs_from_complex(psi)}))
    _refuse_dense_operators(monkeypatch)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle took an eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert cli.main(["bracket", "--oracle", "--rep", "regular:Z2xZ36", "--psi", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] <= 1e-12


@pytest.mark.parametrize("spec", ["regular:Z2xZ48", "regular:Z200"])
def test_bracket_oracle_flags_a_scaled_fft(spec, tmp_path, capsys, monkeypatch):
    # The multiplier is linear in its fftn and the classical bracket
    # |psi^|^2 is read without it, so a scaled fftn moves them apart.
    rep = parse_rep_spec(spec)
    psi = np.random.default_rng(4).standard_normal(rep.dim)
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"values": pairs_from_complex(psi)}))
    argv = ["bracket", "--oracle", "--rep", spec, "--psi", str(path)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] <= 1e-12
    fftn = abelian.np.fft.fftn
    monkeypatch.setattr(abelian.np.fft, "fftn", lambda *a, **k: fftn(*a, **k) * (1 + 1e-6))
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] > 1e-9


def test_bracket_oracle_flags_a_rolled_fftn(tmp_path, capsys, monkeypatch):
    # Characters mislabelled inside fftn move the multiplier but not the
    # oracle's |psi^|^2, which takes np.fft.fft one axis at a time.
    psi = np.random.default_rng(4).standard_normal(96)
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"values": pairs_from_complex(psi)}))
    argv = ["bracket", "--oracle", "--rep", "regular:Z2xZ48", "--psi", str(path)]
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: np.roll(fftn(*a, **k), 1, axis=-1))
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] > 1e-6


@pytest.mark.parametrize(
    "spec,calls", [("regular:Z72", 0), ("regular:Z2xZ6xZ8", 0), ("regular:D40", 1)]
)
def test_block_route_skips_dense_eigensolves(spec, calls, monkeypatch):
    rep = parse_rep_spec(spec)
    psi = np.random.default_rng(1).standard_normal(rep.dim)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    analyze_orbit(OrbitSystem(rep, psi))
    assert len(seen) == calls
    assert all(shape[-2:] == (2, 2) for shape in seen)


def test_block_route_flags_a_broken_representation():
    rep = parse_rep_spec("regular:D40")
    phase = rep.rows(np.arange(rep.group.order))[1].copy()
    phase[np.arange(1, rep.group.order)] *= 1j  # not a representation any more
    phase.setflags(write=False)
    broken = faulty_rows(rep, phase=phase)
    psi = np.random.default_rng(2).standard_normal(rep.dim)
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["bracket"] < 1e-12
    assert analyze_orbit(OrbitSystem(broken, psi)).route_agreement["bracket"] > 1e-3


@pytest.mark.parametrize("corrupt", ["negate", "spread"])
def test_block_route_checks_the_moments_of_its_spectrum(corrupt, monkeypatch):
    # Negating one eigenvalue keeps the sum of squares but not the trace;
    # spreading two apart keeps the trace but not the Frobenius norm.  D<n>
    # has no scalar route to catch either.
    rep = parse_rep_spec("regular:D40")
    psi = np.random.default_rng(3).standard_normal(rep.dim)

    def corrupted(kernel):
        w = block_spectrum(kernel).copy()
        if corrupt == "negate":
            w[w.size // 2] *= -1
        else:
            w[0] -= 1e-6 * w[-1]
            w[-1] += 1e-6 * w[-1]
        return np.sort(w)

    monkeypatch.setattr(frames, "block_spectrum", corrupted)
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["bracket"] > 1e-8


@pytest.mark.parametrize("spec", ["regular:Z2xZ48", "regular:Z200"])
def test_scalar_route_flags_a_scaled_block_spectrum(spec, monkeypatch):
    rep = parse_rep_spec(spec)
    psi = np.random.default_rng(4).standard_normal(rep.dim)
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["scalar"] <= 1e-12
    monkeypatch.setattr(frames, "block_spectrum", lambda kernel: block_spectrum(kernel) * (1 + 1e-6))
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["scalar"] > 1e-9


def _refuse_character_tables(monkeypatch) -> None:
    """Make character_table, the one builder of character values, raise."""

    def refuse(group):
        raise AssertionError(f"the character table of {group.spec} was built")

    for module in (groups, abelian, frames, cli):
        monkeypatch.setattr(module, "character_table", refuse, raising=False)


@pytest.mark.parametrize("spec", ["regular:Z1024", "regular:Z2xZ48"])
def test_block_route_builds_no_character_table(spec, monkeypatch):
    _refuse_character_tables(monkeypatch)
    rep = parse_rep_spec(spec)
    psi = np.random.default_rng(5).standard_normal(rep.dim)
    assert analyze_orbit(OrbitSystem(rep, psi)).route_agreement["scalar"] <= 1e-12


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("spec", ["regular:Z1024", "regular:Z2xZ48", "shift:2048,2", "gabor:10,12"])
def test_bracket_builds_no_character_table(spec, fmt, oracle, tmp_path, capsys, monkeypatch):
    # The multiplier and the oracle's classical bracket are both FFTs of
    # their own input; no character value is formed.
    rep = parse_rep_spec(spec)
    psi = np.random.default_rng(5).standard_normal(rep.dim)
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"values": pairs_from_complex(psi)}))
    _refuse_character_tables(monkeypatch)
    argv = ["bracket", *oracle, "--rep", spec, "--psi", str(path), "--format", fmt]
    assert cli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec",
    ["regular:Z4096", "regular:Z64xZ64", "regular:D2048", "regular:H16", "shift:2048,2",
     "gabor:64,64"],
)
def test_block_route_at_the_cap_peaks_below_two_orbits(spec):
    # A whole (order, dim) complex orbit takes 256 MiB at order and dim
    # 4096, and a character table would add 384 MiB more.  The block route
    # gathers the orbit about 2^20 entries at a time.
    rep = parse_rep_spec(spec)
    psi = np.random.default_rng(6).standard_normal(rep.dim)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = analyze_orbit(OrbitSystem(rep, psi))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert max(report.route_agreement.values()) <= 1e-12
    assert ("scalar" in report.route_agreement) == (rep.group.factors is not None)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("spec", ["regular:Z4", "regular:D5", *_BLOCK_SPECS])
@given(data=st.data())
def test_verdict_is_invariant_under_translating_psi(spec, parse, data):
    rep = parse(spec)
    psi = _psi(data, rep.group)
    g = data.draw(st.integers(0, rep.group.order - 1), label="g")
    moved = orbit_rows(OrbitSystem(rep, psi))[g]
    base = analyze_orbit(OrbitSystem(rep, psi))
    other = analyze_orbit(OrbitSystem(rep, moved))
    lam = float(base.gram_spectrum[-1])
    assert other.verdict == base.verdict
    assert other.kernel_dim == base.kernel_dim
    assert np.abs(other.gram_spectrum - base.gram_spectrum).max() <= 1e-12 * lam


def _invariant_under(rep, f, h):
    """Sum of U(h^j) f over the powers of h: U(h) fixes it.

    U(g h) then moves it as U(g) does, so its orbit repeats itself and the
    Gram matrix has a kernel.
    """
    rows = orbit_rows(OrbitSystem(rep, f))
    psi, x = np.zeros_like(f), rep.group.identity
    while True:
        psi += rows[x]
        x = rep.group.table[x, h]
        if x == rep.group.identity:
            return psi


def _assert_block_routes_match_dense_routes(rep, psi):
    orbit = OrbitSystem(rep, psi)
    assert frames._uses_blocks(rep.group)
    w_blocks, blocks = frames._block_routes(orbit)
    w_dense, dense = frames._dense_routes(orbit)
    verdict, _, _, kernel_dim, _ = frames._verdict_from_spectrum(w_blocks, 1e-10)
    want, _, _, want_kernel_dim, _ = frames._verdict_from_spectrum(w_dense, 1e-10)
    assert (verdict, kernel_dim) == (want, want_kernel_dim)
    assert np.abs(w_blocks - w_dense).max() <= 1e-12 * w_dense[-1]
    assert blocks.keys() == dense.keys() == {"bracket", "scalar"}
    assert max(blocks.values()) <= 1e-12
    return verdict


@st.composite
def _model_specs(draw):
    """A shift or gabor spec whose group order lies in (64, 256]."""
    if draw(st.booleans()):
        return f"shift:{draw(st.integers(65, 256))},{draw(st.integers(1, 4))}"
    l = draw(st.integers(2, 128))
    m = draw(st.integers(max(2, 65 // l + 1), max(2, 256 // l)))
    return f"gabor:{l},{m}"


def _model_psi(data, rep):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    h = data.draw(st.integers(0, rep.group.order - 1), label="h")
    return _invariant_under(rep, f, h)


@settings(max_examples=40, deadline=None)
@given(spec=_model_specs(), data=st.data())
def test_shift_and_gabor_block_routes_match_dense_routes(spec, data):
    rep = parse_rep_spec(spec)
    assert 64 < rep.group.order <= 256
    _assert_block_routes_match_dense_routes(rep, _model_psi(data, rep))


@pytest.mark.parametrize("spec", ["shift:512,2", "gabor:32,32"])
def test_large_shift_and_gabor_orbits_match_dense_routes(spec):
    rep = parse_rep_spec(spec)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    verdicts = {
        _assert_block_routes_match_dense_routes(rep, psi)
        for psi in (f, _invariant_under(rep, f, 2))
    }
    assert verdicts == {"riesz", "frame_not_riesz"}


# Builtins of order 8 to 64 whose direct products of order 256 to 2048 are
# passed on as tables, so their blocks come from a searched layout.
_SMALL_ORDERS = {
    spec: groups.make_builtin_group(spec).order
    for spec in (
        "Z8", "Z16", "Z32", "Z64", "Z3xZ9", "Z5xZ7", "D4", "D8", "D12", "D16", "D32", "H2", "H3", "H4",
    )
}
_PRODUCTS = [
    (s1, s2)
    for s1, s2 in itertools.product(_SMALL_ORDERS, repeat=2)
    if 256 <= _SMALL_ORDERS[s1] * _SMALL_ORDERS[s2] <= 2048
]


@settings(max_examples=8, deadline=None)
@given(specs=st.sampled_from(_PRODUCTS), data=st.data())
def test_tensor_product_blocks_match_the_factors_dense_spectra(specs, data):
    # The orbit of psi1 (x) psi2 under G1 x G2 has the Kronecker product of
    # the factors' Gram matrices as its Gram matrix.
    g1, g2 = (groups.make_builtin_group(s) for s in specs)
    n2 = g2.order
    table = (g1.table[:, None, :, None] * n2 + g2.table[None, :, None, :]).reshape(
        g1.order * n2, -1
    )  # index g1 * |G2| + g2
    group = make_group_from_table(table)
    spectra = []
    for factor in (g1, g2):
        rep = regular_representation(factor)
        psi = _psi(data, factor)
        synthesis = orbit_matrix(OrbitSystem(rep, psi))
        spectra.append((psi, np.linalg.eigvalsh(gram_matrix(vector_system(synthesis)))))
    (psi1, w1), (psi2, w2) = spectra
    want = np.sort(np.outer(w1, w2).ravel())
    got = analyze_orbit(OrbitSystem(regular_representation(group), np.kron(psi1, psi2)))
    assert group.order > BLOCK_SPECTRUM_ORDER
    assert np.abs(got.gram_spectrum - want).max() <= 1e-12 * want[-1]
