"""The periodization and Zak fast routes and the block-built model actions.

The stacked kernels must give each row the bits of the public per-signal
function and agree with the operator-route bracket on shapes beyond the ones
`verify` draws; the shift and gabor builders must give the sources and phases
of the remainder formulas they replaced, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import framelab.abelian as abelian
from framelab import (
    gabor_bracket_via_zak,
    gabor_representation,
    periodization_bracket,
    scalar_bracket,
    shift_model_representation,
)
from framelab.abelian import _periodization_values, _zak_values
from framelab.cli import _bracket_oracle
from framelab.representations import bracket_operator

# verify draws shift shapes up to (16, 8) and gabor shapes with l*m <= 36;
# these run past both.
_shift_shapes = st.tuples(st.integers(2, 40), st.integers(1, 12))
_gabor_shapes = st.tuples(st.integers(2, 24), st.integers(2, 24))


def _signals(seed: int, rows: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.int64)


def _relative_gap(fast: np.ndarray, oracle: np.ndarray) -> float:
    return float(np.abs(fast - oracle).max()) / max(1.0, float(np.abs(oracle).max()))


@given(_shift_shapes, st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_periodization_rows_match_the_public_route(shape, rows, seed):
    n, m = shape
    psis = _signals(seed, rows, n * m)
    stacked = _periodization_values(psis, n, m)
    rep = shift_model_representation(n, m)
    for row, psi in enumerate(psis):
        public = periodization_bracket(psi, n, m).values
        assert np.array_equal(_bits(stacked[row]), _bits(public))
        assert _relative_gap(public, scalar_bracket(rep, psi, psi).values) <= 1e-10


@given(_gabor_shapes, st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_zak_rows_match_the_public_route(shape, rows, seed):
    l, m = shape
    phis = _signals(seed, rows, l * m)
    psis = _signals(seed + 1, rows, l * m)
    psis[0] = phis[0]  # a self-bracket row
    stacked = _zak_values(phis, psis, l, m)
    rep = gabor_representation(l, m)
    for row, (phi, psi) in enumerate(zip(phis, psis)):
        public = gabor_bracket_via_zak(phi, psi, l, m).values
        assert np.array_equal(_bits(stacked[row]), _bits(public))
        assert _relative_gap(public, scalar_bracket(rep, phi, psi).values) <= 1e-10


def test_public_routes_keep_their_dual_function():
    psi = _signals(0, 1, 12)[0]
    shift = periodization_bracket(psi, 4, 3)
    gabor = gabor_bracket_via_zak(psi, psi, 4, 3)
    assert shift.group.factors == (4,)
    assert gabor.group.factors == (4, 3)
    for result in (shift, gabor):
        assert not result.values.flags.writeable


@given(_shift_shapes)
def test_shift_sources_equal_the_remainder_formula(shape):
    n, m = shape
    dim = n * m
    rep = shift_model_representation(n, m)
    want = (np.arange(dim) - m * np.arange(n)[:, None]) % dim
    src, _ = rep.rows(np.arange(rep.group.order))
    assert src.dtype == want.dtype and src.flags.c_contiguous
    assert np.array_equal(src, want)


@given(_gabor_shapes)
def test_gabor_action_equals_the_remainder_formulas(shape):
    l, m = shape
    dim = l * m
    rep = gabor_representation(l, m)
    roots = np.exp(-2j * np.pi * np.arange(dim) / dim)
    k, j = np.divmod(np.arange(dim)[:, None], m)
    x = np.arange(dim)
    src, phase = rep.rows(np.arange(rep.group.order))
    assert src.dtype == np.int64 and src.flags.c_contiguous
    assert phase.dtype == np.complex128 and phase.flags.c_contiguous
    assert np.array_equal(src, (x - m * k) % dim)
    assert np.array_equal(_bits(phase), _bits(roots[(l * j * x) % dim]))


@pytest.mark.parametrize("spec", [("shift", 60, 4), ("gabor", 10, 12), ("gabor", 20, 6)])
def test_bracket_oracle_builds_no_group(spec, monkeypatch):
    kind, a, b = spec
    if kind == "shift":
        rep = shift_model_representation(a, b)
    else:
        rep = gabor_representation(a, b)
    psi = _signals(3, 1, rep.dim)[0]
    op = bracket_operator(rep, psi, psi)
    values = abelian.lambda_multiplier(op).values

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built a group")

    monkeypatch.setattr(abelian, "make_abelian_group", refuse)
    assert _bracket_oracle(rep, psi, values) <= 1e-12
