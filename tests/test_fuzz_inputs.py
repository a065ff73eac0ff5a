"""Untrusted inputs end in a result or a typed FrameLabError, never a traceback.

Covers the three ways outside data enters the program: generator files,
representation spec strings and `table:` files.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framelab.representations as representations
from framelab import FrameLabError, group_from_spec, parse_rep_spec
from framelab.io import load_generator

# Small caps keep every accepted spec cheap to build.
_CAP = 64

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_json = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
# Things numpy or float() would coerce to a number, next to real numbers.
_numberish = (
    st.integers(-5, 5)
    | st.floats(-1e3, 1e3)
    | st.booleans()
    | st.sampled_from(["1", "0.5", "-2", " 3 ", "1e3"])
)
_pair_entries = st.lists(
    st.one_of(st.tuples(_numberish, _numberish).map(list), _json), max_size=4
)
_generator_payloads = st.one_of(
    _json,
    st.fixed_dictionaries(
        {"values": st.one_of(_pair_entries, _json)}, optional={"dim": _json}
    ),
)


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    """Write bytes to a file in a directory shared by one module's examples."""
    directory = tmp_path_factory.mktemp("fuzz")

    def write(name: str, data: bytes):
        path = directory / name
        path.write_bytes(data)
        return path

    return write


def _expect_result_or_typed_error(call):
    try:
        return call()
    except FrameLabError:
        return None


def _strict_numbers(values) -> bool:
    """True when values is a list of [re, im] pairs of JSON numbers."""
    return isinstance(values, list) and all(
        isinstance(pair, list)
        and len(pair) == 2
        and all(type(x) in (int, float) for x in pair)
        for pair in values
    )


@given(data=st.binary(max_size=64), suffix=st.sampled_from([".json", ".csv", ""]))
def test_load_generator_on_arbitrary_bytes(write, data, suffix):
    arr = _expect_result_or_typed_error(lambda: load_generator(write("g" + suffix, data)))
    if arr is not None:
        assert arr.dtype == np.complex128 and arr.ndim == 1 and arr.size >= 1
        assert np.isfinite(arr).all()


@given(payload=_generator_payloads)
def test_load_generator_on_json_shapes(write, payload):
    path = write("g.json", json.dumps(payload).encode())
    arr = _expect_result_or_typed_error(lambda: load_generator(path))
    if arr is not None:
        # Only numbers are accepted, so a string or boolean entry never
        # reaches the array.
        assert _strict_numbers(payload["values"])
        assert arr.shape == (len(payload["values"]),)
        assert np.isfinite(arr).all()


# Number-like tokens: digit-group underscores and non-ASCII digits, which
# float() reads, next to the characters of plain decimal numbers.
_csv_tokens = st.text(alphabet="0123456789_.eE+- \u0661\u00b2", max_size=8) | (
    st.sampled_from(["1_0", "1_000.5", "\u0661", "1e3", "-.5", "nan", "inf"])
)


@given(re_token=_csv_tokens, im_token=_csv_tokens)
def test_load_generator_on_csv_tokens(write, re_token, im_token):
    path = write("g.csv", f"{re_token},{im_token}\n".encode())
    arr = _expect_result_or_typed_error(lambda: load_generator(path))
    if arr is not None:
        for token in (re_token, im_token):
            assert "_" not in token and token.strip().isascii()
        assert arr.tolist() == [complex(float(re_token), float(im_token))]


_spec_heads = st.sampled_from(
    ["", "regular:", "shift:", "gabor:", "regular:table:"]
    + ["regular:Z", "regular:D", "regular:H"]
)
# Digits int() refuses ('²'), digits it reads ('٣') and a NUL next to the
# grammar's own characters.
_spec_tails = st.text(alphabet="0123456789xZDH,:.-+ ²٣\x00", max_size=12) | st.text(
    max_size=12
)


@settings(max_examples=300)
@given(head=_spec_heads, tail=_spec_tails)
def test_parse_rep_spec_on_arbitrary_strings(head, tail):
    # Patched here: hypothesis refuses the function-scoped monkeypatch fixture.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(representations, "DEFAULT_MAX_DIM", _CAP)
        rep = _expect_result_or_typed_error(
            lambda: parse_rep_spec(head + tail, max_order=_CAP)
        )
    if rep is not None:
        src, phase = rep.rows(np.arange(rep.group.order))
        assert src.shape == phase.shape == (rep.group.order, rep.dim)
        assert rep.group.order <= _CAP and rep.dim <= _CAP


_tables = st.one_of(
    _json,
    st.lists(
        st.lists(st.integers(-1, 4), min_size=1, max_size=4), min_size=1, max_size=4
    ),
    st.lists(
        st.lists(_json_scalars, min_size=2, max_size=2), min_size=2, max_size=2
    ),
)


@given(
    content=st.one_of(
        st.binary(max_size=32),
        _tables.map(lambda t: json.dumps(t).encode()),
        _tables.map(lambda t: json.dumps({"table": t}).encode()),
    )
)
def test_table_files_on_arbitrary_contents(write, content):
    path = write("table.json", content)
    group = _expect_result_or_typed_error(
        lambda: group_from_spec(f"table:{path}", max_order=_CAP)
    )
    if group is not None:
        n = group.order
        assert group.table.shape == (n, n)
        assert (group.table[group.identity] == np.arange(n)).all()
