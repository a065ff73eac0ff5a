"""Command line behavior: formats, exit codes, determinism, file parsing."""

import importlib
import json
import os
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import framelab
from framelab.cli import main
from framelab.io import dump_json, load_generator, pairs_from_complex, spectrum_csv, values_csv
from framelab import NonFiniteResultError, ParseError, make_abelian_group


def _write_psi(tmp_path, values, name="psi.json"):
    path = tmp_path / name
    payload = {"values": [[float(np.real(v)), float(np.imag(v))] for v in values]}
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- generator io


def test_load_generator_json_and_csv(tmp_path):
    jpath = tmp_path / "g.json"
    jpath.write_text('{"dim": 2, "values": [[1.0, 0.0], [0.5, -1.0]]}')
    np.testing.assert_allclose(load_generator(jpath), [1.0, 0.5 - 1.0j])

    cpath = tmp_path / "g.csv"
    cpath.write_text("# one re,im pair per line\n1.0,0.0\n\n0.5,-1.0\n")
    np.testing.assert_allclose(load_generator(cpath), [1.0, 0.5 - 1.0j])


@pytest.mark.parametrize(
    "content",
    [
        "not json at all {",
        '{"values": "nope"}',
        '{"values": [[1.0]]}',
        '{"dim": 3, "values": [[1.0, 0.0]]}',
        '{"values": []}',
        '{"values": [["1", 0], [0.5, 0]]}',
        '{"values": [[true, 0], [0.5, 0]]}',
        '{"values": [[1.0, false]]}',
        '{"values": ["12"]}',
        '{"values": [[1%s, 0]]}' % ("0" * 400),
        '{"dim": "2", "values": [[1.0, 0.0], [0.5, 0.0]]}',
        '{"dim": true, "values": [[1.0, 0.0]]}',
        '{"dim": 1.5, "values": [[1.0, 0.0]]}',
        '{"values": %s}' % ("[" * 100000),
    ],
)
def test_load_generator_rejects_bad_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(ParseError):
        load_generator(path)


def test_load_generator_rejects_bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n")
    with pytest.raises(ParseError):
        load_generator(path)
    path.write_text("1.0,abc\n")
    with pytest.raises(ParseError):
        load_generator(path)
    path.write_text("# only comments\n")
    with pytest.raises(ParseError):
        load_generator(path)
    with pytest.raises(ParseError):
        load_generator(tmp_path / "missing.csv")


def test_load_generator_accepts_integral_numbers(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"dim": 2.0, "values": [[1, 0], [0.5, -2]]}')
    np.testing.assert_array_equal(load_generator(path), [1.0, 0.5 - 2.0j])


@pytest.mark.parametrize("name", ["psi.csv", "psi.json"])
def test_load_generator_rejects_non_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="cannot read"):
        load_generator(path)


def test_csv_headers_are_stable():
    assert values_csv(np.array([2.25 + 0j])).splitlines()[0] == "index,re,im"
    assert spectrum_csv(np.array([1.0])).splitlines()[0] == "eig_index,value"


def test_dump_json_is_sorted_and_newline_terminated():
    text = dump_json({"b": 1, "a": [1.5]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_dump_json_refuses_non_finite_numbers():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteResultError):
            dump_json({"a": [1.0, bad]})


def _reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_numbers = st.one_of(
    st.integers(-(10**20), 10**20),
    _finite,
    st.sampled_from([-0.0, 5e-324, 1e16, -1e16, 1e-7, 2.0**53 + 2]),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _numbers,
    _finite.map(np.float64),
    st.text(max_size=6),
)
# Equal-length number rows (pair lists among them), ragged rows and empty rows.
_rows = st.one_of(
    st.integers(0, 3).flatmap(
        lambda w: st.lists(st.lists(_numbers, min_size=w, max_size=w), max_size=5)
    ),
    st.lists(st.lists(_numbers, max_size=3), max_size=4),
)
_trees = st.recursive(
    st.one_of(_leaves, st.lists(_numbers, max_size=6), _rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@given(st.dictionaries(st.text(max_size=8), _trees, max_size=6))
def test_dump_json_writes_the_bytes_of_json_dumps(payload):
    assert dump_json(payload) == _reference_json(payload)


@given(_trees)
def test_dump_json_writes_any_top_level_value_like_json_dumps(value):
    assert dump_json(value) == _reference_json(value)


def test_dump_json_edge_values_match_json_dumps():
    payloads = [
        {"a": [], "b": {}, "c": [[]], "d": [[], []], "e": [[1.0], [2, 3]]},
        {"pairs": [[-0.0, 5e-324], [1e16, -1e-300]], "flat": [True, 1, 2.5]},
        {"é": "ü\u2603", "nested": {"z": [[1, 2], [3, 4]], "a": [{"k": [0.1]}]}},
        {"tuple": (1, 2.0), "rows": [(1, 2), (3, 4)], "np": [np.float64(0.1)]},
        {"values": pairs_from_complex(np.array([1 + 2j, -0.0 - 0.0j, 3e-310j]))},
    ]
    for payload in payloads:
        assert dump_json(payload) == _reference_json(payload)


@given(
    _trees,
    st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("nan")]),
    st.lists(st.sampled_from(["list", "row", "dict"]), max_size=4),
)
def test_dump_json_refuses_non_finite_numbers_anywhere(payload, bad, path):
    value = bad
    for step in path:
        if step == "list":
            value = [1.5, value, 2]
        elif step == "row":
            value = [[1.5, value], [2.5, 3.5]]
        else:
            value = {"k": value}
    with pytest.raises(NonFiniteResultError):
        dump_json({"payload": payload, "bad": value})


def test_pairs_from_complex_keeps_every_bit():
    values = np.array([1 + 2j, -0.0 + 0.0j, 0.0 - 0.0j, 5e-324 - 1e308j])
    pairs = pairs_from_complex(values)
    assert pairs == [[float(v.real), float(v.imag)] for v in values]
    assert [str(x) for row in pairs for x in row] == [
        repr(float(x)) for v in values for x in (v.real, v.imag)
    ]
    assert all(type(x) is float for row in pairs for x in row)
    assert pairs_from_complex(values[::2]) == pairs[::2]


# ------------------------------------------------------------------- analyze


def test_analyze_worked_example(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    code, out, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", psi)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "frame-lab/1"
    assert payload["command"] == "analyze"
    assert payload["verdict"] == "riesz"
    assert payload["riesz_bounds"] == pytest.approx([0.25, 2.25])
    assert payload["spectrum"] == pytest.approx([0.25, 1.25, 1.25, 2.25])
    assert payload["routes"]["bracket"] < 1e-12
    assert payload["routes"]["scalar"] < 1e-12


def test_analyze_rank_deficient_example(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 1.0])
    code, out, _ = run_cli(capsys, "analyze", "--rep", "regular:Z2", "--psi", psi)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "frame_not_riesz"
    assert payload["riesz_bounds"] is None
    assert payload["frame_bounds"] == pytest.approx([4.0, 4.0])
    assert payload["kernel_dim"] == 1


def test_analyze_csv_spectrum(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    code, out, _ = run_cli(
        capsys, "analyze", "--rep", "regular:Z4", "--psi", psi, "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eig_index,value"
    assert len(lines) == 5
    first_index, first_value = lines[1].split(",")
    assert first_index == "0"
    assert float(first_value) == pytest.approx(0.25)


def test_analyze_writes_file(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", "--rep", "regular:Z4", "--psi", psi, "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["verdict"] == "riesz"


def test_analyze_byte_identical_reruns(tmp_path, capsys):
    rng = np.random.default_rng(0)
    psi = _write_psi(tmp_path, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    args = ("analyze", "--rep", "gabor:3,2", "--psi", psi, "--seed", "0")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ------------------------------------------------------------------- bracket


def test_bracket_json_with_oracle(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    code, out, _ = run_cli(
        capsys, "bracket", "--rep", "regular:Z4", "--psi", psi, "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "dual_function"
    values = [complex(re, im) for re, im in payload["values"]]
    assert values == pytest.approx([2.25, 1.25, 0.25, 1.25])
    assert payload["oracle_deviation"] < 1e-12


def test_bracket_csv_row_values(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    code, out, _ = run_cli(
        capsys, "bracket", "--rep", "regular:Z4", "--psi", psi, "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,re,im"
    assert lines[1] == "0,2.25,0.0"


@pytest.mark.parametrize("rep,dim", [("shift:4,2", 8), ("gabor:2,3", 6)])
def test_bracket_oracle_on_models(tmp_path, capsys, rep, dim):
    rng = np.random.default_rng(11)
    psi = _write_psi(
        tmp_path, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    )
    code, out, _ = run_cli(capsys, "bracket", "--rep", rep, "--psi", psi, "--oracle")
    assert code == 0
    assert json.loads(out)["oracle_deviation"] < 1e-9


def test_bracket_nonabelian_fallback(tmp_path, capsys):
    rng = np.random.default_rng(13)
    psi = _write_psi(tmp_path, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    code, out, err = run_cli(capsys, "bracket", "--rep", "regular:D4", "--psi", psi)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "operator_kernel"
    assert len(payload["kernel"]) == 8
    assert len(payload["spectrum"]) == 8
    assert "abelian" in err


def test_bracket_oracle_parses_the_spec_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = framelab.cli.parse_rep_spec

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(framelab.cli, "parse_rep_spec", counted)
    psi = _write_psi(tmp_path, np.arange(1.0, 13.0))
    code, out, _ = run_cli(
        capsys, "bracket", "--rep", "regular:Z3xZ4", "--psi", psi, "--oracle"
    )
    assert code == 0
    assert json.loads(out)["oracle_deviation"] < 1e-12
    assert len(calls) == 1


def _z2xz2_table(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"table": make_abelian_group([2, 2]).table.tolist()}))
    return f"regular:table:{path}"


_NO_COORDINATES = ("cyclic-product coordinates", "group has no cyclic-product coordinates")
_NOT_ABELIAN = ("an abelian group", "group is not abelian")


@pytest.mark.parametrize(
    "rep,wording",
    [("regular:D2", _NO_COORDINATES), ("klein", _NO_COORDINATES), ("regular:D3", _NOT_ABELIAN)],
)
def test_bracket_kernel_fallback_notice(tmp_path, capsys, rep, wording):
    needs, skipped = wording
    if rep == "klein":
        rep = _z2xz2_table(tmp_path)
    group_order = 6 if rep == "regular:D3" else 4
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.25] + [0.0] * (group_order - 3))
    code, out, err = run_cli(capsys, "bracket", "--rep", rep, "--psi", psi)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "operator_kernel"
    assert payload["notice"] == f"multiplier transform skipped: {skipped}"
    assert err == (
        f"notice: the multiplier transform needs {needs}; "
        "emitting the operator kernel and spectrum instead\n"
    )


def test_bracket_nonabelian_csv_writes_spectrum_sidecar(tmp_path, capsys):
    rng = np.random.default_rng(17)
    psi = _write_psi(tmp_path, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    out_path = tmp_path / "kernel.csv"
    code, _, _ = run_cli(
        capsys,
        "bracket",
        "--rep",
        "regular:D4",
        "--psi",
        psi,
        "--format",
        "csv",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "index,re,im"
    sidecar = tmp_path / "kernel.spectrum.csv"
    assert sidecar.read_text().splitlines()[0] == "eig_index,value"


# -------------------------------------------------------------------- verify


def test_verify_default_suite(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--groups",
        "Z4,D4",
        "--samples",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["groups"] == ["Z4", "D4"]


_SKIPPED = "multiplier, support, and sandwich checks skipped"


@pytest.mark.parametrize(
    "groups,notice",
    [
        (
            "D2",
            "the multiplier transform needs cyclic-product coordinates, "
            f"which no given group has: {_SKIPPED}",
        ),
        ("D3,H3", f"no abelian groups given: {_SKIPPED}"),
    ],
)
def test_verify_notice_names_what_the_groups_lack(capsys, groups, notice):
    code, out, _ = run_cli(capsys, "verify", "--groups", groups, "--samples", "2")
    assert code == 0
    assert json.loads(out)["notices"] == [notice]


def test_verify_inject_fault_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--groups", "Z4", "--samples", "4", "--inject-fault"
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_byte_identical_reruns(capsys):
    args = ("verify", "--groups", "Z4,Z2xZ2", "--samples", "4", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------- exit codes


def test_exit_code_parse_failures(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.0])
    assert run_cli(capsys, "analyze", "--rep", "regular:Q8", "--psi", psi)[0] == 2
    assert run_cli(capsys, "analyze", "--rep", "noidea", "--psi", psi)[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(capsys, "analyze", "--rep", "regular:Z2", "--psi", str(bad))[0] == 2


def test_exit_code_dim_mismatch(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.0, 0.0])
    code, _, err = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", psi)
    assert code == 3
    assert "length" in err or "dim" in err


def test_exit_code_zero_generator(tmp_path, capsys):
    psi = _write_psi(tmp_path, [0.0, 0.0, 0.0, 0.0])
    code, _, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", psi)
    assert code == 4


def test_tiny_generator_is_classified_like_its_unit_scale(tmp_path, capsys):
    values = np.array([1.0, 0.5, 0.2, 0.0])
    unit = _write_psi(tmp_path, values, name="unit.json")
    tiny = _write_psi(tmp_path, values * 1e-13, name="tiny.json")
    code, out, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", unit)
    assert code == 0 and json.loads(out)["verdict"] == "riesz"
    code, out, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", tiny)
    assert code == 0 and json.loads(out)["verdict"] == "riesz"


def test_env_var_caps_group_order(tmp_path, capsys, monkeypatch):
    psi = _write_psi(tmp_path, [1.0] + [0.0] * 47)
    monkeypatch.setenv("FRAME_LAB_MAX_ORDER", "16")
    code, _, err = run_cli(capsys, "analyze", "--rep", "regular:Z48", "--psi", psi)
    assert code == 2
    assert "16" in err
    monkeypatch.setenv("FRAME_LAB_MAX_ORDER", "banana")
    code, _, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", psi)
    assert code == 2


def test_custom_table_group_through_cli(tmp_path, capsys):
    table = tmp_path / "z2.json"
    table.write_text('{"table": [[0, 1], [1, 0]]}')
    psi = _write_psi(tmp_path, [1.0, 0.5])
    code, out, _ = run_cli(
        capsys, "analyze", "--rep", f"regular:table:{table}", "--psi", psi
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "riesz"


# ------------------------------------------------------- rejected inputs


def _assert_clean_parse_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_generator_exits_2(tmp_path, capsys, value):
    path = tmp_path / "psi.json"
    path.write_text(f'{{"values": [[1.0, 0.0], [{value}, 0.0]]}}')
    code, out, err = run_cli(capsys, "analyze", "--rep", "regular:Z2", "--psi", str(path))
    _assert_clean_parse_error(code, err)
    assert out == ""
    assert "generator file" in err and "non-finite" in err


def test_non_finite_csv_generator_exits_2(tmp_path, capsys):
    path = tmp_path / "psi.csv"
    path.write_text("1.0,0.0\n0.0,nan\n")
    code, _, err = run_cli(capsys, "bracket", "--rep", "regular:Z2", "--psi", str(path))
    _assert_clean_parse_error(code, err)
    assert "generator file" in err and "non-finite" in err


@pytest.mark.parametrize("token", ["1_0", "1_000.5", "1e1_0", "\u0661"])
def test_csv_number_with_underscore_or_non_ascii_digit_exits_2(tmp_path, capsys, token):
    # float() reads "1_0" as 10.0 and "\u0661" (Arabic-Indic one) as 1.0.
    path = tmp_path / "psi.csv"
    path.write_text(f"{token},0\n0,0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "bracket", "--rep", "regular:Z2", "--psi", str(path))
    _assert_clean_parse_error(code, err)
    assert out == ""
    assert "line 1: bad number" in err


@pytest.mark.parametrize("dim", ['"four"', "[2]", "Infinity"])
def test_non_integer_dim_exits_2(tmp_path, capsys, dim):
    path = tmp_path / "psi.json"
    path.write_text(f'{{"dim": {dim}, "values": [[1.0, 0.0], [0.5, 0.0]]}}')
    code, _, err = run_cli(capsys, "analyze", "--rep", "regular:Z2", "--psi", str(path))
    _assert_clean_parse_error(code, err)
    assert "dim" in err


def test_non_utf8_generator_and_table_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "analyze", "--rep", "regular:Z2", "--psi", str(bad))
    _assert_clean_parse_error(code, err)
    assert out == "" and "generator file" in err
    psi = _write_psi(tmp_path, [1.0, 0.0])
    table = tmp_path / "table.json"
    table.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(
        capsys, "analyze", "--rep", f"regular:table:{table}", "--psi", psi
    )
    _assert_clean_parse_error(code, err)
    assert out == "" and "table file" in err


@pytest.mark.parametrize(
    "rep,values",
    [
        ("regular:Z2", [1e155, 0.0]),
        ("regular:Z4", [1e200, 0.0, 0.0, 0.0]),
        ("regular:D4", [1e200] + [0.0] * 7),
        ("shift:4,2", [1e200] + [0.0] * 7),
        # The kernel fits, but its spectrum or multiplier (sums of 8 kernel
        # values) does not.
        ("regular:D4", [4.7e153] * 8),
        ("regular:Z8", [4.7e153] * 8),
    ],
)
@pytest.mark.parametrize(
    "command",
    [("analyze",), ("bracket",), ("bracket", "--oracle"), ("bracket", "--format", "csv")],
)
def test_overflowing_generator_exits_2(tmp_path, capsys, rep, values, command):
    psi = _write_psi(tmp_path, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, command[0], "--rep", rep, "--psi", psi, *command[1:]
        )
    _assert_clean_parse_error(code, err)
    assert out == ""
    assert "overflows a float" in err


def _seeded_complex(dim):
    rng = np.random.default_rng(11)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@pytest.mark.parametrize(
    "rep,values",
    [("regular:Z4", [1e200 + 1e200j, 0.0, 0.0, 0.0])]
    + [
        (rep, scale * _seeded_complex(8))
        for rep in ("regular:D4", "regular:Z8")
        for scale in (1e160, 1e200, 1e300)
    ],
)
def test_overflowing_complex_generator_exits_2(tmp_path, capsys, rep, values):
    # The squared norm of a complex generator this large reads NaN when it is
    # formed before scaling, which once passed for a zero generator.
    psi = _write_psi(tmp_path, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", "--rep", rep, "--psi", psi)
    _assert_clean_parse_error(code, err)
    assert out == ""
    assert "overflows a float" in err


@pytest.mark.parametrize("values", [[1e-160, 0.0, 0.0, 0.0], [1e-160j, 1e-170, 0.0, 0.0]])
def test_subnormal_norm_generator_exits_4(tmp_path, capsys, values):
    psi = _write_psi(tmp_path, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", psi)
    assert code == 4
    assert out == "" and err == "error: orbit generator is numerically zero\n"


@pytest.mark.parametrize("rep", ["regular:Z6000", "regular:D3000"])
def test_regular_over_the_dim_cap_exits_2(tmp_path, capsys, monkeypatch, rep):
    monkeypatch.setenv("FRAME_LAB_MAX_ORDER", "8192")
    psi = _write_psi(tmp_path, [1.0, 0.0])
    code, out, err = run_cli(capsys, "analyze", "--rep", rep, "--psi", psi)
    _assert_clean_parse_error(code, err)
    assert out == "" and "exceeds cap 4096" in err


def test_bracket_oracle_near_the_largest_float(tmp_path, capsys):
    # c(e) = 1.69e308 fits, but F + F* would not before halving.
    psi = _write_psi(tmp_path, [1.3e154, 0.0])
    code, out, err = run_cli(
        capsys, "bracket", "--rep", "regular:Z2", "--psi", psi, "--oracle"
    )
    assert code == 0, err
    assert json.loads(out)["oracle_deviation"] < 1e-15


def test_large_generator_that_fits_is_classified(tmp_path, capsys):
    values = np.array([1.0, 0.5, 0.2, 0.0])
    unit = _write_psi(tmp_path, values, name="unit.json")
    large = _write_psi(tmp_path, values * 2.0**500, name="large.json")
    code, out, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", unit)
    want = json.loads(out)
    code, out, _ = run_cli(capsys, "analyze", "--rep", "regular:Z4", "--psi", large)
    got = json.loads(out)
    assert code == 0
    assert got["verdict"] == want["verdict"] == "riesz"
    # A power-of-two scale is exact, so every value scales by 4^500 exactly.
    assert got["spectrum"] == [x * 2.0**1000 for x in want["spectrum"]]
    assert got["routes"] == want["routes"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_exits_2(tmp_path, capsys, tol):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    for argv in (
        ("analyze", "--rep", "regular:Z4", "--psi", psi),
        ("bracket", "--rep", "regular:Z4", "--psi", psi),
    ):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        _assert_clean_parse_error(code, err)
        assert out == ""
        assert "--tol" in err


@pytest.mark.parametrize("option", [("--tol", "1e-9"), ("--format", "csv")])
def test_verify_refuses_tol_and_format(capsys, option):
    # verify has no tolerance and always writes JSON.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--groups", "Z2", "--samples", "1", *option])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_running_out_of_memory_exits_2(capsys, monkeypatch):
    import framelab.cli as cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 1.56 GiB")

    monkeypatch.setattr(cli, "_cmd_verify", exhausted)
    code, out, err = run_cli(capsys, "verify", "--groups", "Z2", "--samples", "1")
    _assert_clean_parse_error(code, err)
    assert err == "error: not enough memory: Unable to allocate 1.56 GiB\n"
    assert out == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_too_few_samples(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--groups", "Z2", "--samples", samples)
    _assert_clean_parse_error(code, err)
    assert out == ""
    assert "--samples" in err


def test_verify_accepts_one_sample(capsys):
    code, out, _ = run_cli(capsys, "verify", "--groups", "Z2", "--samples", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


# ------------------------------------------------------------ console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
INSTALLED_SCRIPT = Path(sysconfig.get_path("scripts")) / "frame-lab"
VERIFY_ARGV = ("verify", "--groups", "Z2", "--samples", "2")


def _assert_verify_passes(command, **kwargs):
    proc = subprocess.run(
        [*command, *VERIFY_ARGV],
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True, proc.stderr


def test_console_script_entry_point():
    """The declared `frame-lab` script, run as its own program from this checkout.

    The child runs the `[project.scripts]` target the way pip's generated
    wrapper does, importing the same `framelab` as this test process.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["frame-lab"]
    assert target == "framelab.cli:main"
    module_name, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    package_root = str(Path(framelab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    _assert_verify_passes(
        [sys.executable, "-c", wrapper],
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.mark.skipif(
    not INSTALLED_SCRIPT.exists(),
    reason=f"{INSTALLED_SCRIPT} does not exist; `pip install -e .` writes it",
)
def test_installed_console_script():
    _assert_verify_passes([str(INSTALLED_SCRIPT)])


# ------------------------------------------------------------------- output files


def test_verify_refuses_an_output_file_in_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--samples", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output file {target}: ")
    assert "Traceback" not in err


def test_analyze_refuses_a_directory_as_output_file(tmp_path, capsys):
    psi = _write_psi(tmp_path, [1.0, 0.5, 0.0, 0.0])
    code, _, err = run_cli(
        capsys, "analyze", "--rep", "regular:Z4", "--psi", psi, "--out", str(tmp_path)
    )
    assert code == 2
    assert err.startswith(f"error: cannot write output file {tmp_path}: ")


def test_bracket_refuses_an_unwritable_spectrum_sidecar(tmp_path, capsys):
    rng = np.random.default_rng(4)
    psi = _write_psi(tmp_path, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    out_path = tmp_path / "kernel.csv"
    sidecar = tmp_path / "kernel.spectrum.csv"
    sidecar.mkdir()
    code, _, err = run_cli(
        capsys, "bracket", "--rep", "regular:D4", "--psi", psi,
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 2
    assert f"error: cannot write output file {sidecar}: " in err
    assert out_path.read_text().startswith("index,re,im\n")
