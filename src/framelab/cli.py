"""Command line front end: analyze, bracket, and verify."""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .abelian import _periodization_values, _zak_values, lambda_multiplier
from .errors import (
    DimMismatchError,
    FrameLabError,
    GroupMismatchError,
    NonFiniteResultError,
    OutputWriteError,
    ParseError,
    ZeroGeneratorError,
)
from .frames import analyze_orbit
from .groups import DEFAULT_MAX_ORDER
from .io import SCHEMA, dump_json, load_generator, pairs_from_complex, spectrum_csv, values_csv
from .representations import OrbitSystem, bracket_operator, parse_rep_spec
from .verification import DEFAULT_GROUP_SPECS, run_verification_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DIM = 3
EXIT_ZERO = 4

_ORACLE_TOL = 1e-9


def _max_order() -> int:
    raw = os.environ.get("FRAME_LAB_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"FRAME_LAB_MAX_ORDER={raw!r} is not an integer")
    if value < 1:
        raise ParseError(f"FRAME_LAB_MAX_ORDER={raw!r} must be positive")
    return value


def _check_numeric_args(args) -> None:
    """Reject a tolerance or sample count under which a result means nothing."""
    if args.command == "verify":
        if args.samples < 1:
            raise ParseError(f"--samples must be at least 1, got {args.samples}")
    elif not (math.isfinite(args.tol) and args.tol > 0):
        raise ParseError(f"--tol must be positive and finite, got {args.tol!r}")


def _require_finite(values, what: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteResultError(f"{what} of this generator overflows a float")


def _write(text: str, out: str | None) -> None:
    if out:
        _write_file(Path(out), text)
    else:
        sys.stdout.write(text)


def _write_file(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except (OSError, ValueError) as exc:
        # ValueError covers a path holding a NUL.
        raise OutputWriteError(f"cannot write output file {path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    rep = parse_rep_spec(args.rep, max_order=_max_order())
    psi = load_generator(args.psi)
    report = analyze_orbit(OrbitSystem(rep, psi), tol=args.tol)
    if args.format == "csv":
        _write(spectrum_csv(report.gram_spectrum), args.out)
        return EXIT_OK
    payload = {
        "schema": SCHEMA,
        "command": "analyze",
        "rep": args.rep,
        "seed": args.seed,
        **report.to_json_dict(),
    }
    _write(dump_json(payload), args.out)
    return EXIT_OK


def _hermitian_spectrum(op) -> np.ndarray:
    """Eigenvalues of the hermitized operator matrix (F + F*) / 2.

    Halving before the sum is exact and keeps a kernel near the largest
    float from overflowing.
    """
    half = op.matrix / 2.0
    return np.linalg.eigvalsh(half + half.conj().T)


def _bracket_oracle(rep, op, psi: np.ndarray, values: np.ndarray) -> float:
    """Recompute the bracket along an independent route; return max deviation.

    The periodization and Zak routes take their sizes from rep.model and
    build no group of their own.
    """
    kind, *sizes = rep.model
    if kind == "shift":
        other = _periodization_values(psi, *sizes)
    elif kind == "gabor":
        other = _zak_values(psi, psi, *sizes)
    else:
        # Self-brackets are positive, so the multiplier values must match the
        # (real) spectrum of the operator matrix as a sorted list.
        eig = _hermitian_spectrum(op)
        got = np.sort(values.real)
        scale = max(1.0, float(np.abs(eig).max(initial=0.0)))
        return float(np.abs(got - eig).max()) / scale
    scale = max(1.0, float(np.abs(other).max(initial=0.0)))
    return float(np.abs(values - other).max()) / scale


# An overflow surfaces as NonFiniteResultError from the checks on each
# result, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _cmd_bracket(args) -> int:
    rep = parse_rep_spec(args.rep, max_order=_max_order())
    psi = load_generator(args.psi)
    op = bracket_operator(rep, psi, psi)
    _require_finite(op.coefficients.values, "the bracket kernel")

    if rep.group.abelian is None:
        spectrum = _hermitian_spectrum(op)
        _require_finite(spectrum, "the bracket spectrum")
        if rep.group.is_abelian:
            needs = "cyclic-product coordinates"
            skipped = "group has no cyclic-product coordinates"
        else:
            needs, skipped = "an abelian group", "group is not abelian"
        sys.stderr.write(
            f"notice: the multiplier transform needs {needs}; "
            "emitting the operator kernel and spectrum instead\n"
        )
        if args.format == "csv":
            _write(values_csv(op.coefficients.values), args.out)
            if args.out:
                side = Path(args.out).with_suffix(".spectrum.csv")
                _write_file(side, spectrum_csv(spectrum))
            return EXIT_OK
        payload = {
            "schema": SCHEMA,
            "command": "bracket",
            "rep": args.rep,
            "seed": args.seed,
            "kind": "operator_kernel",
            "kernel": pairs_from_complex(op.coefficients.values),
            "spectrum": [float(x) for x in spectrum],
            "notice": f"multiplier transform skipped: {skipped}",
        }
        _write(dump_json(payload), args.out)
        return EXIT_OK

    mult = lambda_multiplier(op)
    _require_finite(mult.values, "the bracket")
    code = EXIT_OK
    oracle_dev = None
    if args.oracle:
        oracle_dev = _bracket_oracle(rep, op, psi, mult.values)
        if oracle_dev > _ORACLE_TOL:
            code = EXIT_FAIL
    if args.format == "csv":
        _write(values_csv(mult.values), args.out)
        if oracle_dev is not None and oracle_dev > _ORACLE_TOL:
            sys.stderr.write(f"oracle deviation {oracle_dev:.3e} exceeds {_ORACLE_TOL}\n")
        return code
    payload = {
        "schema": SCHEMA,
        "command": "bracket",
        "rep": args.rep,
        "seed": args.seed,
        "kind": "dual_function",
        "values": pairs_from_complex(mult.values),
    }
    if oracle_dev is not None:
        payload["oracle_deviation"] = float(oracle_dev)
        payload["oracle_tolerance"] = _ORACLE_TOL
    _write(dump_json(payload), args.out)
    return code


def _cmd_verify(args) -> int:
    specs = DEFAULT_GROUP_SPECS if args.groups is None else tuple(
        s.strip() for s in args.groups.split(",") if s.strip()
    )
    if not specs:
        raise ParseError("--groups names no groups")
    result = run_verification_suite(
        group_specs=specs,
        seed=args.seed,
        samples=args.samples,
        inject_fault=args.inject_fault,
        max_order=_max_order(),
    )
    payload = {"schema": SCHEMA, "command": "verify", **result}
    _write(dump_json(payload), args.out)
    return EXIT_OK if result["passed"] else EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frame-lab",
        description="Riesz/frame analysis of group-representation orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_rep: bool):
        if needs_rep:
            p.add_argument("--rep", required=True, help="regular:GROUP | shift:N,M | gabor:L,M")
            p.add_argument("--psi", required=True, help="generator file (JSON or CSV)")
            p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        if needs_rep:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)

    p_analyze = sub.add_parser("analyze", help="classify an orbit and report bounds")
    common(p_analyze, needs_rep=True)

    p_bracket = sub.add_parser("bracket", help="compute the self-bracket of a generator")
    common(p_bracket, needs_rep=True)
    p_bracket.add_argument(
        "--oracle",
        action="store_true",
        help="recompute along an independent route and report the deviation",
    )

    p_verify = sub.add_parser("verify", help="run the randomized invariant suites")
    common(p_verify, needs_rep=False)
    p_verify.add_argument(
        "--groups", default=None, help="comma separated group specs to verify over"
    )
    p_verify.add_argument(
        "--samples", type=int, default=25, help="random draws per check"
    )
    p_verify.add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "bracket": _cmd_bracket,
        "verify": _cmd_verify,
    }
    try:
        _check_numeric_args(args)
        return handlers[args.command](args)
    except (DimMismatchError, GroupMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIM
    except ZeroGeneratorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ZERO
    except FrameLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except MemoryError as exc:
        sys.stderr.write(f"error: not enough memory: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
