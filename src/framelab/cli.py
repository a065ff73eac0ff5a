"""Command line front end: analyze, bracket, and verify."""

from __future__ import annotations

import contextlib
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .abelian import _transform_bracket, fourier_on_group
from .errors import (
    DimMismatchError,
    FrameLabError,
    GroupMismatchError,
    NonFiniteResultError,
    OutputWriteError,
    ParseError,
    ZeroGeneratorError,
)
from .frames import GAP_GUARD, _kernel_spectrum, analyze_orbit
from .groups import DEFAULT_MAX_ORDER
from .io import SCHEMA, dump_json, load_generator, pairs_from_complex, spectrum_csv, values_csv
from .representations import OrbitSystem, correlation_function, parse_rep_spec

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
    """Reject a tolerance, sample count or verify seed that no run can use.

    From tol = 1 / GAP_GUARD on, the guard band GAP_GUARD * tol * lambda_max
    covers the whole spectrum, so analyze could certify nothing.
    """
    if args.command == "verify":
        if args.samples < 1:
            raise ParseError(f"--samples must be at least 1, got {args.samples}")
        if args.seed < 0:
            raise ParseError(f"--seed must be non-negative, got {args.seed}")
    elif args.command == "analyze":
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ParseError(f"--tol must be positive and finite, got {args.tol!r}")
        if args.tol >= 1 / GAP_GUARD:
            raise ParseError(f"--tol must be below {1 / GAP_GUARD}, got {args.tol!r}")


def _require_finite(values, what: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteResultError(f"{what} of this generator overflows a float")


def _write(text: str, out: str | None) -> None:
    if out is not None:
        _write_file(out, text)
        return
    # The flush is inside the handler: with stdout buffered, a full disk or a
    # closed pipe first shows when the buffer is written out.
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # Closing drops the bytes still buffered; the interpreter would
        # otherwise fail to flush them again at exit and exit with 120.
        with contextlib.suppress(OSError):
            sys.stdout.close()
        raise OutputWriteError(f"cannot write to standard output: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        # ValueError covers a path holding a NUL.
        raise OutputWriteError(f"cannot write output file {path!r}: {exc}") from exc


def _cmd_analyze(args) -> int:
    rep = parse_rep_spec(args.rep, max_order=_max_order())
    psi = load_generator(args.psi)
    report = analyze_orbit(OrbitSystem(rep, psi), tol=args.tol)
    # A verdict its own routes contradict, or could not be checked against,
    # is not printed.
    disagreement = max(report.route_agreement.values())
    if not disagreement <= _ORACLE_TOL:
        sys.stderr.write(f"error: routes disagree by {disagreement:.3e}\n")
        return EXIT_FAIL
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


def _bracket_oracle(rep, psi: np.ndarray, values: np.ndarray) -> float:
    """Largest deviation of the multiplier from the model's classical bracket.

    The classical bracket is read from psi's own transform
    (abelian._transform_bracket), with the sizes in rep.model and no group
    of its own, and compared value by value at each character.  The
    deviation is relative to its largest value, and a zero generator reads 0.
    """
    other = _transform_bracket(rep, psi)
    scale = max(float(np.abs(other).max(initial=0.0)), np.finfo(float).tiny)
    return float(np.abs(values - other).max()) / scale


# An overflow surfaces as NonFiniteResultError from the checks on each
# result, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _cmd_bracket(args) -> int:
    rep = parse_rep_spec(args.rep, max_order=_max_order())
    psi = load_generator(args.psi)
    kernel = correlation_function(rep, psi, psi)
    _require_finite(kernel.values, "the bracket kernel")

    if rep.group.factors is None:
        # Taken by analyze's rule, with no order x order matrix at the cap.
        spectrum = _kernel_spectrum(kernel)
        _require_finite(spectrum, "the bracket spectrum")
        if rep.group.is_abelian:
            needs = "cyclic-product coordinates"
            skipped = "group has no cyclic-product coordinates"
        else:
            needs, skipped = "an abelian group", "group is not abelian"
        unchecked = (
            "; --oracle checks nothing: the operator kernel has no independent route"
            if args.oracle else ""
        )
        sys.stderr.write(
            f"notice: the multiplier transform needs {needs}; "
            f"emitting the operator kernel and spectrum instead{unchecked}\n"
        )
        if args.format == "csv":
            _write(values_csv(kernel.values), args.out)
            if args.out is not None:
                side = Path(args.out).with_suffix(".spectrum.csv")
                _write_file(str(side), spectrum_csv(spectrum))
            return EXIT_OK
        payload = {
            "schema": SCHEMA,
            "command": "bracket",
            "rep": args.rep,
            "seed": args.seed,
            "kind": "operator_kernel",
            "kernel": pairs_from_complex(kernel.values),
            "spectrum": [float(x) for x in spectrum],
            "notice": f"multiplier transform skipped: {skipped}",
        }
        _write(dump_json(payload), args.out)
        return EXIT_OK

    mult = fourier_on_group(kernel)
    _require_finite(mult.values, "the bracket")
    code = EXIT_OK
    oracle_dev = None
    if args.oracle:
        oracle_dev = _bracket_oracle(rep, psi, mult.values)
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
    # Imported here so analyze and bracket never load the self-checks.
    from .verification import DEFAULT_GROUP_SPECS, run_verification_suite

    specs = DEFAULT_GROUP_SPECS if args.groups is None else tuple(
        s.strip() for s in args.groups.split(",") if s.strip()
    )
    if not specs:
        raise ParseError("--groups names no groups")
    result = run_verification_suite(
        group_specs=specs,
        seed=args.seed,
        samples=args.samples,
        max_order=_max_order(),
    )
    payload = {"schema": SCHEMA, "command": "verify", **result}
    _write(dump_json(payload), args.out)
    return EXIT_OK if result["passed"] else EXIT_FAIL


# Options shared by several subcommands: (flag, add_argument keywords).
_REP = ("--rep", {"required": True, "help": "regular:GROUP | shift:N,M | gabor:L,M"})
_PSI = ("--psi", {"required": True, "help": "generator file (JSON or CSV)"})
_OUT = ("--out", {"default": None, "help": "write output here instead of stdout"})
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})
_SEED = ("--seed", {"type": int, "default": 0})

# Each subcommand's help line and options, in the order --help lists them.
# _build_parser hands each option to add_argument and _exact_args reads the
# same keywords, so the two readers of a command line share one definition.
# An option that is not required states its default, even where argparse
# has one, because _exact_args fills it in.
_SUBCOMMANDS = {
    "analyze": (
        "classify an orbit and report bounds",
        (_REP, _PSI, ("--tol", {"type": float, "default": 1e-10}), _OUT, _FORMAT, _SEED),
    ),
    "bracket": (
        "compute the self-bracket of a generator",
        (_REP, _PSI, _OUT, _FORMAT, _SEED, ("--oracle", {
            "action": "store_true",
            "default": False,
            "help": "recompute along an independent route and report the deviation",
        })),
    ),
    "verify": (
        "run the randomized invariant suites",
        (
            _OUT,
            _SEED,
            ("--groups", {"default": None, "help": "comma separated group specs to verify over"}),
            ("--samples", {"type": int, "default": 25, "help": "random draws per check"}),
        ),
    ),
}


def _build_parser():
    """The argument parser, with one subparser per subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="frame-lab",
        description="Riesz/frame analysis of group-representation orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _exact_args(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from argv, if argv is spelled exactly.

    Exactly means: a subcommand, then each given option once, by its full
    flag, each value its own word, not starting with "-", converting by the
    option's type and lying in its choices, and every required option given.
    The namespace then holds the attributes argparse's Namespace would.
    Anything else (help, `--flag=value`, abbreviations, repeats, errors)
    returns None, for argparse to read. Building argparse's parser takes
    about a fifth of a cheap request, which an exact command line skips,
    and importing argparse is skipped with it.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options = _SUBCOMMANDS[argv[0]][1]
    keywords_of = dict(options)
    given = {}
    words = iter(argv[1:])
    for flag in words:
        keywords = keywords_of.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, keywords in options:
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        setattr(args, flag[2:], value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _exact_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
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
