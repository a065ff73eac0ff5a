"""Every parameter a function of the package declares is read by its body."""

import ast
from pathlib import Path

import framelab

_PACKAGE = Path(framelab.__file__).parent


def _unread_parameters(source: str) -> list[str]:
    """Function parameters, other than self and cls, that the body never names."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        named = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
        }
        unread += [
            f"{fn.name}({p.arg}) at line {fn.lineno}"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in named
        ]
    return unread


def test_the_finder_sees_an_unread_parameter():
    source = (
        "def f(a, b, *rest, c=1, **extra):\n"
        "    def g(d):\n"
        "        return a + d\n"
        "    return g(c)\n"
    )
    assert _unread_parameters(source) == [
        "f(b) at line 1",
        "f(rest) at line 1",
        "f(extra) at line 1",
    ]


def test_no_function_of_the_package_takes_a_parameter_it_never_reads():
    unread = {
        path.name: found
        for path in sorted(_PACKAGE.glob("*.py"))
        if (found := _unread_parameters(path.read_text()))
    }
    assert unread == {}
