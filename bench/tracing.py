"""Span tracing for the traced benchmark run.

`Tracer.install()` replaces the public functions, methods and properties of
each framelab module, plus the numpy.linalg eigensolvers and numpy.fft, with
wrappers that record one span per call; `uninstall()` puts the originals
back.  Nothing is patched outside those two calls, so untraced runs execute
the program untouched.

A span is `[name, start, end, parent, op, child_time, extra]`: `parent` is
the index of the enclosing span (-1 at the top), `op` the id of the request
it belongs to, `child_time` the summed duration of its direct children, so
its self time is `end - start - child_time`.  Spans stay in memory until
`write()` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

from workloads import VERIFY_CHECKS

LAYERS = (
    "groups",
    "representations",
    "vnalgebra",
    "frames",
    "abelian",
    "io",
    "verification",
    "cli",
)
LINALG_FUNCS = ("eig", "eigh", "eigvals", "eigvalsh", "svd")

GROUP_BUILDERS = frozenset(
    "groups." + n
    for n in (
        "group_from_spec",
        "make_builtin_group",
        "make_abelian_group",
        "dihedral_group",
        "heisenberg_group",
        "make_group_from_table",
    )
)
REP_BUILDERS = frozenset(
    "representations." + n
    for n in ("regular_representation", "shift_model_representation", "gabor_representation")
)
ORBIT_FUNCS = frozenset(
    ("representations.orbit_matrix", "representations.correlation_function")
)

SELF_TIME_LAYERS = ("frames", "vnalgebra", "abelian", "cli")

# Every per-layer metric except trace.overhead_ratio, which the runner
# derives from the two timed loops, with its unit.
LAYER_METRICS = (
    ("groups.build_ms", "ms"),
    ("groups.character_table_ms", "ms"),
    ("representations.build_ms", "ms"),
    ("representations.orbit_ms", "ms"),
    ("representations.verify_ms", "ms"),
    ("representations.tensor_mb", "MB"),
    ("frames.self_ms", "ms"),
    ("vnalgebra.self_ms", "ms"),
    ("abelian.self_ms", "ms"),
    ("linalg.eig_ms", "ms"),
    ("linalg.eig_calls", "count"),
    ("linalg.fft_ms", "ms"),
    *(
        (f"verification.{check}.{kind}", unit)
        for check in VERIFY_CHECKS
        for kind, unit in (("ms", "ms"), ("samples", "count"))
    ),
    ("io.load_ms", "ms"),
    ("io.dump_ms", "ms"),
    ("cli.self_ms", "ms"),
)
LAYER_METRIC_NAMES = tuple(name for name, _unit in LAYER_METRICS)
TIME_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "ms")


def _rep_extra(rep):
    """Bytes of the dense (order, dim, dim) complex tensor a builder made."""
    return rep.group.order * rep.dim * rep.dim * 16


def _check_extra(result):
    return [result.name, int(result.samples)]


def _extra_probe(name):
    if name in REP_BUILDERS:
        return _rep_extra
    if name.startswith("verification.check_"):
        return _check_extra
    return None


class Tracer:
    """Records spans around framelab's public API while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, top_level_ok=True):
        spans, stack = self.spans, self._stack
        tracer = self
        probe = _extra_probe(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not top_level_ok and not stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if probe is not None:
                rec[6] = probe(result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr], new))

    def install(self) -> None:
        """Swap the wrappers in; the first call builds them."""
        if not self._patches:
            self._build()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the program's own callables back."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        """Wrap every public framelab callable and the numpy kernels."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"framelab.{layer}")
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in names:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Modules import each other's functions by name, so every module
        # namespace that holds an original gets the wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "framelab" or mod_name.startswith("framelab.")):
                continue
            for attr, val in list(vars(mod).items()):
                try:
                    wrapper = replaced.get(val)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        import numpy

        # numpy.linalg's own functions (norm(ord=2) runs svd) call these
        # through the private module, so both namespaces get the wrapper.
        owners = [numpy.linalg, getattr(numpy.linalg, "_linalg", None)]
        for attr in LINALG_FUNCS:
            wrapper = self._wrap(f"linalg.{attr}", getattr(numpy.linalg, attr), top_level_ok=False)
            for owner in owners:
                if owner is not None and attr in vars(owner):
                    self._patch(owner, attr, wrapper)
        for attr in numpy.fft.__all__:
            fn = getattr(numpy.fft, attr)
            if callable(fn):
                self._patch(numpy.fft, attr, self._wrap(f"fft.{attr}", fn, top_level_ok=False))

    def _wrap_class(self, layer, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(name, val))
            elif isinstance(val, property) and val.fget is not None:
                self._patch(cls, attr, property(self._wrap(name, val.fget), val.fset, val.fdel))

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "child_time", "extra"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- per-layer aggregation ----------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def op_layer_values(spans: list[list], members) -> dict[str, float]:
    """Per-layer numbers for one op: `members` indexes its spans in `spans`.

    Times are milliseconds; see README.md for what each metric covers.
    """
    out = dict.fromkeys(LAYER_METRIC_NAMES, 0.0)
    for i in members:
        name, start, end, parent, _op, child, extra = spans[i]
        dur_ms = (end - start) * 1e3
        self_ms = dur_ms - child * 1e3
        layer = _layer(name)
        if layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_ms"] += self_ms
        if name in GROUP_BUILDERS:
            out["groups.build_ms"] += self_ms
            # Group construction nested in a representation builder is
            # charged here, not to representations.build_ms.
            if parent >= 0 and spans[parent][0] in REP_BUILDERS:
                out["representations.build_ms"] -= dur_ms
        elif name == "groups.character_table":
            out["groups.character_table_ms"] += self_ms
        elif name in REP_BUILDERS:
            out["representations.build_ms"] += dur_ms
            out["representations.tensor_mb"] += extra / 1e6
        elif name in ORBIT_FUNCS:
            out["representations.orbit_ms"] += dur_ms
        elif name == "representations.verify_representation":
            out["representations.verify_ms"] += dur_ms
        elif layer == "linalg":
            out["linalg.eig_ms"] += dur_ms
            out["linalg.eig_calls"] += 1
        elif layer == "fft":
            out["linalg.fft_ms"] += dur_ms
        elif name == "io.load_generator":
            out["io.load_ms"] += dur_ms
        elif name == "io.dump_json":
            out["io.dump_ms"] += dur_ms
        elif extra is not None and name.startswith("verification.check_"):
            check, samples = extra
            out[f"verification.{check}.ms"] += dur_ms
            out[f"verification.{check}.samples"] += samples
    return out


def layer_metrics(spans: list[list], speed: list[float]) -> dict[str, float]:
    """Median over ops of each per-op layer value.

    `speed[op]` is the op's speed factor (calibration.py); its times are
    multiplied by it like the end-to-end times.
    """
    members: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        members.setdefault(rec[4], []).append(i)
    per_op = []
    for op, idx in sorted(members.items()):
        values = op_layer_values(spans, idx)
        for name in TIME_METRICS:
            values[name] *= speed[op]
        per_op.append(values)
    return {
        name: statistics.median(v[name] for v in per_op) if per_op else 0.0
        for name in LAYER_METRIC_NAMES
    }
