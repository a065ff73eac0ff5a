"""Workload plans: generated inputs, numpy-only references and output checks.

Each plan is a list of ops.  An op is one `framelab.cli.main([...])`
request whose inputs are files this module writes; its reference is
computed here with numpy alone, before any op is timed, and `Op.check`
compares the output file against it.  The program never sees the seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

TOL = 1e-10  # the CLI's default --tol; the references apply the same threshold
GUARD = 1e3  # the documented guard band: kept eigenvalues must exceed GUARD*tol*lam_max
BOUND_RTOL = 1e-9
VALUE_RTOL = 1e-9

# Bytes of one complex128 entry of the dense (order, dim, dim) tensor the
# program builds per representation; building stacks per-element matrices and
# synthesises the orbit from them, so a build peaks near three tensors.
ENTRY_BYTES = 16
PEAK_TENSORS = 3


@dataclass
class Op:
    """One request: argv for `framelab.cli.main`, its output file and check."""

    argv: list[str]
    out: Path
    expected: object
    check: Callable[[object, bytes], str | None]  # returns a failure reason or None
    tensor_bytes: int


@dataclass
class Plan:
    name: str
    warmup: Op
    ops: Iterator[Op]
    max_tensor_bytes: int
    # calibration.py parts that resemble the ops: their speed tracks the op's
    calibration: tuple[str, ...] = ("lapack", "matmul", "memory")
    notes: list[str] = field(default_factory=list)


def _write_generator(path: Path, psi: np.ndarray) -> None:
    values = [[float(z.real), float(z.imag)] for z in psi]
    path.write_text(json.dumps({"dim": len(values), "values": values}))


def _cvec(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# -- analyze-regular -----------------------------------------------------------

ANALYZE_BAND = (112, 144)
ANALYZE_WARMUP = "Z144"


def _ordered_factorizations(n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield ()
        return
    for d in range(2, n + 1):
        if n % d == 0:
            for rest in _ordered_factorizations(n // d):
                yield (d, *rest)


def analyze_specs(band=ANALYZE_BAND) -> list[tuple[str, str, tuple[int, ...]]]:
    """Every group spec with order in the band: (spec, kind, params).

    Cyclic products count each ordered factor list once (the element
    indexing depends on the order), dihedral groups D<n> with 2n in the
    band, and H<p> for primes p with p^3 in the band.
    """
    lo, hi = band
    specs = []
    for order in range(lo, hi + 1):
        for factors in _ordered_factorizations(order):
            specs.append(("x".join(f"Z{d}" for d in factors), "cyclic", factors))
        if order % 2 == 0:
            specs.append((f"D{order // 2}", "dihedral", (order // 2,)))
        p = round(order ** (1 / 3))
        if p**3 == order and all(p % q for q in range(2, p)):
            specs.append((f"H{p}", "heisenberg", (p,)))
    return specs


def _dihedral_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index j*n + k is r^k s^j; (r^a s^i)(r^b s^j) = r^(a + (-1)^i b) s^(i+j)."""
    idx = np.arange(2 * n)
    k, j = idx % n, idx // n
    sign = np.where(j == 1, -1, 1)
    table = ((j[:, None] + j[None, :]) % 2) * n + (k[:, None] + sign[:, None] * k[None, :]) % n
    inverse = np.where(j == 0, (-k) % n, k) + j * n
    return table, inverse


def _heisenberg_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Index (a*p + b)*p + c; (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""
    idx = np.arange(p**3)
    a, b, c = idx // (p * p), (idx // p) % p, idx % p
    table = (
        ((a[:, None] + a[None, :]) % p) * p + (b[:, None] + b[None, :]) % p
    ) * p + (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    inverse = (((-a) % p) * p + (-b) % p) * p + (-c + a * b) % p
    return table, inverse


def _regular_gram_spectrum(table: np.ndarray, inverse: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Spectrum of the Gram matrix of {lambda(g) psi}, (lambda(g) psi)(x) = psi(g^-1 x)."""
    synthesis = psi[table[inverse]].T  # column g holds x -> psi(g^-1 x)
    return np.linalg.eigvalsh(synthesis.conj().T @ synthesis)


def _verdict(w: np.ndarray) -> dict | None:
    """Verdict and bounds by the documented rule, or None if w is borderline.

    Borderline means an eigenvalue near the zero threshold or the guard band,
    where two correct eigensolvers could disagree; such inputs are redrawn.
    """
    lam = float(w.max())
    rel = w / lam
    if np.any((rel > 1e-13) & (rel < 1e3 * GUARD * TOL)):
        return None
    kept = w[w > TOL * lam]
    a, b = float(kept.min()), float(kept.max())
    kernel = int(w.size - kept.size)
    return {
        "verdict": "riesz" if kernel == 0 else "frame_not_riesz",
        "kernel_dim": kernel,
        "frame_bounds": [a, b],
        "riesz_bounds": [a, b] if kernel == 0 else None,
    }


def _close(got, want, rtol) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return all(abs(g - w) <= rtol * abs(w) for g, w in zip(got, want, strict=True))


def check_analyze(expected: dict, data: bytes) -> str | None:
    out = json.loads(data)
    for key in ("verdict", "kernel_dim"):
        if out.get(key) != expected[key]:
            return f"{key} {out.get(key)!r} != {expected[key]!r}"
    for key in ("frame_bounds", "riesz_bounds"):
        if not _close(out.get(key), expected[key], BOUND_RTOL):
            return f"{key} {out.get(key)!r} != {expected[key]!r}"
    return None


def _analyze_input(rng, kind, params, band_limited):
    """Generator and expected verdict for one spec (redrawn until clear-cut)."""
    while True:
        if kind == "cyclic":
            # Fourier coefficients of modulus in [0.5, 1.5]; band-limiting
            # zeroes a random set of them, which leaves a Gram kernel.
            coef = rng.uniform(0.5, 1.5, params) * np.exp(2j * np.pi * rng.random(params))
            if band_limited:
                flat = coef.reshape(-1)
                flat[rng.permutation(flat.size)[: int(rng.integers(1, flat.size // 2))]] = 0
            psi = np.fft.ifftn(coef).reshape(-1)
            w = np.sort(np.abs(np.fft.fftn(psi.reshape(params))).reshape(-1) ** 2)
        else:
            table, inverse = (
                _dihedral_table(*params) if kind == "dihedral" else _heisenberg_table(*params)
            )
            order = table.shape[0]
            if band_limited:
                # Constant along cosets of <s> (dihedral) or of the centre
                # (heisenberg): the orbit then spans at most |G/H| dimensions.
                coset = np.arange(order) % params[0] if kind == "dihedral" else np.arange(order) // params[0]
                psi = _cvec(rng, order)[coset]
            else:
                psi = _cvec(rng, order)
            w = _regular_gram_spectrum(table, inverse, psi)
        expected = _verdict(w)
        if expected is not None:
            return psi, expected


def analyze_plan(seed: int, workdir: Path, max_ops: int) -> Plan:
    """analyze on regular:<spec>, a different group spec every op.

    The ops go through every spec, in a seeded order, before any spec comes
    again with a fresh generator, so a cache keyed on the spec would have to
    hold every group of the band to help.
    """
    rng = np.random.default_rng(seed)
    specs = [s for s in analyze_specs() if s[0] != ANALYZE_WARMUP]

    def make(i, spec, kind, params, band_limited):
        psi, expected = _analyze_input(rng, kind, params, band_limited)
        path = workdir / f"analyze-{i}.json"
        _write_generator(path, psi)
        n = psi.size
        return Op(
            ["analyze", "--rep", f"regular:{spec}", "--psi", str(path)],
            workdir / "analyze.out",
            expected,
            check_analyze,
            n**3 * ENTRY_BYTES,
        )

    warmup = make("warmup", ANALYZE_WARMUP, "cyclic", (144,), False)
    ops = []
    while len(ops) < max_ops:
        for j in rng.permutation(len(specs))[: max_ops - len(ops)]:
            ops.append(make(len(ops), *specs[j], rng.random() < 1 / 3))
    return Plan(
        "analyze-regular",
        warmup,
        iter(ops),
        max(op.tensor_bytes for op in [warmup, *ops]),
        notes=[
            f"{len(ops)} ops planned over {len(specs)} distinct group specs "
            f"(orders {ANALYZE_BAND[0]}..{ANALYZE_BAND[1]}), each spec once per pass"
        ],
    )


# -- bracket-models ------------------------------------------------------------

# Shapes whose per-op costs cluster (24-25 ms each on a 2-vCPU x86 host),
# so the p50 does not fall into a gap between clusters.  The first has the
# largest dense tensor and serves as the warm-up, which fixes peak RSS.
BRACKET_SHAPES = (("shift", 60, 4), ("gabor", 10, 12), ("shift", 72, 3), ("gabor", 20, 6))


def shift_bracket_reference(psi: np.ndarray, n: int, m: int) -> np.ndarray:
    """Folded DFT: value r is (1/m) * sum_q |DFT(psi)[q*n + r]|^2."""
    power = np.abs(np.fft.fft(psi)) ** 2
    return np.array([power[r::n].sum() for r in range(n)]) / m


def gabor_bracket_reference(psi: np.ndarray, l: int, m: int) -> np.ndarray:
    """Zak route: value (m1*m + m2) is m * |sum_k psi[k*m + m2] e^(-2i pi k m1 / l)|^2."""
    k = np.arange(l)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / l)  # dft[m1, k]
    zak = dft @ psi.reshape(l, m)  # zak[m1, m2]
    return (m * np.abs(zak) ** 2).reshape(-1)


def check_bracket(expected: np.ndarray, data: bytes) -> str | None:
    out = json.loads(data)
    if out.get("kind") != "dual_function":
        return f"kind {out.get('kind')!r}"
    got = np.array([complex(re, im) for re, im in out["values"]])
    if got.shape != expected.shape:
        return f"{got.size} values, expected {expected.size}"
    dev = float(np.abs(got - expected).max()) / max(1.0, float(np.abs(expected).max()))
    if dev > VALUE_RTOL:
        return f"values deviate by {dev:.3e}"
    if not out.get("oracle_deviation", math.inf) <= out.get("oracle_tolerance", -math.inf):
        return "oracle deviation missing or above its tolerance"
    return None


def bracket_plan(seed: int, workdir: Path, max_ops: int) -> Plan:
    """bracket --oracle on a few shift/gabor shapes, a fresh generator each op."""
    rng = np.random.default_rng(seed)

    def make(i, kind, a, b):
        psi = _cvec(rng, a * b)
        path = workdir / f"bracket-{i}.json"
        _write_generator(path, psi)
        ref = shift_bracket_reference if kind == "shift" else gabor_bracket_reference
        order = a if kind == "shift" else a * b
        return Op(
            ["bracket", "--oracle", "--rep", f"{kind}:{a},{b}", "--psi", str(path)],
            workdir / "bracket.out",
            ref(psi, a, b),
            check_bracket,
            order * (a * b) ** 2 * ENTRY_BYTES,
        )

    warmup = make("warmup", *BRACKET_SHAPES[0])
    ops = [make(i, *BRACKET_SHAPES[i % len(BRACKET_SHAPES)]) for i in range(max_ops)]
    return Plan(
        "bracket-models",
        warmup,
        iter(ops),
        max(op.tensor_bytes for op in [warmup, *ops]),
        notes=[f"{len(ops)} generators planned over shapes {BRACKET_SHAPES}"],
    )


# -- verify-suite --------------------------------------------------------------

# One fixed verify seed for every op of every run: the suite's work depends on
# its seed (about 160-210 ms across seeds 0-5), so a seed that varied between
# ops or runs would show up as latency spread.
VERIFY_SEED = 0
VERIFY_SAMPLES = 25
VERIFY_CHECKS = (
    "representation_validity",
    "gabor_commutativity",
    "bracket_equals_gramian",
    "duallemma",
    "lambda_structure",
    "support_lemma",
    "sandwich_equivalence",
    "periodization_calibration",
    "zak_calibration",
)
# Largest dense tensor the default suite builds: the periodization check
# draws shift models up to N=16, M=8 (order 16, dim 128).
VERIFY_MAX_TENSOR_BYTES = 16 * 128**2 * ENTRY_BYTES


@dataclass
class VerifyReference:
    checks: tuple[str, ...]
    output: bytes | None = None  # the first op's bytes; later ops must match


def check_verify(expected: VerifyReference, data: bytes) -> str | None:
    out = json.loads(data)
    if out.get("passed") is not True:
        return "suite did not pass"
    names = tuple(c.get("name") for c in out.get("checks", ()))
    if names != expected.checks:
        return f"checks {names} != {expected.checks}"
    starved = [c["name"] for c in out["checks"] if not c.get("samples", 0) >= 1]
    if starved:
        return f"checks with no samples: {starved}"
    if expected.output is None:
        expected.output = data
    elif data != expected.output:
        return "output differs from the first op's bytes"
    return None


def verify_plan(seed: int, workdir: Path, max_ops: int) -> Plan:
    """verify with the default groups at one fixed seed, the same op repeated."""
    del seed, max_ops  # identical work every op; see VERIFY_SEED
    reference = VerifyReference(VERIFY_CHECKS)
    op = Op(
        ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(VERIFY_SEED)],
        workdir / "verify.out",
        reference,
        check_verify,
        VERIFY_MAX_TENSOR_BYTES,
    )
    return Plan(
        "verify-suite",
        op,
        itertools.repeat(op),
        VERIFY_MAX_TENSOR_BYTES,
        calibration=("python", "lapack", "matmul"),
    )


# Ops per second the generated inputs last for.  On the 2-vCPU host in
# README.md the program runs about 24 analyze and 42 bracket ops per second
# (at most 28 and 49 in the fast host state), so these are over 3x the
# measured rates; a faster program that uses them up ends the loop early
# and says so.
PLANS = {
    "analyze-regular": (analyze_plan, 80),
    "bracket-models": (bracket_plan, 130),
    "verify-suite": (verify_plan, 1),
}


def build_plan(name: str, seed: int, workdir: Path, seconds: float) -> Plan:
    make, max_rate = PLANS[name]
    return make(seed, workdir, max(1, math.ceil(seconds * max_rate)))


def refusal(plan: Plan, mem_available: int | None) -> str | None:
    """A reason to refuse the workload if its tensors would pass half of RAM."""
    if mem_available is None:
        return None
    need = PEAK_TENSORS * plan.max_tensor_bytes
    if need > mem_available // 2:
        return (
            f"refused: {plan.name} needs about {need / 1e6:.0f} MB of dense tensors, "
            f"more than half of MemAvailable ({mem_available / 1e6:.0f} MB)"
        )
    return None
