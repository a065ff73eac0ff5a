"""Golden digests of CLI output bytes.

Each entry runs one `analyze`, `bracket` or `verify` command on a generator
drawn from a fixed seed and compares its exit code and the sha256 of every
file it writes with the values recorded at commit 7a1e290, before JSON
lists were written in bulk.  A change that alters any byte (a float
spelling, the indent, key order, a CSV row) fails here.  The digests hold
for the numeric stack they were recorded on: CPython 3.11 and numpy 2.4
with its bundled OpenBLAS, on x86-64.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from framelab.cli import main

# (command, rep, generator dim, generator seed); each runs as JSON and CSV.
_RUNS = [
    ("analyze", "regular:Z12", 12, 1),
    ("analyze", "regular:D5", 10, 2),
    ("analyze", "regular:Z2xZ36", 72, 3),
    ("analyze", "gabor:4,3", 12, 4),
    ("bracket", "shift:60,4", 240, 5),
    ("bracket", "gabor:10,12", 120, 6),
    ("bracket", "shift:72,3", 216, 7),
    ("bracket", "gabor:20,6", 120, 8),
    ("bracket", "regular:D4", 8, 9),
]
# (name, argv, generator dim, generator seed); run_case adds --psi and --out.
CASES = [
    (
        f"{command} {rep} {fmt}",
        [command, *(["--oracle"] if command == "bracket" else []), "--rep", rep, "--format", fmt],
        dim,
        seed,
    )
    for command, rep, dim, seed in _RUNS
    for fmt in ("json", "csv")
] + [
    ("verify seed 0", ["verify", "--seed", "0"], None, None),
    (
        "verify seed 0 groups",
        ["verify", "--seed", "0", "--samples", "25", "--groups", "Z4,Z2xZ3,D4,D5,H3,H5"],
        None,
        None,
    ),
]

DIGESTS = {
    "analyze regular:Z12 json": {
        "exit": 0,
        "out.txt": "3d6cad7aefe45f09907dcc3939a20de09eebb22a78c6fff24967195b36e6a85f",
    },
    "analyze regular:Z12 csv": {
        "exit": 0,
        "out.txt": "fdd6eb1421e49ae715ebefd46a39b4a4370df23c3f14e0abed50ace7bd94502d",
    },
    "analyze regular:D5 json": {
        "exit": 0,
        "out.txt": "7aa933aec0dc9327e2342156e7dcdde7d4f7375df38cdd82d7f16e992eb5a9cd",
    },
    "analyze regular:D5 csv": {
        "exit": 0,
        "out.txt": "cd5ed4136fcb8ccedd6df0535043e00fa9d51a7fc17c095792eb5ab27127d65a",
    },
    # Recorded when the block route's seeded columns came to be drawn by
    # random.Random(0).sample: only routes.scalar differs from the 7a1e290
    # bytes (2.076783204337308e-16 with the former draw, now
    # 2.6302897960708657e-16).
    "analyze regular:Z2xZ36 json": {
        "exit": 0,
        "out.txt": "2be3920ee7b6fc0cb38f948a88c603e6626a4ac7ad28c2b7c3be65ca3bff83e7",
    },
    "analyze regular:Z2xZ36 csv": {
        "exit": 0,
        "out.txt": "d52b4bcb4a45205607d6c113a0c25db5a320d2bb360f9597a58bbfad15923d5f",
    },
    "analyze gabor:4,3 json": {
        "exit": 0,
        "out.txt": "f19937496584b98fac7f4d360e7d19e38da8b99cea5f354ae539a15a670144c7",
    },
    "analyze gabor:4,3 csv": {
        "exit": 0,
        "out.txt": "9d21278a0b504b5e4ed5eec62c380e8330b776543d0f573a4b5bf1beb90cd0d0",
    },
    "bracket shift:60,4 json": {
        "exit": 0,
        "out.txt": "7f9cc17f486e742d0e3fcbe1aa266b63cc1c6ac57f66f960a889f3c0eb8f5ca7",
    },
    "bracket shift:60,4 csv": {
        "exit": 0,
        "out.txt": "ab028255f89638ce54be726dc5ebc1ddac8775f5e0b617a4223972de147cf938",
    },
    "bracket gabor:10,12 json": {
        "exit": 0,
        "out.txt": "0674c37d6d48360a07cb306cced834c570ebad18a144300fa090c24b1621678d",
    },
    "bracket gabor:10,12 csv": {
        "exit": 0,
        "out.txt": "f04713f0b97732550d5f72d73bf39b92e4c13902ab8bcbf9e59fc44dda1a61d4",
    },
    "bracket shift:72,3 json": {
        "exit": 0,
        "out.txt": "1122f9ad2987fc67e68455fd91b93a25cbe7b886f704ac8795a201c7bc1bf12e",
    },
    "bracket shift:72,3 csv": {
        "exit": 0,
        "out.txt": "2284a1a4d63e45d1c359c45626f03fc5b2c4cf0f201241d80a875ce63e77c94a",
    },
    "bracket gabor:20,6 json": {
        "exit": 0,
        "out.txt": "d13356e0f7dcc2c207d87f13ff68fac0e776019fab5fa5243d6910c50d3b0455",
    },
    "bracket gabor:20,6 csv": {
        "exit": 0,
        "out.txt": "8d5cc3b8201fb19a1fc2c2d44db3c2e7e298bfd808e0799f24ca7f3414625551",
    },
    "bracket regular:D4 json": {
        "exit": 0,
        "out.txt": "510bfa2d5b84d80dab376b63acac09a88bbc1cb7ef49f982b5349478843165cc",
    },
    "bracket regular:D4 csv": {
        "exit": 0,
        "out.spectrum.csv": "b261c4724b87bd4e229a29958b0f99d7b03b9d4131454a72af4028bb65ddb2d7",
        "out.txt": "0a1defcfa1d9e65466eac82c6d25d5f8d137423b153eacb3f3c8ed7489331628",
    },
    # Recorded when duallemma and sandwich_equivalence began to report the
    # 1e-10 slack they forgive: only the two details.slack keys are new.
    "verify seed 0": {
        "exit": 0,
        "out.txt": "2f9b2d93d9e81b160f81c2ed54c530710606ba5a23cebd1acba491dfee8fd909",
    },
    "verify seed 0 groups": {
        "exit": 0,
        "out.txt": "e4be35c2f579e58b4470cb2ce1f42d926792ad160f6950cb6cdf20ceb2a9ba2e",
    },
}


def _write_generator(path: Path, dim: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((dim, 2))
    path.write_text(json.dumps({"dim": dim, "values": parts.tolist()}))


def run_case(tmp_path: Path, argv, dim, seed) -> dict:
    """Run one case; return its exit code and the sha256 of each file it wrote."""
    argv = list(argv)
    if dim is not None:
        psi = tmp_path / "psi.json"
        _write_generator(psi, dim, seed)
        argv += ["--psi", str(psi)]
    out = tmp_path / "out.txt"
    code = main(argv + ["--out", str(out)])
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("out*"))
    }
    return {"exit": code, **digests}


@pytest.mark.parametrize("name,argv,dim,seed", CASES, ids=[case[0] for case in CASES])
def test_output_bytes_match_the_recorded_digests(tmp_path, name, argv, dim, seed):
    assert run_case(tmp_path, argv, dim, seed) == DIGESTS[name]
