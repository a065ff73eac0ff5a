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
    ("bracket", "regular:Z2xZ36", 72, 10),
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
    # Recorded when the multiplier came to be taken by an FFT over the
    # invariant factors instead of a product with the character table.
    # Only rounding moved: routes.scalar here; values and oracle_deviation in
    # the shift: and gabor: bracket entries (values by at most 6e-16 of the
    # largest); max_deviation of lambda_structure, support_lemma and the two
    # calibrations in the verify entries.
    "analyze regular:Z12 json": {
        "exit": 0,
        "out.txt": "ecbf6bf610ed762ef8e53f04b957bd34b9325da8723a95c19dc83c101872d910",
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
    # Recorded when routes.scalar came to compare the spectrum with the
    # classical bracket read from psi's own transform, on both routes.  Only
    # routes.scalar moved: here 2.6302897960708657e-16 with the multiplier at
    # the seeded characters, now 5.260579592141731e-16; in "analyze
    # gabor:4,3 json" 4.0494065939082264e-16 with the multiplier of the
    # kernel, now 2.6996043959388176e-16.  "analyze regular:Z12 json" kept its
    # bytes (2.3448253243982914e-16 both ways).  Before that, the seeded
    # columns' draw by random.Random(0).sample had moved only routes.scalar
    # here from the 7a1e290 bytes.
    "analyze regular:Z2xZ36 json": {
        "exit": 0,
        "out.txt": "1e468e601bbe429a47f79db2c15300b7880566db3f5296e49ea462df1a91ab2b",
    },
    "analyze regular:Z2xZ36 csv": {
        "exit": 0,
        "out.txt": "d52b4bcb4a45205607d6c113a0c25db5a320d2bb360f9597a58bbfad15923d5f",
    },
    # routes.scalar moved, see "analyze regular:Z2xZ36 json".
    "analyze gabor:4,3 json": {
        "exit": 0,
        "out.txt": "7a635663653f64dfa1f0c0a0c4a94e6d7add9dddb5dc44c4a525b1c519c73c20",
    },
    "analyze gabor:4,3 csv": {
        "exit": 0,
        "out.txt": "9d21278a0b504b5e4ed5eec62c380e8330b776543d0f573a4b5bf1beb90cd0d0",
    },
    "bracket shift:60,4 json": {
        "exit": 0,
        "out.txt": "8413446e2031133d2fbf20490db854fc96462b0e177121411cc199dccd67d6e8",
    },
    "bracket shift:60,4 csv": {
        "exit": 0,
        "out.txt": "f9e9113360752d167fdb9deae5092b30262a507fbf3a7519ff40e15ea8bced79",
    },
    "bracket gabor:10,12 json": {
        "exit": 0,
        "out.txt": "6e920cab92cdcb9058c42c0dee216c589ab16c883d009f7a15753b2df161c4b9",
    },
    "bracket gabor:10,12 csv": {
        "exit": 0,
        "out.txt": "ace681b3d55b60b00316459d34945f26f7a6fda1621e3e0e4264dbabd50f6e3f",
    },
    "bracket shift:72,3 json": {
        "exit": 0,
        "out.txt": "0d359f831362f8e2f606f1e07791a6905825b548be619f637d69d494dfcfdc67",
    },
    "bracket shift:72,3 csv": {
        "exit": 0,
        "out.txt": "3b6ebfbc66ea9c2c4c12ffddfd2d6ac00b0a86bc2d2d09a572ceb3a5092db575",
    },
    "bracket gabor:20,6 json": {
        "exit": 0,
        "out.txt": "fadb60f136ea7e8e66d4af1b70a5e0d11f3f8c31515008fff280ee7c736f1d17",
    },
    "bracket gabor:20,6 csv": {
        "exit": 0,
        "out.txt": "dfdb0e298d43961fd6e392e6a17ca7eccc4e86ce145acbf0cc715889226e48f5",
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
    # Recorded when the regular: oracle came to compare the multiplier with
    # |psi^|^2 character by character (oracle_deviation 4.0070126351027005e-16).
    "bracket regular:Z2xZ36 json": {
        "exit": 0,
        "out.txt": "01a85610f332383a8fe940eea2734e43b2571f43178f3d56981b48eb5a7a273b",
    },
    "bracket regular:Z2xZ36 csv": {
        "exit": 0,
        "out.txt": "549cd97499d96ca82fa431d2602b57f3254d323ecdd7822e0ebf3a949553bf58",
    },
    # Recorded when duallemma and sandwich_equivalence began to report the
    # 1e-10 slack they forgive (only the two details.slack keys were new),
    # again with the FFT multiplier (see the first entry), and again when
    # gabor_commutativity dropped details.integer_phases_exact, true for
    # every action (only that object went).
    "verify seed 0": {
        "exit": 0,
        "out.txt": "c11f4b4f4049d33f4fb0de5e9e96121a920b47e01e25624e61a6b80b4ec3f92c",
    },
    "verify seed 0 groups": {
        "exit": 0,
        "out.txt": "878da915a2174a24357853943a008d96bc0d838c514fa9c0dc7c7d94ea3ed799",
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
