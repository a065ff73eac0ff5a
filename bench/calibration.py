"""Host-speed calibration for the timed metrics.

The shared host this benchmark runs on changes the speed one process sees
by up to 1.8x within seconds and over minutes (README.md, "Shared host").
A `Calibrator` times a fixed piece of work that uses no framelab code,
made of the parts below that resemble what the workload's ops spend their
time in.  The runner times it right before every op and once after the
last; an op's speed factor is the calibration's reference time over the
median of the samples around the op, and each timed metric is the raw time
times that factor: the time the op would take at the reference host speed,
where every part takes its `REFERENCE_S`.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Each part's time at the reference host speed, in seconds; constants, so
# the calibrated metrics of two commits are comparable.
REFERENCE_S = {
    "python": 2.0e-3,  # a pure-Python loop with dict updates
    "lapack": 0.8e-3,  # twenty 24x24 eigvalsh calls
    "matmul": 0.25e-3,  # three 96x96 products and a 96-point FFT per column
    "memory": 1.4e-3,  # an (8, 256, 256) complex tensor times a vector, a stack
}


class Calibrator:
    """Times the fixed calibration work; call it to get one sample in seconds."""

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((20, 24, 24))
        self._sym = list(sym + sym.transpose(0, 2, 1))
        self._square = rng.standard_normal((96, 96))
        shape = (8, 256, 256)
        self._tensor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._vector = rng.standard_normal(256) + 0j
        self._parts = [getattr(self, "_" + part) for part in parts]
        self.reference = sum(REFERENCE_S[part] for part in parts)
        self()  # first LAPACK/FFT calls load their code; not a sample

    def _python(self) -> None:
        total, table = 0, {}
        for i in range(20000):
            total += i * i
            table[i & 255] = total

    def _lapack(self) -> None:
        for mat in self._sym:
            np.linalg.eigvalsh(mat)

    def _matmul(self) -> None:
        for _ in range(3):
            self._square @ self._square
        np.fft.fft(self._square, axis=0)

    def _memory(self) -> None:
        self._tensor @ self._vector
        np.stack([self._tensor[i] for i in range(4)])

    def __call__(self) -> float:
        start = perf_counter()
        for part in self._parts:
            part()
        return perf_counter() - start

    def speed_factors(self, samples: list[float], reach: int = 2) -> list[float]:
        """Speed factor of each op between samples i and i+1.

        Reference over the median of the samples from i - reach to
        i + 1 + reach, so one sample slowed by an interrupt does not set an
        op's factor.
        """
        return [
            self.reference / statistics.median(samples[max(0, i - reach) : i + 2 + reach])
            for i in range(len(samples) - 1)
        ]
