"""frame-lab benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-regular --seed 1 --seconds 30 --trace 0

Each op is one in-process `framelab.cli.main([...])` request on inputs this
script generates from --seed.  Every time it reports is calibrated to a
reference host speed (calibration.py).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it traces about half of its ops and
reports the per-layer metrics.  The last line of stdout is the result as JSON.  See
README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; README.md has the trade-off.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# setup_s is the median of this many calibrated fresh-interpreter probes,
# spread evenly over the timed loop, after one discarded probe before it that
# writes the bytecode caches and warms the page cache.  See README.md.
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60


class SourceMissing(Exception):
    pass


class Refused(Exception):
    """The workload would need more memory than the run may use."""


def import_framelab():
    """Import framelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "framelab" / "__init__.py").is_file():
        raise SourceMissing(f"framelab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import framelab
    import framelab.cli

    if Path(framelab.__file__).resolve().parent != SRC / "framelab":
        raise SourceMissing(f"imported framelab from {framelab.__file__}, not {SRC}")
    return framelab.cli


def mem_available() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (
        f"env: blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} blas={blas}"
    )


class Tally:
    """Correctness over every op the run executes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op, code, data: bytes | None) -> None:
        self.attempted += 1
        reason = None
        if isinstance(code, BaseException):
            reason = "".join(traceback.format_exception_only(code)).strip()
        elif code != 0:
            reason = f"exit code {code}"
        elif data is None:
            reason = "no output written"
        else:
            try:
                reason = op.check(op.expected, data)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.argv)}: {reason}")


def run_op(cli, op):
    """Run one request; return (latency seconds, exit code or exception, output)."""
    op.out.unlink(missing_ok=True)
    argv = [*op.argv, "--out", str(op.out)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)  # looked up per call, so the tracer's wrapper is seen
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a failed run
        code = exc
    latency = time.perf_counter() - start
    try:
        data = op.out.read_bytes()
    except FileNotFoundError:
        data = None
    return latency, code, data


@dataclass
class Loop:
    """One timed loop: per-op times already multiplied by the op's speed factor."""

    latencies: list[float]  # request latency, s
    cycles: list[float]  # latency plus reading and checking the output, s
    traced: list[bool]
    speed: list[float]  # each op's speed factor
    raw_latencies: list[float]  # as measured, for the printed summary
    wall: float


def timed_loop(cli, plan, seconds, tally, calibrate, tracer=None, probe=None, probes=0):
    """Closed loop: the next op starts when the previous one is checked.

    A calibration sample is taken before every op and after the last, and
    each op's times are scaled by its speed factor (calibration.py).  With
    a tracer, a seeded coin picks the ops that run traced (about half,
    never aliased with a workload's input cycle), so traced and untraced
    ops see the same machine conditions.  With a probe, `probes` calls of
    it are spread evenly over the loop, with the loop's clock stopped while
    each runs.  Returns the loop and the probe results.
    """
    raw, cycles, traced, cals, probed = [], [], [], [], []
    coin = random.Random(0)
    gc.collect()
    start = time.perf_counter()
    paused = 0.0
    for op in plan.ops:
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            break
        if len(probed) < probes and elapsed >= seconds * len(probed) / probes:
            stop = time.perf_counter()
            probed.append(probe())
            paused += time.perf_counter() - stop
        cals.append(calibrate())
        trace_op = tracer is not None and coin.random() < 0.5
        if trace_op:
            tracer.op = len(raw)
            tracer.install()
        op_start = time.perf_counter()
        try:
            latency, code, data = run_op(cli, op)
        finally:
            if trace_op:
                tracer.uninstall()
        tally.record(op, code, data)
        cycles.append(time.perf_counter() - op_start)
        raw.append(latency)
        traced.append(trace_op)
    else:
        plan.notes.append(f"loop ran out of inputs after {len(raw)} ops")
    cals.append(calibrate())
    wall = time.perf_counter() - start - paused
    while len(probed) < probes:
        probed.append(probe())
    speed = calibrate.speed_factors(cals)
    loop = Loop(
        [t * f for t, f in zip(raw, speed)],
        [t * f for t, f in zip(cycles, speed)],
        traced,
        speed,
        raw,
        wall,
    )
    return loop, probed


def setup_probe(plan, tally, workdir, calibrate):
    """A function that runs the warm-up op, the workload's largest, in a fresh interpreter.

    It returns the time from the interpreter's start to the end of that
    first, cold op, scaled by the speed factor of calibrations taken right
    before and after the probe like an op's, and the probe's peak RSS in MB.
    """
    op = plan.warmup
    argv = [sys.executable, str(BENCH / "probe.py"), str(SRC), *op.argv, "--out", str(op.out)]

    def probe() -> tuple[float, float]:
        op.out.unlink(missing_ok=True)
        before = calibrate()
        start = time.monotonic()
        proc = subprocess.run(
            argv, cwd=workdir, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        try:
            end, code, rss_kb = proc.stdout.split()
            end, code, rss_mb = float(end), int(code), int(rss_kb) / 1024
        except ValueError:
            end, code, rss_mb = time.monotonic(), proc.returncode or -1, 0.0
        (speed,) = calibrate.speed_factors([before, calibrate()])
        data = op.out.read_bytes() if op.out.exists() else None
        tally.record(op, code, data)
        return (end - start) * speed, rss_mb

    return probe


def latency_summary(latencies):
    cuts = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    p90 = cuts[8]
    above = sum(lat > p90 for lat in latencies)
    return statistics.median(latencies), p90, above


def run(workload, seed, seconds, trace):
    """Run one workload; return (result dict, printable lines)."""
    cli = import_framelab()
    lines = [environment()]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        plan = workloads.build_plan(workload, seed, workdir, seconds)
        refused = workloads.refusal(plan, mem_available())
        if refused:
            raise Refused(refused)
        tally = Tally()
        calibrate = Calibrator(plan.calibration)
        probe = None
        if not trace:
            probe = setup_probe(plan, tally, workdir, calibrate)
            probe()  # discarded: writes the bytecode caches, warms the page cache

        # Warm-up: imports, first LAPACK call, caches; checked, not timed.
        _latency, code, data = run_op(cli, plan.warmup)
        tally.record(plan.warmup, code, data)

        if trace:
            from tracing import LAYER_METRICS, Tracer, layer_metrics

            tracer = Tracer()
            loop, _ = timed_loop(cli, plan, seconds, tally, calibrate, tracer)
            values = layer_metrics(tracer.spans, loop.speed)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
            on = [lat for lat, t in zip(loop.latencies, loop.traced) if t]
            off = [lat for lat, t in zip(loop.latencies, loop.traced) if not t]
            metrics["trace.overhead_ratio"] = {
                "value": statistics.median(on) / statistics.median(off) if on else 1.0,
                "unit": "ratio",
            }
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
            tracer.write(spans_path)
            lines.append(
                f"untraced ops: {len(off)}, traced ops: {len(on)}, "
                f"spans: {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}"
            )
        else:
            loop, setups = timed_loop(
                cli, plan, seconds, tally, calibrate, probe=probe, probes=SETUP_PROBES
            )
            p50, p90, above = latency_summary(loop.latencies)
            lines.append(
                f"timed ops: {len(loop.latencies)} in {loop.wall:.2f} s; {above} above p90; "
                f"speed factor median {statistics.median(loop.speed):.3f} "
                f"(range {min(loop.speed):.3f}..{max(loop.speed):.3f}); "
                f"uncalibrated latency p50 {statistics.median(loop.raw_latencies) * 1e3:.2f} ms"
            )
            lines.append("setup probes: " + " ".join(f"{t:.3f}" for t, _ in setups) + " s")
            lines.append(
                "benchmark process peak RSS, over all its ops: "
                f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB"
            )
            if above < 10:
                lines.append("note: fewer than ten samples above p90; latency_p90_ms is not reliable")
            correct_ops = tally.attempted - tally.failed
            values = {
                "latency_p50_ms": p50 * 1e3,
                "latency_p90_ms": p90 * 1e3,
                "ops_per_s": len(loop.cycles) / sum(loop.cycles),
                "success_ratio": correct_ops / tally.attempted,
                "peak_rss_mb": statistics.median(rss for _, rss in setups),
                "setup_s": statistics.median(t for t, _ in setups),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines.extend(plan.notes)
        lines.extend(f"failure: {r}" for r in tally.reasons)
        lines.extend(f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items())
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=tuple(workloads.PLANS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Refused as exc:
        # Reported, not crashed: no op ran, so the one planned op failed.
        print(exc)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {"success_ratio": {"value": 0.0, "unit": "ratio"}}}))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
