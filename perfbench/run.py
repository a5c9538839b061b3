#!/usr/bin/env python3
"""Benchmark of projderiv's verify loop.

    python3 perfbench/run.py --workload verify_default --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

The package is imported from the `src/` next to this directory. Each
workload runs in one single-threaded process that calls `projderiv.cli.main`
in-process for every item (see workloads.py). Passes over the items repeat,
interleaved, for about `--seconds` and at least three times; `pass_s` is the
sum of the per-item medians. The first call of each item records its
reference output: every call must exit 0, pass all its checks and repeat that
output byte for byte (reports apart from the timestamp), or the run exits 1.
When the benchmark itself cannot finish, it prints the traceback and exits 3
without a result line.

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
it holds the per-layer metrics of one traced pass and writes the span file
(see README.md). The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# pin the BLAS and OpenMP pools before numpy is imported, here and in every
# child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import gzip
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3  # timed passes, whatever --seconds says
BLOCK_S = 0.2  # an item faster than this is called repeatedly per sample
MAX_BLOCK = 50
SETUP_PER_PASS = 1  # fresh-interpreter set-up samples after each pass
SETUP_ATTEMPTS = 3  # fresh interpreters tried per sample before the run fails
EXIT_FAILED = 1  # a check failed, a call exited non-zero or raised, or a repeat differed
EXIT_NO_SOURCES = 2
EXIT_BENCH_ERROR = 3  # the benchmark itself could not finish

# Calibration: a fixed pure-Python loop timed right before and after every
# timed block. Reported times are converted to the reference speed, at which
# the loop takes CALIBRATION_REF_S (its time on an uncontended core of a 2-vCPU
# Intel Xeon VM), so that a shared machine slowing down for minutes at a time
# does not read as a regression.
CALIBRATION_LOOP = 100_000
CALIBRATION_REF_S = 0.006

SETUP_CODE = """
import importlib, json, sys, time
lazy = json.loads(sys.argv[1])
start = time.perf_counter()
import projderiv.cli
for name in lazy:
    if name not in sys.modules:
        try:
            importlib.import_module(name)
        except Exception:  # built-in state such as cython_runtime
            pass
print("setup_s", repr(time.perf_counter() - start), flush=True)
"""

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def normalize_report(text: str) -> str:
    """A report with its timestamp value blanked, the only field allowed to
    differ between repeats."""
    return _TIMESTAMP.sub('"timestamp": ""', text)


class Runner:
    """Calls a workload's items through the CLI and checks their outputs.

    `attempted` counts every check a call made plus one per call for its exit
    status and repeat identity; `failures` lists what failed."""

    def __init__(self, workload, seed: int, tmp_dir: Path):
        import projderiv.cli

        self.cli = projderiv.cli
        self.workload = workload
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.reference: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.last_passed = 0  # checks the last call passed
        self.last_out_bytes = 0  # stdout plus report bytes of the last call

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        self.last_passed += ok
        if not ok:
            self.failures.append(message)

    def call(self, idx: int, tracer=None) -> float:
        """One CLI call of item `idx`; returns its wall time."""
        item = self.workload.items[idx]
        out_path = self.tmp_dir / f"item{idx}.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_request(item.label)
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(item.argv(self.seed, str(out_path)))
            except Exception as exc:  # a crashing item fails; the run goes on
                code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()

        self.last_passed = 0
        report = ""
        if item.command == "run" and out_path.exists():
            report = out_path.read_text(encoding="utf-8")
            out_path.unlink()
            for check in json.loads(report)["checks"]:
                self.expect(check["passed"], f"{item.label}: check failed: {check['name']}")
        self.last_out_bytes = len(stdout.getvalue().encode()) + len(report.encode())
        output = (stdout.getvalue(), normalize_report(report))
        if code != 0:
            self.expect(False, f"{item.label}: exit {code}: {stderr.getvalue().strip()[-500:]}")
        else:
            reference = self.reference.setdefault(idx, output)
            self.expect(output == reference, f"{item.label}: output differs from its first call")
        return elapsed

    def block(self, idx: int, repeats: int, tracer_factory=None) -> float:
        """Mean wall time of `repeats` back-to-back calls of one item, each
        traced by the factory's tracer when a factory is given."""
        gc.collect()
        total = 0.0
        for _ in range(repeats):
            if tracer_factory is None:
                total += self.call(idx)
                continue
            tracer = tracer_factory()
            tracer.install()
            try:
                total += self.call(idx, tracer)
            finally:
                tracer.uninstall()
        return total / repeats


def calibration_seconds(repeats: int = 5) -> float:
    """Median wall time of the calibration loop: how fast the machine runs
    Python right now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrated(measure):
    """Run `measure()` between two calibration timings; returns its wall
    time and that time converted to the reference speed."""
    before = calibration_seconds()
    wall = measure()
    loop_s = (before + calibration_seconds()) / 2
    return wall, wall * CALIBRATION_REF_S / loop_s


def median_pass(samples: list[list[float]]) -> float:
    return sum(statistics.median(values) for values in samples)


def setup_seconds(lazy_modules: list[str]) -> float:
    """Import time of projderiv.cli plus the modules a first pass loads
    lazily, measured in a fresh interpreter.

    The interpreter is a separate process, so a start-up the operating system
    refuses for a moment (no free process slot, memory) or a killed child
    would otherwise end the whole run; such an attempt is reported on stderr
    and retried, and the run stops after SETUP_ATTEMPTS failures in a row.
    The time returned is measured inside the interpreter that succeeded."""
    errors = []
    for attempt in range(SETUP_ATTEMPTS):
        if attempt:
            time.sleep(1.0)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, json.dumps(lazy_modules)],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            errors.append(f"could not run: {exc!r}")
        else:
            times = [line.split()[1] for line in proc.stdout.splitlines()
                     if line.startswith("setup_s ")]
            if proc.returncode == 0 and len(times) == 1:
                return float(times[0])
            errors.append(f"exited {proc.returncode}:\n{proc.stdout[-1000:]}\n{proc.stderr[-2000:]}")
        print(f"set-up interpreter, attempt {attempt + 1}: {errors[-1]}", file=sys.stderr)
    raise RuntimeError(f"set-up interpreter failed {SETUP_ATTEMPTS} times")


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    info = {"config": "unknown", "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:  # no procfs
        return info
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            info["threads"] = get_threads()
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
            return info
    return info


def machine_info() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "openblas": _openblas(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Timed passes over the workload's items, and the set-up measurement
    between passes. Returns the full result record."""
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    import projderiv.cli

    import layers
    import tracer as tracing

    if not Path(projderiv.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"projderiv was imported from {projderiv.cli.__file__}, not {SRC}")
    loaded = set(sys.modules)

    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        runner = Runner(workload, seed, tmp_dir)
        n = len(workload.items)
        first = tracing.Tracer()  # keeps the spans of the first traced pass
        modes = ["untraced"]
        if trace:
            modes.append("traced")
            first.install()
            missing = first.unwrapped_bindings()
            first.uninstall()
            runner.expect(not missing, f"tracer left bindings unwrapped: {missing}")

        def tracer_factory(mode: str):
            if mode == "untraced":
                return None
            return (lambda: first) if passes == 0 else tracing.Tracer

        wall = {mode: [[] for _ in range(n)] for mode in modes}
        samples = {mode: [[] for _ in range(n)] for mode in modes}  # at reference speed
        repeats = [1] * n
        checks_passed = out_bytes = 0
        setup_wall: list[float] = []
        setup: list[float] = []
        passes = 0
        start = time.perf_counter()
        while True:
            for k in range(n):
                idx = (k + passes) % n
                for mode in modes if passes % 2 == 0 else modes[::-1]:
                    factory = tracer_factory(mode)
                    seconds_wall, seconds_ref = calibrated(
                        lambda: runner.block(idx, repeats[idx], factory))
                    wall[mode][idx].append(seconds_wall)
                    samples[mode][idx].append(seconds_ref)
                    if passes == 0:
                        checks_passed += runner.last_passed if mode == "untraced" else 0
                        out_bytes += runner.last_out_bytes if mode == "traced" else 0
            if passes == 0:
                lazy_modules = [m for m in sys.modules if m not in loaded]
                repeats = [max(1, min(MAX_BLOCK, round(BLOCK_S / max(s[0], 1e-6))))
                           for s in wall["untraced"]]
            for _ in range(0 if trace else SETUP_PER_PASS):
                seconds_wall, seconds_ref = calibrated(lambda: setup_seconds(lazy_modules))
                setup_wall.append(seconds_wall)
                setup.append(seconds_ref)
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes > seconds:
                break
        untraced = samples["untraced"]
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "items": [item.label for item in workload.items],
            "block_repeats": repeats, "passes": passes, "measured_s": elapsed,
            "calibration_ref_s": CALIBRATION_REF_S,
            "item_wall_s": wall["untraced"],
            "item_samples_s": untraced,
            "item_median_s": [statistics.median(s) for s in untraced],
            "pass_wall_s": median_pass(wall["untraced"]),
        }
        if not trace:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (median_pass(untraced), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "checks_passed": (checks_passed, "count"),
            }
            result.update(setup_samples_s=setup, setup_wall_s=setup_wall,
                          lazy_modules=lazy_modules)
        else:
            traced_pass = median_pass(samples["traced"])
            layer = layers.layer_metrics(first)
            layer.update({
                "cli.out_bytes": out_bytes,
                "bench.traced_pass_s": traced_pass,
                "bench.untraced_pass_s": median_pass(untraced),
                "bench.trace_overhead_s": traced_pass - median_pass(untraced),
            })
            metrics = {k: (layer[k], unit) for k, unit in layers.PER_LAYER.items()}
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
            with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
                first.write(handle)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
            result["traced_item_samples_s"] = samples["traced"]
            result["traced_item_wall_s"] = wall["traced"]
        result.update(
            checks_passed_per_pass=checks_passed,
            attempted=runner.attempted,
            failed=len(runner.failures),
            failures=runner.failures,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            machine=machine_info(),
        )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    path = OUT_DIR / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    result["results_file"] = str(path.relative_to(ROOT))
    return result


def print_summary(result: dict) -> None:
    m = result["metrics"]
    machine = result["machine"]
    blas = machine["openblas"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({len(result['items'])} items, {result['passes']} timed passes "
          f"in {result['measured_s']:.1f} s)")
    print(f"machine: nproc {machine['nproc']}, python {machine['python']}, numpy {machine['numpy']}, "
          f"scipy {machine['scipy']}, {blas['config']} ({blas['threads']} threads)")
    print(f"  {'item':48s} {'median_s':>9s} {'samples':>8s}")
    for label, median, samples, reps in zip(result["items"], result["item_median_s"],
                                            result["item_samples_s"], result["block_repeats"]):
        print(f"  {label:48s} {median:9.4f} {len(samples):>4d}x{reps:<3d}")
    for name, metric in m.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  (times at the reference speed; pass_s is the sum of {len(result['items'])} "
          f"per-item medians of {result['passes']} samples each, "
          f"{result['pass_wall_s']:.4f} s in wall time)")
    if not result["trace"]:
        print(f"  (setup_s: median of {len(result['setup_samples_s'])} fresh interpreters, "
              f"{statistics.median(result['setup_wall_s']):.4f} s in wall time)")
    print(f"checks_failed {result['failed']} / checks_total {result['attempted']} "
          f"({result['checks_passed_per_pass']} passed in the first pass)")
    for message in result["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"results: {result['results_file']}" +
          (f", spans: {result['spans_file']}" if "spans_file" in result else ""))


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode not in (0, EXIT_FAILED) or not lines:
            continue
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projderiv" / "cli.py").is_file():
        print(f"error: no projderiv sources under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return EXIT_NO_SOURCES
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - reported with its traceback, apart from failed checks
        traceback.print_exc()
        print(f"error: the benchmark itself failed (exit {EXIT_BENCH_ERROR}); "
              "no result is printed", file=sys.stderr)
        return EXIT_BENCH_ERROR
    print_summary(result)
    print(result_line(result))
    return 0 if result["failed"] == 0 else EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
