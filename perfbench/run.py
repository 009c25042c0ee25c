"""quantrl benchmark: one workload, timed through the CLI, outputs checked.

    python3 perfbench/run.py --workload dqn_train --seed 42 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from its
`src/` directory, nothing is installed. The benchmark writes the workload's
inputs under `.bench_work/` at the checkout root, then for `--seconds`
alternates two child processes, one at a time:

  --trace 0  a set-up probe (interpreter start, imports, ingest, prepare)
             and one full `python -m quantrl.cli` invocation. Reports the
             end-to-end metrics (medians of the run): total_s, setup_s,
             steps_per_s, peak_rss_mb.
  --trace 1  one untraced and one traced invocation. Reports the per-layer
             metrics derived from the traced run's spans (see tracing.py)
             and the tracing overhead.

Every invocation's emitted files are hashed. A run fails if it exits
non-zero, if its files differ from the first invocation of the run, or if
they differ from the digests pinned in digests.json for this seed. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import layer_metrics, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
# One BLAS thread per child: the machine has two cores and the benchmark
# measures the program, not thread scheduling.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI = [sys.executable, "-m", "quantrl.cli"]
END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program() -> None:
    """Make the checkout's quantrl importable, or stop: there is nothing to measure."""
    if not (SRC / "quantrl" / "__init__.py").is_file():
        print(f"error: no quantrl sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def environment() -> dict[str, str]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(os.cpu_count()),
        "machine": platform.machine(),
    }


@dataclass
class Sample:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def run_child(cwd: Path, argv: list[str]) -> Sample:
    """Run one child to completion; wall time and its own peak RSS come from wait4."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **THREAD_ENV}
    with open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return Sample(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)


def run_cli(cwd: Path, args: list[str]) -> Sample:
    return run_child(cwd, [*CLI, *args])


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def pinned_digests(workload: str, seed: int, env: dict[str, str]) -> tuple[dict | None, str]:
    """Pinned file digests for (workload, seed), or None with the reason there are none."""
    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))
    pinned_env = pins["environment"]
    if (pinned_env["python"], pinned_env["numpy"]) != (env["python"], env["numpy"]):
        raise SystemExit(
            f"error: digests were pinned under python {pinned_env['python']} / numpy "
            f"{pinned_env['numpy']}; this is python {env['python']} / numpy {env['numpy']}. "
            "Re-pin with perfbench/pin.py at a commit whose outputs are the reference."
        )
    files = pins["workloads"].get(workload, {}).get(str(seed))
    return files, "pinned" if files is not None else f"no pin for seed {seed}"


class OutputCheck:
    """Checks child exit codes and report directories; keeps every failure reason."""

    def __init__(self, prepared, pinned: dict | None) -> None:
        self.prepared = prepared
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self.failures: list[str] = []

    def __call__(self, sample: Sample, out: Path | None, label: str) -> bool:
        """True if the child exited 0 and, when `out` is given, its report is right."""
        reason = self._reason(sample, out)
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        return reason is None

    def _reason(self, sample: Sample, out: Path | None) -> str | None:
        if sample.returncode != 0:
            return f"exit {sample.returncode}: {sample.stderr.strip()[-300:]}"
        if out is None:
            return None
        prepared = self.prepared
        files = digest_dir(out)
        if sorted(files) != prepared.expected_files:
            return f"emitted {sorted(files)}, expected {prepared.expected_files}"
        for name in prepared.strategies:
            rows = (out / f"equity_{name}.csv").read_text(encoding="utf-8").count("\n") - 1
            if rows != prepared.test_rows:
                return f"equity_{name}.csv has {rows} rows, expected {prepared.test_rows}"
        if self.pinned is not None and files != self.pinned:
            return "differs from pinned digests: " + ", ".join(
                n for n in sorted(files) if files[n] != self.pinned.get(n)
            )
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            return "differs from the run's first invocation: " + ", ".join(
                n for n in sorted(files) if files[n] != self.reference.get(n)
            )
        return None


def describe(values: list[float], unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    if n > 10:
        tail = f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g} {unit}"
    else:
        tail = "no tail percentile (n <= 10)"
    return f"median {statistics.median(values):.6g} {unit}, {tail}, n={n}"


def measure(prepared, seconds: float, trace: bool, check: OutputCheck) -> tuple[dict, int, int]:
    """Alternate two child processes until `seconds` pass; return metrics, attempted, failed."""
    workdir = prepared.workdir
    out = workdir / "out"
    spans = workdir / "spans.npz"
    probe = [sys.executable, str(HERE / "setup_probe.py"), "config.json"]
    invocation = [*CLI, *prepared.cli_args(out.name)]
    traced = [sys.executable, str(HERE / "tracing.py"), str(spans), *prepared.cli_args(out.name)]
    if trace:
        pair = {"invocation": invocation, "traced invocation": traced}
    else:
        pair = {"set-up probe": probe, "invocation": invocation}
    samples: dict[str, list[Sample]] = {label: [] for label in pair}
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    # Untimed warm-up: compiles bytecode and loads the inputs into the page cache.
    run_child(workdir, probe)
    started = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        for label, argv in pair.items():
            shutil.rmtree(out, ignore_errors=True)
            sample = run_child(workdir, argv)
            attempted += 1
            failed += not check(sample, None if argv is probe else out, label)
            if sample.returncode == 0:
                samples[label].append(sample)
                if argv is traced:
                    layers.append(layer_metrics(spans))
        now = time.perf_counter()
        if now - started + (now - iteration_start) > seconds:
            break
    first, second = samples.values()
    if not first or not second:
        raise SystemExit("error: no invocation exited 0:\n" + "\n".join(check.failures))

    if trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead"] = (
            statistics.median(s.wall_s for s in second) / statistics.median(s.wall_s for s in first)
        )
        print(f"untraced total_s: {describe([s.wall_s for s in first], 's')}")
        print(f"traced total_s:   {describe([s.wall_s for s in second], 's')}")
        return metrics, attempted, failed

    setup = [s.wall_s for s in first]
    total = [s.wall_s for s in second]
    rss = [s.maxrss_mb for s in second]
    metrics = {
        "total_s": statistics.median(total),
        "setup_s": statistics.median(setup),
        "steps_per_s": prepared.steps / (statistics.median(total) - statistics.median(setup)),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"total_s      {describe(total, 's')}")
    print(f"setup_s      {describe(setup, 's')}")
    print(f"steps_per_s  median {metrics['steps_per_s']:.6g} 1/s = "
          f"{prepared.steps} env steps / (median total_s - median setup_s)")
    print(f"peak_rss_mb  {describe(rss, 'MB')}")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 42)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.SPECS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    env = environment()
    pinned, pin_note = pinned_digests(args.workload, seed, env)
    prepared = workloads.prepare(args.workload, seed, WORK_ROOT / args.workload)
    print(f"workload {args.workload}, seed {seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
          + ", " + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    print(f"inputs: {prepared.steps} env steps per invocation; digests {pin_note}")

    check = OutputCheck(prepared, pinned)
    metrics, attempted, failed = measure(prepared, args.seconds, bool(args.trace), check)
    if args.trace:
        units = metric_units()
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    else:
        units = END_TO_END_UNITS
    print(f"failed_frac  {failed / attempted:.4f}   ({failed} of {attempted} child processes)")
    for failure in check.failures:
        print(f"FAIL {failure}")
    print(f"outputs: {'pass' if not check.failures else 'FAIL'} "
          f"(exit codes, byte-identity across invocations, pinned digests: {pin_note})")
    result = {
        "correct": not check.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
