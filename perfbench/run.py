"""partlab's benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload comb-sampled --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7      # every workload in turn
    python3 perfbench/run.py --workload comb-sampled,session --seed 3 --trace 1

Run it from anywhere; it works on the checkout it sits in.  For each
workload it prints machine information, every metric by name and unit
with its sample count, median and quartiles, and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
measures the end-to-end metrics; --trace 1 makes the traced run and
reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import proc
import speed
from workloads import OUT, WORKLOADS, Checker, Step, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_MIN_CALLS = 3
SETUP_MIN_SECONDS = 2.0  # cheap set-ups repeat until this much time is spent


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model or platform.machine()}


def spread(values: list[float]) -> str:
    """Sample count, extremes, median and quartiles of one metric's samples."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} max={max(values):.4f}"


def percentile(values: list[float], p: int) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Runner:
    """Runs checked CLI calls for one workload run and counts what failed."""

    def __init__(self, workdir: Path):
        self.root = ROOT
        self.workdir = workdir
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self._reports = 0

    def call(self, step: Step, prefix: list[str] | None = None) -> tuple[proc.Call, str | None]:
        """Run one step; prefix replaces `-m partlab.cli` (the traced child uses it)."""
        out = self.workdir / f"report-{self._reports}.json"
        self._reports += 1
        args = [str(out) if a == OUT else a for a in step.args]
        if step.kind == "import":
            argv = ["-c", "import partlab.cli"]
        else:
            argv = (prefix or ["-m", "partlab.cli"]) + args
        call = proc.run(argv, self.root, self.workdir)
        report = None
        if step.writes_report and out.exists():
            report = out.read_text()
        # a leftover <out>.state would be resumed without any check, so no path is reused
        for path in (out, Path(f"{out}.state")):
            path.unlink(missing_ok=True)
        reason = self.checker.check(step, call.exit, call.stdout, report)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {' '.join(step.args)}: {reason}; stderr: {call.stderr.strip()[-300:]}", file=sys.stderr)
        return call, report


def measure(w: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    """End-to-end metrics of one workload, tracing off, speed-corrected (see speed.py)."""
    references: list[float] = []
    with speed.pinned(w.parallel) as cpus:

        def reference() -> None:
            references.append(speed.reference_time(cpus, runner.root, runner.workdir))

        reference()
        setup: list[float] = []
        while len(setup) < SETUP_MIN_CALLS or sum(setup) < SETUP_MIN_SECONDS:
            setup.append(runner.call(w.setup(seed))[0].wall_s)
        reference()
        cycles = []  # (wall, cpu, items) per cycle
        calls: dict[tuple[str, ...], list[proc.Call]] = {}
        measured = since_reference = 0.0
        index = 0
        while True:
            steps = w.cycle(seed, index)
            done = [runner.call(s)[0] for s in steps]
            for step, call in zip(steps, done):
                calls.setdefault(step.args, []).append(call)
            cycles.append((sum(c.wall_s for c in done), sum(c.cpu_s for c in done), sum(s.items for s in steps)))
            measured += cycles[-1][0]
            since_reference += cycles[-1][0]
            index += 1
            if since_reference >= speed.REFERENCE_EVERY_S:
                reference()
                since_reference = 0.0
            # closed loop: start another cycle only if it fits in the measured time
            if measured + cycles[-1][0] > seconds:
                break
    scale = speed.REFERENCE_S / statistics.median(references)
    # each distinct command line is represented by its median call
    latencies = sorted(statistics.median(c.wall_s for c in same) * 1e3 for same in calls.values())
    walls, cpu_times = [c[0] for c in cycles], [c[1] for c in cycles]
    rates = [c[2] / c[0] for c in cycles]
    metrics = {  # name: (raw value, scale applied, unit, raw samples)
        "wall_s": (statistics.median(walls), scale, "s", walls),
        "cpu_s": (statistics.median(cpu_times), scale, "s", cpu_times),
        "items_per_s": (statistics.median(rates), 1 / scale, "1/s", rates),
        "cmd_p50_ms": (percentile(latencies, 50), scale, "ms", latencies),
        "cmd_p90_ms": (percentile(latencies, 90), scale, "ms", latencies),
        "setup_s": (statistics.median(setup), scale, "s", setup),
        "peak_rss_mb": (max(c.rss_mb for same in calls.values() for c in same), 1.0, "MB", []),
    }
    n_calls = sum(len(same) for same in calls.values())
    print(f"  {len(cycles)} cycles, {n_calls} calls, {len(calls)} distinct, {cycles[0][2]} items per cycle; "
          f"cores {cpus}")
    print(f"  reference calls: {spread(references)} s; scale {scale:.4f}")
    for name, (raw, factor, unit, samples) in metrics.items():
        print(f"  {name:12} {raw * factor:14.4f} {unit:4} raw {raw:.4f} {spread(samples) if samples else ''}")
    return {name: {"value": raw * factor, "unit": unit} for name, (raw, factor, unit, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a name, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if not (ROOT / "src" / "partlab" / "cli.py").is_file():
        print(f"error: no partlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    info = machine()
    for name in names:
        w = WORKLOADS[name]
        workdir = WORK / f"run-{os.getpid()}-{name}"
        workdir.mkdir()
        runner = Runner(workdir)
        print(f"== {name} seed={args.seed} seconds={args.seconds} trace={args.trace}: {w.why}")
        print(f"  machine: python {info['python']}, nproc {info['nproc']}, {info['cpu']}")
        try:
            if args.trace:
                from layers import trace_run

                metrics = trace_run(w, args.seed, runner)
            else:
                metrics = measure(w, args.seed, args.seconds, runner)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"  failed_ratio={runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted} calls failed a check)")
        print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
