"""The traced run: per-layer metrics, separate from the end-to-end runs.

It has three parts, all under one run id:

1. One cycle of every workload, each call a fresh traced child process
   (child.py cli) that records spans around partlab's public functions.
   The sampled campaign runs at --jobs 1 here, so its chunks are spans of
   the traced process instead of pool workers.  Span self times and the
   reports' deterministic counts give the layer metrics.
2. The same cycle of the selected workload untraced, just before its traced
   twin; the difference of the two walls is the tracing overhead of that
   workload.
3. Layer probes: timed direct calls in this process on inputs made from the
   seed, and fresh processes (child.py cold) for the cold, once-per-process
   costs: import, partition space, comb context and greedy precompute.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import uuid
from pathlib import Path

import proc
import tracing
from workloads import ADVERSARIAL, SAMPLED, WORKLOADS

HERE = Path(__file__).resolve().parent
PROBE_N = 11  # the enumeration probes walk all 678570 partitions of 11 points
RGS_LEQ_PAIRS = 200_000
PER_MAP_MAPS = 200
FIND_WITNESS_MAPS = 100
COLD = {"n6": SAMPLED, "n8": ADVERSARIAL, "n9": (3, 2, 3)}  # bad-pairs in session runs at (3, 2, 3)

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list
METRICS = {
    "partitions.iter_rgs_per_s": ("1/s", "higher"),
    "partitions.enumerate_per_s": ("1/s", "higher"),
    "partitions.rgs_leq_per_s": ("1/s", "higher"),
    "witness.space_ms_n6": ("ms", "lower"),
    "witness.space_ms_n8": ("ms", "lower"),
    "witness.space_ms_n9": ("ms", "lower"),
    "witness.context_ms_n6": ("ms", "lower"),
    "witness.context_ms_n8": ("ms", "lower"),
    "witness.context_ms_n9": ("ms", "lower"),
    "witness.greedy_s": ("s", "lower"),
    "witness.emap_ms_per_map": ("ms", "lower"),
    "witness.scan_ms_per_map": ("ms", "lower"),
    "witness.revalidate_ms_per_map": ("ms", "lower"),
    "witness.find_witness_ms_n4": ("ms", "lower"),
    "witness.find_witness_ms_n5": ("ms", "lower"),
    "witness.sampled.tested": ("count", "higher"),
    "witness.sampled.failures": ("count", "lower"),
    "witness.sampled.witnessed_ratio": ("ratio", "higher"),
    "witness.sampled.revalidations": ("count", "lower"),
    "witness.adversarial.tested": ("count", "higher"),
    "witness.adversarial.failures": ("count", "lower"),
    "witness.adversarial.shapes": ("count", "lower"),
    "witness.adversarial.witnessed_ratio": ("ratio", "higher"),
    "cli.import_ms": ("ms", "lower"),
    "cli.chunks": ("count", "lower"),
    "cli.chunk_s": ("s", "lower"),
    "cli.campaign_overhead_s": ("s", "lower"),
    "reports.to_json_ms": ("ms", "lower"),
    "reports.bytes": ("bytes", "lower"),
    "tree.verify_tree_ms": ("ms", "lower"),
    "tree.find_section_witness_ms": ("ms", "lower"),
    "witness.fusion_step_ms": ("ms", "lower"),
    "prefixes.induced_coarsening_ms": ("ms", "lower"),
    "e1.reduce_f_ms": ("ms", "lower"),
    "e1.blowup_ms": ("ms", "lower"),
    "counting.entropy_sweep_ms": ("ms", "lower"),
    "counting.count_extensions_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def bell(n: int) -> int:
    """Bell number by the Bell triangle, independent of partlab's counting code."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _busy(spans: list, name: str) -> list[float]:
    return [s[5] for s in spans if s[2] == name]


def _median_ms(spans: list, name: str) -> float:
    return statistics.median(_busy(spans, name)) * 1e3


def _traced_cycle(w, seed: int, runner, run_id: str) -> tuple[float, list, list]:
    """Run one traced cycle; return its wall seconds, its spans and its report texts."""
    wall, spans, reports = 0.0, [], []
    for i, step in enumerate(w.traced(seed)):
        spans_path = runner.workdir / f"spans-{w.name}-{i}.json"
        call, report = runner.call(step, prefix=[str(HERE / "child.py"), "cli", run_id, str(spans_path)])
        wall += call.wall_s
        with open(spans_path) as fh:
            spans += json.load(fh)["spans"]
        spans_path.unlink()
        reports.append(report)
    return wall, spans, reports


def _campaign_counts(prefix: str, report_text: str) -> dict[str, float]:
    details = json.loads(report_text)["report"]["details"]
    out = {
        f"{prefix}.tested": details["tested"],
        f"{prefix}.failures": details["failures"],
        f"{prefix}.witnessed_ratio": (details["tested"] - details["failures"]) / details["tested"],
    }
    if prefix.endswith("adversarial"):
        out[f"{prefix}.shapes"] = len(details["counterexample_shapes"])
    return out


def _cold(runner, seed: int) -> dict[str, float]:
    """Cold once-per-process costs, each measured in a fresh interpreter."""
    out, imports = {}, []
    for tag, (k, m, N) in COLD.items():
        runs = ["sampled", "adversarial"] if (k, m, N) == ADVERSARIAL else ["sampled"]
        one_map = {}
        for strategy in runs:
            call = proc.run([str(HERE / "child.py"), "cold", str(k), str(m), str(N), strategy, str(seed)],
                            runner.root, runner.workdir)
            runner.attempted += 1
            if call.exit != 0:
                runner.failed += 1
                raise RuntimeError(f"cold probe failed: {call.stderr[-500:]}")
            doc = json.loads(call.stdout)
            imports.append(doc["import_ms"])
            one_map[strategy] = doc["one_map_s"]
            out[f"witness.space_ms_{tag}"] = doc["space_ms"]
            out[f"witness.context_ms_{tag}"] = doc["context_ms"]
        if "adversarial" in one_map:
            out["witness.greedy_s"] = one_map["adversarial"] - one_map["sampled"]
    out["cli.import_ms"] = statistics.median(imports)
    return out


def _probes(tracer: tracing.Tracer, seed: int) -> dict[str, float]:
    """Direct calls into each layer on inputs made from the seed."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from partlab.counting import count_extensions, profile_of
    from partlab.errors import DomainError
    from partlab.partitions import SetPartition, enumerate_partitions, iter_rgs, rgs_leq
    from partlab.witness import EMapTable, bad_pairs, find_witness, partition_space, witness_is_valid

    rng = random.Random(seed)
    out = {}

    def rate(name, items, fn, *args):
        t0 = time.perf_counter()
        tracer.span(name, fn, *args)
        return items / (time.perf_counter() - t0)

    def drain(gen):
        for _ in gen:
            pass

    total = bell(PROBE_N)
    out["partitions.iter_rgs_per_s"] = rate("partitions.iter_rgs", total, lambda: drain(iter_rgs(PROBE_N)))
    out["partitions.enumerate_per_s"] = rate("partitions.enumerate_partitions", total,
                                             lambda: drain(enumerate_partitions(PROBE_N)))
    space8 = partition_space(8)
    pairs = [(rng.choice(space8), rng.choice(space8)) for _ in range(RGS_LEQ_PAIRS)]
    out["partitions.rgs_leq_per_s"] = rate("partitions.rgs_leq", len(pairs),
                                           lambda: [rgs_leq(s, t) for s, t in pairs])

    k, m, N = SAMPLED
    size = len(partition_space(k * N))
    emap, scan, revalidate = [], [], []
    for _ in range(PER_MAP_MAPS):
        values = tuple(rng.randrange(size) for _ in range(size))
        t0 = time.perf_counter()
        e = tracer.span("witness.EMapTable", EMapTable, k * N, values)
        t1 = time.perf_counter()
        report = tracer.span("witness.bad_pairs", bad_pairs, e, k, m, N)
        t2 = time.perf_counter()
        emap.append(t1 - t0)
        scan.append(t2 - t1)
        if report.witness is not None:
            if not tracer.span("witness.witness_is_valid", witness_is_valid, e, report.witness, m):
                raise RuntimeError("a witness returned by bad_pairs failed re-validation")
            revalidate.append(time.perf_counter() - t2)
    out["witness.emap_ms_per_map"] = statistics.median(emap) * 1e3
    out["witness.scan_ms_per_map"] = statistics.median(scan) * 1e3
    out["witness.revalidate_ms_per_map"] = statistics.median(revalidate) * 1e3

    for n in (4, 5):
        size = len(partition_space(n))
        times = []
        for _ in range(FIND_WITNESS_MAPS):
            e = EMapTable(n, tuple(rng.randrange(size) for _ in range(size)))
            t0 = time.perf_counter()
            tracer.span("witness.find_witness", find_witness, e, 2, n)
            times.append(time.perf_counter() - t0)
        out[f"witness.find_witness_ms_n{n}"] = statistics.median(times) * 1e3

    def extensions():
        for rgs in partition_space(6):
            try:
                count_extensions(profile_of(SetPartition(rgs), 2, 2), 3, 2, 2)
            except DomainError:
                pass  # t coarsens no (3, 2, 2) equipartition

    out["counting.count_extensions_per_s"] = statistics.median(
        rate("counting.count_extensions", len(partition_space(6)), extensions) for _ in range(5))
    return out


def trace_run(w, seed: int, runner) -> dict:
    """Per-layer metrics for one traced run of workload w."""
    run_id = uuid.uuid4().hex[:12]
    tracer = tracing.Tracer(run_id)
    walls, spans, reports = {}, {}, {}
    for name, other in WORKLOADS.items():
        if name == w.name:  # right before its traced twin, so both meet the same machine load
            untraced = sum(runner.call(step)[0].wall_s for step in w.traced(seed))
        walls[name], spans[name], reports[name] = _traced_cycle(other, seed, runner, run_id)

    out = {"trace.overhead_s": walls[w.name] - untraced}
    out.update(_campaign_counts("witness.sampled", reports["comb-sampled"][0]))
    out.update(_campaign_counts("witness.adversarial", reports["comb-adversarial"][0]))
    sampled = spans["comb-sampled"]
    main = next(s for s in sampled if s[2] == "cli.main")
    chunks = [s for s in sampled if s[2] == "witness.verify_comb" and s[1] == main[0]]
    out["cli.chunks"] = len(chunks)
    out["cli.chunk_s"] = statistics.median(s[5] for s in chunks)
    out["cli.campaign_overhead_s"] = main[5] - sum(s[5] for s in chunks)
    out["witness.sampled.revalidations"] = len(_busy(sampled, "witness.witness_is_valid"))
    out["reports.to_json_ms"] = sum(_busy(spans["comb-adversarial"], "reports.to_json_dict")) * 1e3
    out["reports.bytes"] = len(reports["comb-adversarial"][0].encode())
    session = spans["session"]
    for metric, span in (
        ("tree.verify_tree_ms", "tree.verify_tree"),
        ("tree.find_section_witness_ms", "tree.find_section_witness"),
        ("witness.fusion_step_ms", "witness.fusion_step"),
        ("prefixes.induced_coarsening_ms", "prefixes.induced_coarsening_h"),
        ("e1.reduce_f_ms", "e1.reduce_f"),
        ("e1.blowup_ms", "e1.blowup_iso"),
    ):
        out[metric] = _median_ms(session, span)
    out["counting.entropy_sweep_ms"] = sum(_busy(session, "counting.entropy_bounds")) * 1e3
    out.update(_cold(runner, seed))
    out.update(_probes(tracer, seed))

    for name in WORKLOADS:
        print(f"  self time by span, traced {name} cycle ({walls[name]:.3f} s wall):")
        rows = sorted(tracing.self_times(spans[name]).items(), key=lambda kv: -kv[1]["self_s"])
        for span, row in rows[:8]:
            print(f"    {span:36} calls={row['calls']:<7} busy={row['busy_s']:9.4f} s self={row['self_s']:9.4f} s")
    print(f"  trace.overhead_s = traced {walls[w.name]:.4f} s - untraced {untraced:.4f} s for one {w.name} cycle")
    for name, (unit, _) in METRICS.items():
        print(f"  {name:36} {out[name]:14.4f} {unit}")

    trace_dir = runner.root / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{run_id}.json", "w") as fh:
        all_spans = [s for name in WORKLOADS for s in spans[name]] + tracer.spans
        json.dump({"run_id": run_id, "workload": w.name, "seed": seed, "spans": all_spans}, fh)
    return {name: {"value": out[name], "unit": unit} for name, (unit, _) in METRICS.items()}
