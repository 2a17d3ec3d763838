"""Child process of the traced run.

    python3 perfbench/child.py cli RUN_ID SPANS_PATH ARGS...
        Run `partlab ARGS...` in this process with spans around partlab's
        public functions; write the spans to SPANS_PATH when it ends, and
        exit with the command's exit code.

    python3 perfbench/child.py cold K M N STRATEGY SEED
        In a fresh interpreter, time `import partlab.cli`, a cold
        partition_space(K*N), the comb context (verify_comb with Sampled(0)
        once the space is cached), then one map of STRATEGY (sampled or
        adversarial); print the times as one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run_cli(run_id: str, spans_path: str, args: list[str]) -> int:
    import partlab.cli
    from tracing import Tracer, install

    tracer = Tracer(run_id)
    install(tracer)
    try:
        return partlab.cli.main(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run_id": run_id, "spans": tracer.spans}, fh)


def run_cold(k: int, m: int, N: int, strategy: str, seed: int) -> int:
    t0 = time.perf_counter()
    import partlab.cli  # noqa: F401
    from partlab.witness import Adversarial, Sampled, partition_space, verify_comb

    t1 = time.perf_counter()
    partition_space(k * N)
    t2 = time.perf_counter()
    verify_comb(k, m, N, Sampled(0))
    t3 = time.perf_counter()
    verify_comb(k, m, N, Adversarial(1, seed) if strategy == "adversarial" else Sampled(1, seed))
    t4 = time.perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "space_ms": (t2 - t1) * 1e3,
                      "context_ms": (t3 - t2) * 1e3, "one_map_s": t4 - t3}))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1], rest[2:]))
    if mode == "cold":
        sys.exit(run_cold(int(rest[0]), int(rest[1]), int(rest[2]), rest[3], int(rest[4])))
    sys.exit(f"unknown mode {mode!r}")
