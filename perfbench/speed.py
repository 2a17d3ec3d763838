"""Speed correction for a shared machine whose cores change speed.

On the 2-core machine the benchmark was sized on, other tenants slow
partlab's calls by up to 2x. A slow phase lasts from seconds to minutes, and
each core has its own. Raw times then mostly tell which phases a run met:
over six seeds, the quartile spread of the per-run median cycle was 30% of
the median for `session` and for `comb-adversarial`.

So a run keeps its calls on fixed cores. Now and then it also runs a
reference call on those cores: a fresh interpreter that runs this file,
which walks all restricted growth strings of 10 points. That is start-up
plus pure-Python work, like partlab's calls, and it shares no code with
partlab. Each time metric is reported as measured x REFERENCE_S / the run's
median reference time. It reads as seconds on cores where the reference
call takes REFERENCE_S. On those six seeds the spread fell to 16% and 10%;
a reference loop timed inside the benchmark's own process did worse (27%
and 17%). A change to partlab moves the measured time and not the
reference, so a real gain or loss shows in full.

Run this file directly to make one reference call's work.
"""

from __future__ import annotations

import os
import statistics
from contextlib import contextmanager
from pathlib import Path

import proc

REFERENCE_N = 10  # 115975 restricted growth strings
REFERENCE_S = 0.15  # one reference call on a quiet core of the sizing machine
REFERENCE_EVERY_S = 2.0  # measured time between two reference calls


def _reference_loop(n: int) -> int:
    """Count restricted growth strings of length n by their successor rule."""
    a, b, count = [0] * n, [0] * n, 0
    while True:
        count += 1
        i = n - 1
        while i >= 1 and a[i] > b[i]:
            i -= 1
        if i < 1:
            return count
        a[i] += 1
        top = max(b[i], a[i])
        for j in range(i + 1, n):
            a[j], b[j] = 0, top


def reference_time(cpus: list[int], root: Path, workdir: Path) -> float:
    """Wall seconds of one reference call, averaged over the given cores."""
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            call = proc.run([str(Path(__file__).resolve())], root, workdir)
            if call.exit != 0:
                raise RuntimeError(f"reference call failed: {call.stderr[-300:]}")
            times.append(call.wall_s)
    finally:
        os.sched_setaffinity(0, set(cpus))
    return statistics.mean(times)


@contextmanager
def pinned(parallel: bool):
    """Keep this process and every call it starts on fixed cores; yield them.

    A one-process workload gets one core, so its calls and the reference
    calls meet the same neighbours. A parallel one keeps every core.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed if parallel else allowed[:1]
    os.sched_setaffinity(0, set(cpus))
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, set(allowed))


if __name__ == "__main__":
    _reference_loop(REFERENCE_N)
