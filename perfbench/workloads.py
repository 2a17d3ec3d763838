"""The workloads: which partlab commands they run and how each call is checked.

A workload is a cycle of CLI calls that a run repeats, closed loop with one
client, until its time is up.  Every call is a fresh `python3 -m partlab.cli`
process, which is how users pay for the lab.  Inputs are made from the
`--seed` argument only.  Checks use invariants of the output, not golden
bytes, so a change that legitimately rewrites report content still passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

OUT = "{out}"  # replaced by a fresh report path for every call

SAMPLED = (3, 2, 2)  # (k, m, N) of comb-sampled
SAMPLED_MAPS = 20_000  # two 10^4-map chunks, one per pool worker
ADVERSARIAL = (4, 4, 2)  # (k, m, N) of comb-adversarial
ADVERSARIAL_MAPS = 200
SESSION_VARIANTS = 4  # distinct seeds per run, so every command repeats and is compared


@dataclass(frozen=True)
class Step:
    """One CLI call and what its output must satisfy.

    `kind` names the check; `items` is the work it does (maps tested,
    or 1 command); `expect` is the exact stdout of a counting command.
    """

    args: tuple[str, ...]
    kind: str
    items: int = 1
    expect: Optional[str] = None

    @property
    def writes_report(self) -> bool:
        return OUT in self.args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Step]
    cycle: Callable[[int, int], list[Step]]
    # the cycle the traced run replays in process; it differs from `cycle`
    # only where parallel workers would hide spans from the tracer
    trace_cycle: Optional[Callable[[int], list[Step]]] = None
    parallel: bool = False  # its calls start worker processes

    def traced(self, seed: int) -> list[Step]:
        return self.trace_cycle(seed) if self.trace_cycle else self.cycle(seed, 0)


def _kmn(kmn: tuple[int, int, int]) -> tuple[str, ...]:
    k, m, N = kmn
    return ("--k", str(k), "--m", str(m), "--N", str(N))


def _campaign(kmn, strategy: str, maps: int, jobs: Optional[int] = None) -> Step:
    args = ("verify-comb", *_kmn(kmn), "--strategy", strategy)
    if jobs is not None:
        args += ("--jobs", str(jobs))
    return Step(args + ("--out", OUT), "campaign", items=maps)


# -- comb campaigns -------------------------------------------------------------


def _sampled_cycle(seed: int, index: int, jobs: int = 2) -> list[Step]:
    return [_campaign(SAMPLED, f"sampled:{SAMPLED_MAPS}:{seed}", SAMPLED_MAPS, jobs)]


def _adversarial_cycle(seed: int, index: int) -> list[Step]:
    return [_campaign(ADVERSARIAL, f"adversarial:{ADVERSARIAL_MAPS}:{seed}", ADVERSARIAL_MAPS)]


# -- session --------------------------------------------------------------------


def _random_rgs(rng: random.Random, n: int, min_blocks: int = 1) -> str:
    while True:
        rgs, top = [], -1
        for _ in range(n):
            v = rng.randint(0, top + 1)
            top = max(top, v)
            rgs.append(v)
        if top + 1 >= min_blocks:
            return ",".join(map(str, rgs))


def _session_cycle(seed: int, index: int) -> list[Step]:
    d = seed * 100 + index % SESSION_VARIANTS
    rng = random.Random(d)
    a1, a2 = rng.randint(1, 4), rng.randint(1, 4)
    ratio = ("--a1", str(a1), "--a2", str(a2), "--b1", str(rng.randint(0, a1)),
             "--b2", str(rng.randint(0, a2)), "--N", str(rng.randint(2, 6)))
    return [
        Step(("bad-pairs", "--k", "3", "--m", "2", "--N", "3", "--e-map", f"random:{d}"), "census"),
        Step(("fusion-demo", "--L", str(8 + d % 3), "--Mprime", str(4 + d % 2), "--seed", str(d)), "fusion"),
        Step(("verify-tree", "--k", "2", "--N", "3", "--strategy", f"sampled:300:{d}"), "report"),
        Step(("reduce-e1", "--L", str(8 + d % 3), "--rows", "4", "--cols", "4", "--seed", str(d)), "text"),
        Step(("encode", "--p", _random_rgs(rng, 6 + d % 3)), "text"),
        Step(("blowup", "--a", _random_rgs(rng, 4), "--d", _random_rgs(rng, 8, min_blocks=4)), "text"),
        Step(("entropy-check", "--b-max", "64"), "entropy"),
        Step(("ratio", *ratio), "text"),
        # equipartitions of 9 points into 3 blocks of 3 with points 0, 1 apart: 280 - 7 * 10
        Step(("count", "--k", "3", "--N", "3", "--m", "2"), "count", expect="210"),
        Step(("verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", "exhaustive"), "report"),
        Step(("find-threshold", "--k", "2", "--m", "2", "--samples", "500", "--seed", str(d)), "threshold"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "comb-sampled",
            "20000 sampled maps in two chunks on a 2-worker pool: per-map scan and re-validation, checkpoint, merge",
            setup=lambda seed: _campaign(SAMPLED, f"sampled:1:{seed}", 1, jobs=2),
            cycle=_sampled_cycle,
            trace_cycle=lambda seed: _sampled_cycle(seed, 0, jobs=1),
            parallel=True,
        ),
        Workload(
            "comb-adversarial",
            "greedy adversary: one-off score precompute, nearly every map witness-free, shapes serialised",
            setup=lambda seed: _campaign(ADVERSARIAL, f"adversarial:1:{seed}", 1),
            cycle=_adversarial_cycle,
        ),
        Workload(
            "session",
            "eleven one-shot commands round-robin: interpreter start and import dominate, no amortised set-up",
            setup=lambda seed: Step((), "import"),
            cycle=_session_cycle,
        ),
    )
}


# -- checks ---------------------------------------------------------------------


def _without_timing(doc):
    """The document minus every elapsed_ms field and the report path."""
    if isinstance(doc, dict):
        return {k: _without_timing(v) for k, v in doc.items() if k not in ("elapsed_ms", "out")}
    if isinstance(doc, list):
        return [_without_timing(v) for v in doc]
    return doc


def _expected_exit(kind: str, doc) -> int:
    """The exit code the CLI documents for this output."""
    if kind == "campaign":
        return 1 if doc["report"]["details"]["failures"] > 0 else 0
    if kind == "report":
        return 0 if doc["report"]["details"]["all_witnessed"] else 1
    if kind == "fusion":
        return 0 if doc["approximation_kept"] and doc["trace_disjunction"] else 1
    if kind == "entropy":
        return 0 if doc["checked"] and not doc["violations"] else 1
    if kind == "threshold":
        return 0 if doc["threshold"] is not None else 3
    return 0


class Checker:
    """Checks calls of one run; remembers each call's output to compare repeats."""

    def __init__(self):
        self.reference: dict[tuple[str, ...], object] = {}

    def check(self, step: Step, exit_code: int, stdout: str, report_text: Optional[str]) -> Optional[str]:
        """None if the call is correct, else the reason it is not."""
        text = report_text if step.writes_report else stdout
        if step.kind == "import":
            return None if exit_code == 0 and not stdout else f"import exited {exit_code}"
        if step.expect is not None or step.kind == "text":
            if step.expect is not None and stdout.strip() != step.expect:
                return f"printed {stdout.strip()[:40]!r}, expected {step.expect}"
            content: object = stdout.strip()
            expected = 0
        else:
            try:
                doc = json.loads(text or "")
                expected = _expected_exit(step.kind, doc)
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable output: {exc!r}"
            if step.kind == "campaign":
                details = doc["report"]["details"]
                if details["tested"] != step.items:
                    return f"tested {details['tested']} maps, requested {step.items}"
                if not details["pigeonhole_ok"]:
                    return "pigeonhole certificate failed"
            content = _without_timing(doc)
        if exit_code != expected:
            return f"exit {exit_code}, output documents {expected}"
        if self.reference.setdefault(step.args, content) != content:
            return "output differs from an earlier call with the same seed"
        return None
