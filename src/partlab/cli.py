"""Command-line front door for the partition laboratory.

Exit codes: 0 verified/pass, 1 counterexample found, 2 usage error,
3 budget or threshold error, 4 an independent re-check disagreed with a
search (a fault in the lab).  Counterexamples are successes of the tool
but exit nonzero so scripts can branch on them.  Every JSON report
embeds the full run configuration, and identical configurations produce
identical reports up to the elapsed-time field.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import random
import sys
import time

from .counting import entropy_bounds, ratio_R
from .e1 import BinaryGrid, blowup_iso, cs_decode, cs_encode, reduce_f
from .errors import BudgetError, CheckError, DomainError, PartlabError, ThresholdError
from .partitions import (
    SetPartition,
    count_equipartitions,
    count_partitions,
    enumerate_equipartitions,
    enumerate_partitions,
    iter_equipartition_rgs,
)
from .prefixes import PartitionPrefix, induced_coarsening_h
from .reports import WitnessReport, json_text
from .tree import verify_tree
from .witness import (
    Adversarial,
    EMapTable,
    Exhaustive,
    Sampled,
    _space_size,
    bad_pairs,
    fusion_conditions_hold,
    fusion_step,
    merge_campaign,
    min_threshold_comb,
    partition_space,
    verify_comb,
)

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4

CHECKPOINT_EVERY = 10_000


def _parse_strategy(text: str, samples: int, seed: int):
    """Strategy syntax: exhaustive[:CAP] | sampled[:COUNT[:SEED]] | adversarial[:COUNT[:SEED]]."""
    name, *fields = text.split(":")
    if name not in ("exhaustive", "sampled", "adversarial"):
        raise DomainError(f"unknown strategy {text!r}")
    limit = 1 if name == "exhaustive" else 2
    if len(fields) > limit:
        raise DomainError(f"strategy {text!r} has too many fields: {name} takes at most {limit}")
    try:
        values = [int(field) for field in fields]
    except ValueError as exc:
        raise DomainError(f"strategy {text!r}: {exc}") from None
    if name == "exhaustive":
        return Exhaustive(*values)
    return (Sampled if name == "sampled" else Adversarial)(*values, *[samples, seed][len(values) :])


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# characters per write: a text file encodes each write into a new bytes
# object, and one slice at a time keeps that copy small for a large report
_OUT_SLICE = 1 << 16
_LINES_PER_PIECE = 4096  # of a streamed listing


def _emit(args, payload) -> None:
    """Write payload, a str or an iterator of them, each followed by a newline as print writes it;
    in --out a text that already ends with one gets none.  --out is opened once the first text
    is made, so a stream that fails at its start leaves no file, as a failing str payload does.
    """
    pieces = iter([payload]) if isinstance(payload, str) else payload
    pieces = itertools.chain([next(pieces, "")], pieces)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            for piece in pieces:
                for start in range(0, len(piece), _OUT_SLICE):
                    fh.write(piece[start : start + _OUT_SLICE])
                if not piece.endswith("\n"):
                    fh.write("\n")
    else:
        try:
            for piece in pieces:
                print(piece, flush=True)
        except BrokenPipeError:
            # the reader is done: stdout goes to devnull so the shutdown flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _emit_doc(args, **fields) -> None:
    """Emit one JSON document: the run configuration beside the given fields."""
    _emit(args, json_text({"config": _config_dict(args), **fields}))


def _emit_report(args, report: WitnessReport) -> None:
    if args.format == "csv":
        _emit(args, report.to_csv())
    elif args.format == "table":
        d = report.to_json_dict()
        lines = [f"{name:18} {d[name]}" for name in ("params",) + WitnessReport.CSV_FIELDS]
        _emit(args, "\n".join(lines))
    else:
        _emit_doc(args, report=report.to_json_dict())


def _parse_prefix(text: str) -> PartitionPrefix:
    if text.startswith("L="):
        return PartitionPrefix.from_text(text)
    return PartitionPrefix(SetPartition.from_text(text).rgs)


# -- subcommands --------------------------------------------------------------


# the options that count's and enumerate's chosen mode would ignore beside each leading one
_IGNORED_BESIDE = {"--bell": ("--n", "--k", "--N", "--m"), "--n": ("--k", "--N")}


def _check_mode_options(args, missing: str) -> None:
    """A usage error, before any work, unless the options choose one mode and nothing it ignores.

    missing is the message for options that choose no mode at all.
    """
    values = (("--bell", getattr(args, "bell", None)), ("--n", args.n), ("--k", args.k), ("--N", args.N))
    given = [opt for opt, value in values if value is not None] + (["--m"] if args.m else [])
    for lead in given:
        for other in _IGNORED_BESIDE.get(lead, ()):
            if other in given:
                raise DomainError(f"{lead} cannot be combined with {other}")
    if "--N" in given and "--k" not in given:
        raise DomainError("--N needs --k")
    if "--k" in given and "--N" not in given:
        raise DomainError("--k needs --N")
    if not {"--bell", "--n", "--k"} & set(given):
        raise DomainError(missing)


def cmd_enumerate(args) -> int:
    _check_mode_options(args, "enumerate needs --n (or --k with --N)")
    if args.k is not None:
        stream = enumerate_equipartitions(args.k, args.N, args.m)
    else:
        stream = enumerate_partitions(args.n, args.m)
    lines = map(SetPartition.to_text, stream)
    _emit(args, iter(lambda: "\n".join(itertools.islice(lines, _LINES_PER_PIECE)), ""))
    return EXIT_PASS


def cmd_count(args) -> int:
    _check_mode_options(args, "count needs --bell, --n, or --k with --N")
    if args.bell is not None:
        value = count_partitions(args.bell)
    elif args.k is not None:
        value = count_equipartitions(args.k, args.N, args.m)
    else:
        value = count_partitions(args.n, args.m)
    _emit(args, str(value))
    return EXIT_PASS


def cmd_verify_comb(args) -> int:
    start = time.perf_counter()
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and not hasattr(os, "fork"):
        raise DomainError(f"--jobs {args.jobs} needs os.fork, which this platform lacks; use --jobs 1")
    strategy = _parse_strategy(args.strategy, args.samples, args.seed)
    if args.jobs > 1 and isinstance(strategy, Exhaustive):
        raise DomainError(f"--jobs applies only to sampled and adversarial strategies, got {args.strategy!r}")
    if not isinstance(strategy, Exhaustive) and strategy.count > CHECKPOINT_EVERY:
        chunks = {
            str(start): type(strategy)(min(CHECKPOINT_EVERY, strategy.count - start), strategy.seed, start)
            for start in range(0, strategy.count, CHECKPOINT_EVERY)
        }
        parts = _restore_or_run(args, chunks, functools.partial(verify_comb, args.k, args.m, args.N), args.jobs)
        # the wall time of this invocation, not the sum of the chunks' times
        report = merge_campaign(parts, strategy, (time.perf_counter() - start) * 1000.0)
    else:
        report = verify_comb(args.k, args.m, args.N, strategy)
    _emit_report(args, report)
    return EXIT_PASS if report.details["all_witnessed"] else EXIT_COUNTEREXAMPLE


def _restore_or_run(args, tasks: dict, run, jobs: int = 1) -> list[WitnessReport]:
    """run(task) for each task, in order, checkpointed to the --out state file.

    tasks maps each state key to its task.  A task whose key the state file
    records is restored, not run; the others go to _run_chunks, on
    min(jobs, pending) forked workers when that is at least 2 and in this
    process otherwise, and each report is recorded as it arrives, so an
    interrupted run resumes where it stopped.  The state file is bound to the
    run's configuration: one recorded for another configuration, or one whose
    reports do not read back, is a usage error raised before any task runs,
    so a report is never assembled from another run's results.
    """
    config = {k: v for k, v in _config_dict(args).items() if k not in ("out", "format", "jobs")}
    config["checkpoint_every"] = CHECKPOINT_EVERY
    state = {"config": config, "done": {}}
    state_path = args.out + ".state" if args.out else None
    if state_path and os.path.exists(state_path):
        with open(state_path) as fh:
            saved = json.load(fh)
        if not isinstance(saved, dict) or saved.get("config") != config or "done" not in saved:
            raise DomainError(
                f"{state_path} is a checkpoint of another configuration;"
                " remove it or choose another --out"
            )
        state = saved
    done = state["done"]
    try:  # every restored report must read back before any chunk runs
        for doc in done.values():
            WitnessReport.from_json_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(
            f"{state_path} is a malformed checkpoint ({type(exc).__name__}: {exc});"
            " remove it or choose another --out"
        ) from None
    pending = {key: task for key, task in tasks.items() if key not in done}

    def record(key, doc):
        done[key] = doc
        if state_path:
            with open(state_path + ".tmp", "w") as fh:
                json.dump(state, fh)
            os.replace(state_path + ".tmp", state_path)

    workers = min(jobs, len(pending))
    _run_chunks(run, pending, workers if workers > 1 else 0, record)
    return [WitnessReport.from_json_dict(done[key]) for key in tasks]


def _run_chunks(run, tasks: dict, workers: int, record) -> None:
    """record(key, run(task).to_json_dict()) for each task, in order, helped by `workers` forked workers.

    Worker w runs tasks w, w + workers, ... and writes each report's JSON dict
    to its own pipe as one line.  The parent reads the lines in task order and
    runs any task whose line is missing itself: with no workers, every task;
    after a worker raised or was killed, that worker's tasks from there on.  So
    an error is raised by the same call as in a one-process run, with its exit
    code and message, and a worker that stops early costs time, not the
    campaign.  However this returns, no worker is left running or unreaped.
    """
    keys, values = list(tasks), list(tasks.values())
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the parent's read ends stay open only there, so a dead parent breaks every pipe
                os.close(read_fd)
                for pipe in pipes:
                    pipe.close()
                _work(run, values[w::workers], write_fd)
            pids.append(pid)
            os.close(write_fd)
            pipes.append(open(read_fd))
        for i, key in enumerate(keys):
            line = pipes[i % workers].readline() if pipes else ""
            # a line cut short by a killed worker is as missing as no line
            record(key, json.loads(line) if line.endswith("\n") else run(values[i]).to_json_dict())
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _work(run, tasks: list, fd: int) -> None:
    """A forked worker's life: a line to fd per task until one raises; it leaves by os._exit, silently."""
    try:
        with open(fd, "w") as pipe:
            for task in tasks:
                print(json.dumps(run(task).to_json_dict()), file=pipe, flush=True)
    finally:
        os._exit(0)


def cmd_verify_tree(args) -> int:
    strategy = _parse_strategy(args.strategy, args.samples, args.seed)
    report = verify_tree(args.k, args.N, strategy)
    _emit_report(args, report)
    return EXIT_PASS if report.details["all_witnessed"] else EXIT_COUNTEREXAMPLE


def _build_emap(text: str, n: int) -> EMapTable:
    """E-map syntax: identity | constant:RGS | random[:SEED]."""
    name, *fields = text.split(":")
    counts = {"identity": (0,), "constant": (1,), "random": (0, 1)}.get(name)
    if counts is None:
        raise DomainError(f"unknown e-map form {text!r}")
    if len(fields) not in counts:
        raise DomainError(f"e-map {text!r} is malformed: use identity, constant:RGS or random[:SEED]")
    if name == "identity":
        return EMapTable.identity(n)
    try:
        if name == "constant":
            return EMapTable.constant(n, SetPartition.from_text(fields[0]))
        rng = random.Random(int(fields[0]) if fields else 0)
    except ValueError as exc:  # DomainError is one too; BudgetError is not
        raise DomainError(f"e-map {text!r}: {exc}") from None
    # each value drawn as randrange(size) draws it, without its per-call
    # overhead: getrandbits of size's bit length, keeping the draws below size
    size = _space_size(n)
    draws = iter(functools.partial(rng.getrandbits, size.bit_length()), -1)  # never -1: endless
    return EMapTable(n, tuple(itertools.islice((v for v in draws if v < size), size)))


def cmd_bad_pairs(args) -> int:
    iter_equipartition_rgs(args.k, args.N, args.m)  # checks k, N and m before the map is built; enumerates nothing
    e = _build_emap(args.e_map, args.k * args.N)
    report = bad_pairs(e, args.k, args.m, args.N)
    _emit_report(args, report)
    return EXIT_PASS


def cmd_find_threshold(args) -> int:
    def campaign(k, m, N, strategy):
        return _restore_or_run(args, {str(N): strategy}, functools.partial(verify_comb, k, m, N))[0]

    strategy = _parse_strategy(args.strategy, args.samples, args.seed)
    found, reports = min_threshold_comb(args.k, args.m, strategy, args.n_max, campaign)
    _emit_doc(args, threshold=found, empirical=True, reports=[r.to_json_dict() for r in reports])
    return EXIT_PASS if found is not None else EXIT_BUDGET


def cmd_entropy_check(args) -> int:
    if args.b_max < 1:
        raise DomainError(f"--b-max must be >= 1, got {args.b_max}")
    bad = []
    for b in range(1, args.b_max + 1):
        for a in range(b + 1):
            lower, binom, upper = entropy_bounds(a, b)
            if not lower <= binom <= upper:
                bad.append((a, b))
    _emit_doc(args, checked=True, violations=bad)
    return EXIT_PASS if not bad else EXIT_COUNTEREXAMPLE


def cmd_ratio(args) -> int:
    value = ratio_R(args.a1, args.a2, args.b1, args.b2, args.N)
    _emit(args, str(value))
    return EXIT_PASS


def cmd_fusion_demo(args) -> int:
    rng = random.Random(args.seed)
    B = PartitionPrefix.discrete(args.L)
    mprime = args.Mprime
    hs = [induced_coarsening_h(SetPartition(t), B, mprime) for t in partition_space(mprime)]
    table = {h: rng.choice(hs) for h in hs}
    B_new = fusion_step(B, table, args.n0, args.ell, mprime)
    cond1, cond2 = fusion_conditions_hold(B, B_new, table, args.n0, args.ell)
    _emit_doc(
        args,
        input=B.to_text(),
        output=B_new.to_text(),
        approximation_kept=cond1,
        trace_disjunction=cond2,
    )
    return EXIT_PASS if cond1 and cond2 else EXIT_COUNTEREXAMPLE


def cmd_reduce_e1(args) -> int:
    if args.grid:
        with open(args.grid) as fh:
            x = BinaryGrid.from_text(fh.read())
    else:
        rng = random.Random(args.seed)
        x = BinaryGrid(
            tuple(tuple(rng.randrange(2) for _ in range(args.cols)) for _ in range(args.rows))
        )
    p = reduce_f(x, args.L)
    _emit(args, p.to_text())
    return EXIT_PASS


def cmd_blowup(args) -> int:
    A = _parse_prefix(args.a)
    D = _parse_prefix(args.d)
    _emit(args, blowup_iso(A, D).to_text())
    return EXIT_PASS


def cmd_encode(args) -> int:
    if args.decode is not None:
        if args.p is not None:
            raise DomainError("--p cannot be combined with --decode")
        with open(args.decode) as fh:
            grid = BinaryGrid.from_text(fh.read())
        _emit(args, cs_decode(grid).to_text())
    else:
        if args.p is None:
            raise DomainError("encode needs --p or --decode")
        _emit(args, cs_encode(_parse_prefix(args.p)).to_text().rstrip("\n"))
    return EXIT_PASS


# -- parser -------------------------------------------------------------------


def _add_common(sub, *names):
    if "k" in names:
        sub.add_argument("--k", type=int, required=True)
    if "m" in names:
        sub.add_argument("--m", type=int, default=0)
    if "N" in names:
        sub.add_argument("--N", type=int, required=True)
    if "strategy" in names:
        sub.add_argument("--strategy", default="sampled")
        sub.add_argument("--samples", type=int, default=1000)
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")
    if "format" in names:
        sub.add_argument("--format", choices=("json", "csv", "table"), default="json")


def _arg(*flags, **kw):
    return flags, kw


def _int(*flags, **kw):
    return _arg(*flags, type=int, **kw)


# per subcommand, in help order: its help, its function, its own arguments and then the shared ones
_COMMANDS = {
    "enumerate": ("list partitions or equipartitions", cmd_enumerate,
                  [_int("--n"), _int("--k"), _int("--N")], ("m",)),
    "count": ("count partitions without listing them", cmd_count,
              [_int("--n"), _int("--bell"), _int("--k"), _int("--N")], ("m",)),
    "verify-comb": ("witness campaign for the coarsening lemma", cmd_verify_comb,
                    [_int("--jobs", default=1, help="worker processes for chunked seeded campaigns")],
                    ("k", "m", "N", "strategy", "format")),
    "verify-tree": ("witness campaign for the section lemma", cmd_verify_tree,
                    [], ("k", "N", "strategy", "format")),
    "bad-pairs": ("census of lemma violations for one map", cmd_bad_pairs,
                  [_arg("--e-map", default="identity")], ("k", "m", "N", "format")),
    "find-threshold": ("least N with a clean sampled campaign", cmd_find_threshold,
                       [_int("--n-max", default=6)], ("k", "m", "strategy")),
    "entropy-check": ("exact entropy sandwich sweep", cmd_entropy_check, [_int("--b-max", default=64)], ()),
    "ratio": ("exact factorial-combination ratio", cmd_ratio,
              [_int(f"--{name}", required=True) for name in ("a1", "a2", "b1", "b2")], ("N",)),
    "fusion-demo": ("one fusion step on a random table", cmd_fusion_demo,
                    [_int("--L", default=8), _int("--n0", default=0), _int("--ell", default=0),
                     _int("--Mprime", default=3), _int("--seed", default=0)], ()),
    "reduce-e1": ("grid-to-partition reduction", cmd_reduce_e1,
                  [_int("--L", required=True),
                   _arg("--grid", help="path to a grid file; omit for a seeded random grid"),
                   _int("--rows", default=8), _int("--cols", default=16), _int("--seed", default=0)], ()),
    "blowup": ("inflate one partition prefix along another", cmd_blowup,
               [_arg("--a", required=True, help="partition text, e.g. 'L=4;0,0,1,2'"),
                _arg("--d", required=True)], ()),
    "encode": ("block indicator grid of a partition prefix", cmd_encode,
               [_arg("--p", help="partition text to encode"),
                _arg("--decode", help="grid file to decode instead")], ()),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of argv, sys.argv[1:] when None: every subparser, or only the one argv invokes.

    argv invokes a subcommand when its first word names one; then the other
    subparsers are not built, and the metavar keeps every subcommand in the
    top-level usage that an error prints.  Help, usage and error texts are
    those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="partlab",
        description="Verification laboratory for finite partition combinatorics.",
    )
    first = (sys.argv[1:] if argv is None else argv)[:1]
    names = first if first and first[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) < len(_COMMANDS) else None
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        text, func, own, shared = _COMMANDS[name]
        p = subs.add_parser(name, help=text)
        for flags, kw in own:
            p.add_argument(*flags, **kw)
        _add_common(p, *shared)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetError, ThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (PartlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None) -> int:
    """main for a one-shot process (`python -m partlab.cli`, the `partlab` script).

    gc.freeze() lets the exit skip collecting every object made so far, about 13 ms of a
    short command; main leaves the collector alone, since tests call it in process.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
