"""Run one command in a fresh process and account for it with os.wait4.

Resource usage comes from the rusage that os.wait4 returns for that one
child.  It covers the child and every descendant the child reaped (the
process-pool workers of a parallel campaign), and nothing else.  The
running maximum of RUSAGE_CHILDREN would instead keep reporting the
largest process this benchmark ever started.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CALL_TIMEOUT_S = 170.0


@dataclass
class Call:
    argv: list[str]
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run(args: list[str], root: Path, workdir: Path) -> Call:
    """Run `python3 <args>` from the checkout root with the checkout's src/ first on the path."""
    argv = [sys.executable, *args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=env)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Call(
            argv=argv,
            exit=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out.read().decode(),
            stderr=err.read().decode(),
        )
