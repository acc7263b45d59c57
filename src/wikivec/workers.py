"""Run one task per worker in forked children that inherit the caller's memory."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import traceback
from typing import Callable


class WorkerError(RuntimeError):
    """A forked worker raised, or exited without reporting a result."""


def fork_map(task: Callable[[int], object], n: int) -> list:
    """``[task(0), ..., task(n - 1)]``, each run in a forked child; only the
    return value is pickled back, over a pipe of its own.

    With ``n == 1``, or where there is no fork, the tasks run here in order
    and their exceptions propagate.  Otherwise the first child that raises or
    dies raises :class:`WorkerError` naming the worker and its exit code, and
    the other children are killed.
    """
    if n == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(worker) for worker in range(n)]
    results: list = [None] * n
    running: dict[int, tuple[int, int, bytearray]] = {}  # read end -> worker, pid, report
    try:
        for worker in range(n):
            # Made just before its fork, so no sibling holds this write end open.
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(task, worker, write_fd)
            os.close(write_fd)
            running[read_fd] = (worker, pid, bytearray())
        while running:
            for fd in select.select(list(running), [], [])[0]:
                worker, pid, report = running[fd]
                if chunk := os.read(fd, 1 << 20):
                    report += chunk
                    continue
                del running[fd]
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0 or not report:
                    detail = (f"raised {report.decode('utf-8', 'replace')}" if code == 1 and report
                              else "exited without reporting a result")
                    raise WorkerError(f"worker {worker} {detail} (exit code {code})")
                results[worker] = pickle.loads(report)
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return results


def _run_child(task: Callable[[int], object], worker: int, write_fd: int) -> None:
    """Write ``task(worker)`` pickled and exit 0, or its exception's summary and exit 1."""
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            try:
                report = pickle.dumps(task(worker), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                traceback.print_exc()
                pipe.write(f"{type(exc).__name__}: {exc}".encode("utf-8", "replace"))
                raise
            pipe.write(report)
            code = 0
    finally:
        os._exit(code)
