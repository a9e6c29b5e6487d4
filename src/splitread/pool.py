"""One lane per CPU: a list of independent items run in forked processes.

``run(fn, jobs, args, what)`` computes ``[fn(i, *args) for i in
range(jobs)]`` with the items striped over ``lanes(jobs)`` processes:
lane k runs items k, k + lanes, ..., lane 0 in the calling process and
every other lane in a child made with ``fork``, which inherits the
program as it stands and needs no re-import. Nothing is sent to a child;
each pickles its results back through a pipe. An item that depends only
on its index and the arguments (its own seed, caches of its own inputs)
therefore gives the same result for any number of lanes.

Errors are those of the serial loop: the exception of the lowest-indexed
failing item is raised in the caller, and a child that dies raises a
SplitreadError, counted as a failure of its first item, that names what
its items stand for (an item may stand for several chains). Children still
running when ``run`` returns or raises are killed and reaped.

So are its warnings: each lane records its items' warnings under the
caller's filters (an "error" filter still raises there), and the caller
shows those of the items up to the first failing one, in item order and
through one registry, as one process would. That registry lasts one
``run`` call: every lane's ``catch_warnings`` resets Python's warning
registries, so a second call shows its warnings again, with any number
of lanes.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from typing import BinaryIO, Callable, Iterable, TypeVar

from .errors import SplitreadError

T = TypeVar("T")


def lanes(jobs: int) -> int:
    """Processes to run ``jobs`` items in: one per CPU this process may
    use, at most one per item, and one where ``fork`` is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus))


def _run_stripe(
    fn: Callable, stripe: range, args: tuple
) -> tuple[list, list[tuple], tuple[int, Exception] | None]:
    """``fn`` over ``stripe`` up to its first failing item: the results
    before it, each warning as (item, message, category, filename, lineno),
    and the failing item with its exception (None if none failed)."""
    results, caught, failure = [], [], None
    for item in stripe:
        with warnings.catch_warnings(record=True) as log:
            try:
                results.append(fn(item, *args))
            except Exception as exc:
                failure = (item, exc)
        caught += [(item, w.message, w.category, w.filename, w.lineno) for w in log]
        if failure is not None:
            break
    return results, caught, failure


def _fork_stripe(fn: Callable, stripe: range, args: tuple) -> tuple[int, BinaryIO]:
    """Start a child that runs ``stripe`` and pickles its outcome into a
    pipe; returns the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns to the caller
        code = 1
        try:
            os.close(read_fd)
            outcome = _run_stripe(fn, stripe, args)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _listing(stripe: range, names: Callable[[int], Iterable[int]]) -> str:
    items = [str(name) for item in stripe for name in names(item)]
    if len(items) > 4:
        items[2:-1] = ["..."]
    return ", ".join(items)


def run(
    fn: Callable[..., T],
    jobs: int,
    args: tuple,
    what: str,
    names: Callable[[int], Iterable[int]] = lambda item: (item,),
) -> list[T]:
    """``[fn(i, *args) for i in range(jobs)]``, striped over ``lanes(jobs)``
    processes. ``what`` and ``names(i)``, the numbers item i stands for
    (i itself by default), name a worker in the error raised when it dies
    ("sampler worker for chains" gives "sampler worker for chains 2, 3
    died (signal 9)")."""
    n = lanes(jobs)
    stripes = [range(k, jobs, n) for k in range(n)]
    running = []  # (pid, pipe) of each child not yet waited for
    try:
        for stripe in stripes[1:]:
            running.append(_fork_stripe(fn, stripe, args))
        outcomes = [_run_stripe(fn, stripes[0], args)]
        failure = outcomes[0][2]
        # No item fails before the first, so then no child is waited for.
        waiting = [] if failure is not None and failure[0] == 0 else stripes[1:]
        for stripe in waiting:
            pid, pipe = running[0]
            with pipe:
                data = pipe.read()  # until the child exits
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.pop(0)
            if code != 0:
                how = f"signal {-code}" if code < 0 else f"status {code}"
                died = SplitreadError(f"{what} {_listing(stripe, names)} died ({how})")
                outcomes.append(([], [], (stripe.start, died)))
            else:
                outcomes.append(pickle.loads(data))  # written by the child above
        # Items are distinct, so no two failures compare their exceptions.
        failures = [failure for *_, failure in outcomes if failure is not None]
        last, error = min(failures, default=(jobs, None))
        caught = sorted((w for _, ws, _ in outcomes for w in ws), key=lambda w: w[0])
        registry: dict = {}  # one for every lane, as one process keeps
        for item, *warning in caught:
            if item <= last:
                warnings.warn_explicit(*warning, registry=registry)
        if error is not None:
            raise error
        results: list = [None] * jobs
        for k, (done, *_) in enumerate(outcomes):
            results[k::n] = done
        return results
    finally:
        for pid, pipe in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
