"""Independent units of work on every CPU this process may use.

:func:`fan_out` maps a function over a list in forked worker processes,
one per usable CPU, and returns the results in order. It serves units
whose numbers depend only on their own inputs and seed, such as a
country's bootstrap or a range of Monte Carlo trials, so the results
are the same for any worker count; only the wall time changes. On one
CPU, and where the platform has no ``os.fork``, it is the plain loop.

Inputs are inherited through the fork and never pickled; only results
cross back, one pickle per worker through a pipe; numpy has already
loaded ``pickle``. ``multiprocessing`` would add its import and its pool
set-up to every command, which cost more than the fan-out saves on the
snapshot.
"""
from __future__ import annotations

import os
import pickle

# SIGKILL's number, fixed by POSIX, where os.fork exists: the signal
# module's import would cost every command about half a millisecond
_SIGKILL = 9


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (``taskset -c 0``
    gives one), or the machine's count where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ranges(n: int, parts: int) -> list[range]:
    """0..n-1 as ``parts`` contiguous ranges, or n where n is fewer, sizes
    as even as possible, the longer ones first; one empty range at n =
    0."""
    parts = max(1, min(parts, n))
    size, extra = divmod(n, parts)
    bounds = [i * size + min(i, extra) for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def fan_out(fn, items) -> list:
    """``[fn(x) for x in items]``, the items split into one contiguous run
    per usable CPU.

    The calling process runs the first run and a forked child each other
    one. The first exception in item order is raised, with its type and
    attributes; a child that ends without a result (killed, crashed, or
    with a result that cannot be pickled) raises a :class:`RuntimeError`
    naming its exit status. On any exception, an interrupt included,
    the children still running are killed, and every child is reaped
    before this returns or raises.
    """
    items = list(items)
    runs = ranges(len(items), usable_cpus() if hasattr(os, "fork") else 1)
    if len(runs) == 1:
        return [fn(x) for x in items]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for run in runs[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(fn, items[run.start:run.stop], write)
            children.append((pid, read))
            os.close(write)
        results = [fn(x) for x in items[runs[0].start:runs[0].stop]]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            os.close(read)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"worker process {pid} {how} without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid, read in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _child(fn, items: list, write: int):
    """Run ``fn`` over ``items`` in a forked child and send ``(True,
    results)`` or ``(False, first exception)`` down the pipe. Never
    returns into the caller's stack, and never flushes the stdio it
    inherited."""
    code = 1
    try:
        try:
            payload = True, [fn(x) for x in items]
        except BaseException as exc:  # re-raised by the parent
            payload = False, exc
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
