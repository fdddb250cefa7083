"""Fixed reference computations that measure how fast the host runs now.

On a shared host the same process can run 30% faster or slower from one
minute to the next, and at times more than twice as slow, because other
tenants load the cores, caches and memory it shares, and because the
hypervisor takes time from the virtual CPUs. run.py times a reference
right before and right after every process it measures, and divides the
measured time by the host factor: the reference's time over its time on
the host the baseline was recorded on. The corrected times therefore
read roughly as seconds on that host.

There are two references, one per kind of process measured:

* ``reference`` runs in run.py's own process and mirrors one bootstrap
  replication: a VAR(4) recursion in a Python loop, a least-squares fit,
  a Cholesky factor, companion-matrix eigenvalues and an impulse
  response recursion. It times the workload processes.
* ``startup_reference`` starts an interpreter that imports numpy, which
  is most of what a set-up process does before it reaches fiscalsvar.

Neither imports fiscalsvar, so a change to the program cannot move them.
"""
from __future__ import annotations

import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# median wall time of one ``reference`` unit and of one
# ``startup_reference`` process on the baseline host (2 vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31)
REF_UNIT_S = 0.0083
STARTUP_REF_S = 0.17

K, P, T = 4, 4, 84
_rng = np.random.default_rng(20251017)
_SHOCKS = _rng.standard_normal((T + P, K))
_GAMMAS = np.zeros((K, K * P))
_GAMMAS[:, :K] = 0.5 * np.eye(K) + 0.05 * _rng.standard_normal((K, K))
_GAMMAS[:, K:] = 0.05 * _rng.standard_normal((K, K * (P - 1)))


def _replication() -> float:
    x = np.empty((T + P, K))
    state = np.zeros(K * P)
    for t in range(T + P):
        row = _SHOCKS[t] + _GAMMAS @ state
        x[t] = row
        state = np.concatenate([row, state[:-K]])
    design = np.hstack([np.ones((T, 1))] + [x[P - i:T + P - i] for i in range(1, P + 1)])
    beta = np.linalg.lstsq(design, x[P:], rcond=None)[0]
    resid = x[P:] - design @ beta
    chol = np.linalg.cholesky(resid.T @ resid / T)
    companion = np.zeros((K * P, K * P))
    companion[:K] = beta[1:].T
    companion[K:, :-K] = np.eye(K * (P - 1))
    radius = np.abs(np.linalg.eigvals(companion)).max()
    response = chol[:, 0]
    path = [response]
    for _ in range(12):
        response = companion[:K, :K] @ response
        path.append(response)
    return radius + float(np.cumsum(path, axis=0)[-1, 0])


def _unit() -> float:
    return sum(_replication() for _ in range(16))


def _run(units: int) -> None:
    for _ in range(units):
        _unit()


def reference(units: int, threads: int = 1) -> tuple[float, float]:
    """Run ``units`` units of 16 replications, split over ``threads``
    threads of this process; returns (wall seconds, CPU seconds).

    A workload whose process runs several Python threads at once takes
    the same number here, so that the reference also pays for handing
    the interpreter lock between cores. CPU time is returned as well
    because time the hypervisor takes from the virtual CPU stretches wall
    time but not CPU time, so CPU times need a factor of their own.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    if threads == 1:
        _run(units)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_run, [units // threads] * threads))
    return time.perf_counter() - wall, time.process_time() - cpu


def startup_reference() -> float:
    """Start an interpreter that imports numpy; returns wall seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def host_factor(before: float, after: float, nominal: float) -> float:
    """How much slower than the baseline host the host ran around one
    measured process, from a reference timed before and after it that
    takes ``nominal`` seconds on the baseline host."""
    return (before + after) / (2.0 * nominal)
