"""Host-speed calibration for the benchmark's timings.

On a shared host the same single-threaded job's time moves by up to 2x
with the neighbours' load, over spans of seconds to minutes; process time
moves with it, so the vCPU itself runs slower. A fixed reference kernel,
timed right before and right after a measured interval, tracks that speed.
``scale`` multiplies a measured time by ``REFERENCE_S`` over the kernel's
time measured with it: the result is the time the interval would take
on a host where the kernel takes ``REFERENCE_S`` seconds. The kernel is
part of the benchmark, so a change to sinailab moves the scaled times by
exactly as much as the measured ones.

The kernel mixes what sinailab's jobs spend their time on: a scalar
Python float loop (the orbit and 2x2 QR loops) and small numpy array
operations (batched maps, wedge tables, Ulam sampling). It runs with the
job's parallelism: a sweep's job runs in its worker processes, so for it
the kernel runs in as many forked processes at once, and their wall time
is taken.
"""

from __future__ import annotations

import os
import time

import numpy as np

# a round figure near the kernel's median time on the reference host
# (2 vCPU Intel Xeon, shared VM, Python 3.11.7, numpy 2.4.6): 0.12-0.13 s
# in one process, 0.16 s in two; bench/README.md, "Noise"
REFERENCE_S = 0.15

_LOOP_N = 300_000
_ARRAY_ROUNDS = 25
_VEC = np.random.default_rng(0).random(200_000)
_MATS = np.random.default_rng(1).random((4, 4, 5_000))


def _kernel() -> float:
    s = 0.0
    for i in range(_LOOP_N):
        s += (i * 0.5) % 1.0
    for _ in range(_ARRAY_ROUNDS):
        s += float(np.sum(np.sin(_VEC) * _VEC))
        s += float(np.einsum("ijk,jlk->ilk", _MATS, _MATS).sum())
    return s


def kernel_s(processes: int = 1) -> float:
    """Wall seconds the reference kernel takes now, run in ``processes``
    processes at once (forked children when more than one)."""
    t0 = time.perf_counter()
    if processes == 1:
        _kernel()
        return time.perf_counter() - t0
    pids = []
    try:
        for _ in range(processes):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _kernel()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"reference kernel process failed: exit codes {codes}")
    return time.perf_counter() - t0


def scale(time_s: float, kernel: float) -> float:
    """``time_s`` at the reference speed, given the kernel time measured
    with it."""
    return time_s * REFERENCE_S / kernel


def at_reference(times: list, kernels: list) -> list:
    """Each ``times[i]`` ran between ``kernels[i]`` and ``kernels[i + 1]``;
    returns the times at the reference speed."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel time before each interval and one after the last")
    return [scale(t, (kernels[i] + kernels[i + 1]) / 2.0) for i, t in enumerate(times)]
