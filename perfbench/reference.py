"""Fixed reference kernels that measure how fast the core runs right now.

On a shared host the same fedmoo round takes up to twice as long while a
neighbour loads the core, in phases of seconds to minutes.  The benchmark
times this kernel next to every round and every set-up, in thread CPU time,
and rescales the program's time by ``REF_MS`` over the kernel's time: the
result is what the program would have taken on a core running the kernel in
``REF_MS``.  The kernel mixes what a round does (a Philox stream set-up, tiny
tanh steps, 200-wide vector updates and the Python calls around them), so a
slowdown hits it in about the same proportion as the program; the rescaled
round time held within a few percent while the raw time doubled.  The kernel
is part of the benchmark and calls nothing in fedmoo, so a change to the
program cannot move it.

Set-up is different work: it draws and reduces whole datasets, megabytes at a
time, and a slow phase stretches such memory-bound work less than it
stretches the interpreter.  Set-up is therefore rescaled by the mean slowdown
of the kernel and of a bulk pass (``bulk_ms``) of that kind.  In a probe over
150 s, medians over 5 s windows of the raw set-up times moved by up to 2.3x
(highest over lowest); rescaled this way, by at most 1.34x on every
workload, while either pass alone left one workload at 1.4-1.6x.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal thread CPU times of the kernel and of the bulk pass, a little above
# their times on an idle core of an Intel Xeon vCPU (numpy 2.4, CPython 3.11:
# 0.31 and 4.7 ms).  Rescaled times read as milliseconds at that speed.
REF_MS = 0.4
BULK_MS = 5.0

cpu_clock = time.thread_time

_rng = np.random.default_rng(20261017)
_WIDE = _rng.standard_normal((32, 200))
_V = _rng.standard_normal(200)
_SMALL = _rng.standard_normal((8, 5))
_MIX = _rng.standard_normal((5, 5))


def _step(x, b):
    return np.tanh(x * b) @ _MIX


def kernel_ms() -> float:
    """Thread CPU milliseconds of one pass of the fixed kernel."""
    start = cpu_clock()
    acc = 0.0
    for k in range(4):
        gen = np.random.Generator(np.random.Philox(key=k))
        x = gen.standard_normal(5)
        for i in range(10):
            x = x - 0.01 * _step(x, _SMALL[i % 8])
            w = _WIDE[(i + k) % 32] * 0.5 + _V
            acc += float(w @ _V) + float(x.sum())
    elapsed = cpu_clock() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed * 1e3


def bulk_ms() -> float:
    """Thread CPU milliseconds of drawing and centring a fixed 2 MB normal sample."""
    start = cpu_clock()
    sample = np.random.Generator(np.random.Philox(key=3)).standard_normal((64, 4000))
    sample -= sample.mean(axis=1, keepdims=True)
    total = float(sample.sum())
    elapsed = cpu_clock() - start
    if not np.isfinite(total):
        raise RuntimeError("bulk pass produced a non-finite value")
    return elapsed * 1e3


def setup_scale() -> float:
    """The factor to rescale a set-up by: one over the mean slowdown of both passes."""
    slowdown = (statistics.median(kernel_ms() for _ in range(5)) / REF_MS
                + statistics.median(bulk_ms() for _ in range(3)) / BULK_MS) / 2
    return 1.0 / slowdown
