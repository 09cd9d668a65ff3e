"""Machine-speed calibration for the timed runs.

The benchmark's host shares its cores with other machines' work.  For
stretches of a minute or more, all code runs 1.3-1.9x slower than on a quiet
host.  Keeping each segment's fastest sample removes interference that
lasts a few seconds, but a 30 s run can fall entirely inside a slow
stretch.  So the runner times a fixed calibration tick before every
operation and reports each time at the speed the tick has on a quiet host.
A segment's best time is the fastest of its n samples in the run, which
reads the 1/(n+1) quantile of its times, so it is scaled by the same
quantile of the run's tick times:

    reported = best * REF_S / quantile(ticks, 1 / (n + 1))

A tick runs four small kernels, one for each kind of work in
pbcd's hot paths: a Python loop of small numpy operations (the per-block
updates), dense vectorized numpy (smooth gradients), scipy.sparse
products, and plain interpreter work.  Their slowdowns differ, and their
sum follows the benchmark's own segments more closely than any one of
them.  The ticks call nothing in pbcd, so a change to pbcd moves the
reported times exactly as it moves the measured ones.
"""

import time

import numpy as np
import scipy.sparse as sp

# The tick's 10th percentile on the quietest 30 s stretch seen on the
# reference host (README, "Timing method"), so reported times read as
# seconds there.
REF_S = 0.0031

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((60, 40))
_B = _rng.standard_normal(60)
_LIP = (_A * _A).sum(axis=0)
_M = _rng.standard_normal((400, 300))
_V = _rng.standard_normal(300)
_S = sp.random(900, 1000, density=0.002, random_state=1, format="csr")
_W = _rng.standard_normal(1000)

samples = []


def _small_numpy():
    """Six coordinate-descent sweeps on a fixed 60 x 40 lasso."""
    x = np.zeros(_A.shape[1])
    r = -_B.copy()
    for _ in range(6):
        for j in range(_A.shape[1]):
            col = _A[:, j]
            v = x[j] - float(col @ r) / _LIP[j]
            new = np.sign(v) * max(abs(v) - 0.1 / _LIP[j], 0.0)
            step = new - x[j]
            if step:
                r += step * col
                x[j] = new


def _dense():
    y = _V
    for _ in range(8):
        y = _M.T @ np.tanh(_M @ y) / _M.shape[0]


def _sparse():
    y = _W
    for _ in range(30):
        y = _S.T @ (_S @ y) + _W


def _interpreter():
    counts, total = {}, 0
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * 3 % 7
    return total


def tick():
    """Time one calibration tick; returns the seconds it took."""
    start = time.perf_counter()
    _small_numpy()
    _dense()
    _sparse()
    _interpreter()
    took = time.perf_counter() - start
    samples.append(took)
    return took


def reset():
    samples.clear()


def factor(n):
    """Multiplier to reference speed for the fastest of n samples."""
    return REF_S / float(np.quantile(samples, 1.0 / (n + 1)))
