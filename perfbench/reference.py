"""A fixed reference job that measures how fast the machine runs right now.

On a shared host other tenants' load changes the speed of a core by up to
2x, for seconds to minutes at a time, and CPU time slows with wall time.
The benchmark times this job next to every command and reports each
command's time as a multiple of it, which cancels much of that drift.

The job uses numpy only, never ``admixscan``, so no change to the program
can change it.  It mixes the two kinds of work the program does: many small
IRLS (iteratively reweighted least squares) fits, as on the scan path, and
elementwise passes over a 500 x 800 array, as in the sampler.  It takes
about 0.55 s on one core.
"""
from __future__ import annotations

import time

import numpy as np

FITS = 1100
PASSES = 55

_rng = np.random.default_rng(20111123)
_X = np.column_stack([np.ones(1000), _rng.standard_normal((1000, 2))])
_Y = (_rng.random(1000) < 0.4).astype(np.float64)
_A = _rng.random((500, 800))


def _job():
    for _ in range(FITS):
        b = np.zeros(3)
        for _ in range(6):
            mu = 1.0 / (1.0 + np.exp(-(_X @ b)))
            w = mu * (1.0 - mu)
            b = b + np.linalg.solve(_X.T @ (_X * w[:, None]), _X.T @ (_Y - mu))
    for _ in range(PASSES):
        cells = np.cumsum(np.exp(-_A) * _A, axis=1)
        cells /= cells[:, -1:]


def timed():
    """Wall and CPU seconds of one reference job in this process."""
    wall, cpu = time.perf_counter(), time.process_time()
    _job()
    return time.perf_counter() - wall, time.process_time() - cpu
