"""Host speed reference: a fixed piece of work that the benchmark owns.

The benchmark was built on a shared 2-vCPU virtual machine whose speed
drifts with its neighbours' load: the same ten ot_duality tasks took from
1.10 s to 1.71 s per pass within an hour, CPU time followed wall time
(steal time stayed near 2 %), and two ten-run sets of ot_duality taken 40
minutes apart had wall-clock medians of 8.73 and 7.04 tasks/s. Wall-clock
figures alone would compare the host's load, not the program.

So the runner executes ``kernel()`` after every task and scales every
end-to-end time by ``(NOMINAL_S / median kernel time) ** EXPONENT`` of the
run: a reported second is a second on a host where the kernel takes
NOMINAL_S. The kernel is a small dense pivoting loop (numpy rank-1 updates
and index searches driven by Python, the same mix as the program's
simplex) and never calls transportkit, so a change to the program moves
the scaled figures fully. The kernel reacts to the host's load about twice
as strongly as the workloads do, so the full ratio over-corrects. Of the
exponents 0, 0.5 and 1, EXPONENT = 0.5 gave the smallest run-to-run
spread of tasks_per_s in 6 of 8 sets of 5 to 10 runs of one workload,
taken hours apart, and was within 0.011 of the smallest in the other two
(see README.md).
"""

import numpy as np

NOMINAL_S = 3.0e-3
EXPONENT = 0.5

_ROWS, _COLS = 40, 120
_T0 = np.random.default_rng(0).uniform(0.5, 1.5, (_ROWS + 1, _COLS))


def scale(kernel_s) -> float:
    """Factor that turns wall-clock seconds of a run into reference
    seconds, from the kernel times taken in that run."""
    return (NOMINAL_S / float(np.median(kernel_s))) ** EXPONENT


def kernel() -> float:
    """Pivot a fixed tableau through every column; returns a checksum so
    the work cannot be skipped."""
    T = _T0.copy()
    for j in range(_COLS):
        col = T[:-1, j]
        rows = np.flatnonzero(col > 1e-3)
        if rows.size == 0:
            continue
        r = int(rows[np.argmin(T[rows, -1] / col[rows])])
        T[r] /= T[r, j]
        c = T[:, j].copy()
        c[r] = 0.0
        T -= np.outer(c, T[r])
        np.clip(T, -1e6, 1e6, out=T)
    return float(T[-1].sum())
