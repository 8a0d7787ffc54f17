"""Machine-speed probe that scales op times to one reference speed.

On a shared host the same code runs up to ~1.6x slower for seconds at a
time while a neighbour loads the core, so raw wall times of whole runs
differ by far more than any change worth detecting. The benchmark times a
fixed reference kernel right before and right after every op, and scales
the op's wall time by ``REF_S`` over the mean of those two probe times:
the result is the op's time at the speed at which the kernel takes
``REF_S`` seconds. The kernel mixes what the ops spend their time on,
pure-Python scalar arithmetic and small numpy calls, and never changes,
so scaled times stay comparable across commits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time of the kernel at the full speed of a 2-vCPU Intel Xeon host
REF_S = 1.25e-3

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


def _kernel() -> float:
    acc = 0.0
    m = _A
    for i in range(150):
        # scalar rotations in the style of a 2x2 Jacobi sweep
        a, b, c = m[0, 0].item(), m[0, 1].item(), m[1, 1].item()
        for _ in range(4):
            theta = (c - a) / (2.0 * b)
            t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + (theta * theta + 1.0) ** 0.5)
            a, c = a - t * b, c + t * b
        acc += a + c
        m = _A + (i * 1e-3) * np.eye(3)
        acc += float(np.dot(m, m)[0, 1])
    return acc


def probe() -> float:
    """Median time of three runs of the reference kernel, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
