"""Small deterministic 1-D search routines shared by the solvers."""

from __future__ import annotations

import math

from .errors import InvalidInput

__all__ = ["golden_section", "bisect_threshold"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, tol: float = 1e-7, max_iter: int = 200):
    """Minimize a unimodal function on [lo, hi] by golden-section search.

    Returns ``(x, f(x))`` once the bracket is shorter than ``tol``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise InvalidInput("golden_section needs a finite ordered bracket")
    a, b = lo, hi
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return (x, fc) if fc <= fd else (x, fd)


def bisect_threshold(pred, lo: float, hi: float, iters: int = 40):
    """Smallest x in [lo, hi] with pred(x) True, for a monotone predicate.

    ``pred(hi)`` must be True; if ``pred(lo)`` already holds, returns lo.
    """
    if pred(lo):
        return lo
    if not pred(hi):
        raise InvalidInput("bisect_threshold needs pred(hi) to hold")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi
