"""Adaptive Simpson quadrature on a bounded interval.

Used for every expectation over one-dimensional continuous state spaces.
Integrands must be vectorized: they receive a float ndarray of m points and
return m values, or an array of shape (m, ...) whose components are all
integrated on one mesh.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-8
MAX_SUBDIVISIONS = 2**20
_MIN_WIDTH = 1e-14


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted.

    Attributes:
        achieved_tol: error estimate accumulated when the budget ran out.
    """

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(message)
        self.achieved_tol = achieved_tol

    def __reduce__(self):
        return type(self), (self.args[0], self.achieved_tol)


def _values(fn, x: np.ndarray) -> list:
    """fn at the points x: Python floats for a scalar integrand (their
    arithmetic is several times cheaper than numpy scalars'), else one
    array per point."""
    vals = np.asarray(fn(x), dtype=float)
    return vals.tolist() if vals.ndim == 1 else list(vals)


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_subdivisions: int = MAX_SUBDIVISIONS,
) -> float | np.ndarray:
    """Integrate ``fn`` over [a, b] to absolute tolerance ``tol``.

    A scalar integrand gives a float.  An array-valued one gives an array of
    shape (...): an interval is accepted when its largest component error
    passes the test, so every component meets ``tol``.
    """
    if b < a:
        raise ValueError("requires a <= b")
    if b == a:
        return 0.0
    fa, fm, fb = _values(fn, np.array([a, 0.5 * (a + b), b]))
    size = abs if isinstance(fa, float) else (lambda v: np.max(np.abs(v)))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if not np.isfinite(size(whole)):
        raise QuadratureError("integrand not finite", achieved_tol=np.inf)

    total = 0.0
    err_total = 0.0
    splits = 0
    stack = [(a, b, fa, fm, fb, whole, tol)]
    while stack:
        a0, b0, f0, fmid, f1, simp, t = stack.pop()
        m = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m)
        rm = 0.5 * (m + b0)
        flm, frm = _values(fn, np.array([lm, rm]))
        h12 = (b0 - a0) / 12.0
        left = h12 * (f0 + 4.0 * flm + fmid)
        right = h12 * (fmid + 4.0 * frm + f1)
        delta = left + right - simp
        err = size(delta)
        if not np.isfinite(err):
            raise QuadratureError(
                f"integrand not finite on [{a0}, {b0}]", achieved_tol=np.inf
            )
        if err <= 15.0 * t or (b0 - a0) < _MIN_WIDTH:
            total += left + right + delta / 15.0
            err_total += err / 15.0
        else:
            splits += 1
            if splits > max_subdivisions:
                raise QuadratureError(
                    f"subdivision budget {max_subdivisions} exhausted; "
                    f"achieved tolerance about {err_total + err:.3e} "
                    f"(requested {tol:.3e})",
                    achieved_tol=err_total + err,
                )
            stack.append((a0, m, f0, flm, fmid, left, t / 2.0))
            stack.append((m, b0, fmid, frm, f1, right, t / 2.0))
    return total
