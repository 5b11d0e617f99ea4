"""Weighted first-stage regressors.

Every fit minimizes an (optionally weighted) empirical square loss over its
model class.  The kernel fits live in the first-order Sobolev space on [0, 1]
with reproducing kernel K(x, x') = min(x, x'), the space of absolutely
continuous functions f with f(0) = 0 and square-integrable derivative.

Weighted kernel ridge derivation.  The objective

    sum_i w_i (y_i - f(x_i))^2 + lam * ||f||_H^2

is minimized, by the representer theorem, at f = sum_j alpha_j K(., x_j).
Writing K for the Gram matrix and W = diag(w), stationarity in alpha gives
K W (y - K alpha) = lam K alpha; whenever K is invertible this reduces to

    (W K + lam I) alpha = W y.

The min kernel is the Brownian-motion covariance, so the minimizer is a
linear smoothing spline: f(0) = 0, linear between the weighted states, flat
after the last.  A fit is these knots and its values there, and predicts by
interpolation.  The values beta = K alpha solve (lam K^{-1} + W) beta = W y,
tridiagonal on sorted distinct points, so the solve is O(m).  Zero-weight
rows drop out, and a state within ``TIE_GAP`` of the previous one (or of 0)
is pooled into it by summed weight and weighted target sum: exact for exact
ties, a perturbation of the gap's size for near ties.  Pooling does not
depend on lam, so a grid of levels shares one pooling and one banded solve
of their stacked systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import make_generator, mix_seed

TIE_GAP = 1e-13
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-1.0, 2.0, 7))
L1_MAX_ITER = 10_000
L1_REL_TOL = 1e-10
L1_KKT_TOL = 1e-6


class RegressionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


def _bilinear_xa(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    x, a = np.broadcast_arrays(x, a)
    return np.stack([np.ones_like(x), x, a, x * a], axis=-1)


def _state_linear(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    x, _ = np.broadcast_arrays(x, a)
    return np.stack([np.ones_like(x), x], axis=-1)


def _state_scalar(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    x, _ = np.broadcast_arrays(x, a)
    return x


FEATURE_MAPS: dict[str, Callable] = {
    "bilinear-xa": _bilinear_xa,
    "state-linear": _state_linear,
    "state": _state_scalar,
}


def resolve_feature_map(spec) -> Callable:
    """Look up a named feature map, or pass a callable through."""
    if callable(spec):
        return spec
    try:
        return FEATURE_MAPS[spec]
    except KeyError:
        raise KeyError(
            f"unknown feature map {spec!r}; known: {sorted(FEATURE_MAPS)}"
        ) from None


# ---------------------------------------------------------------------------
# Fitted models
# ---------------------------------------------------------------------------


@dataclass
class KernelRidgeModel:
    """Sobolev-1 fit through (``knots``, ``values``): 0 and the sorted pooled
    weighted states, and f there, at ridge level ``lambda_reg``."""

    knots: np.ndarray
    values: np.ndarray
    lambda_reg: float

    def predict(self, x) -> np.ndarray:
        out = np.interp(x, self.knots, self.values)
        return out if np.ndim(out) else float(out)


@dataclass
class LinearModel:
    """Linear-in-features fit, optionally norm-constrained."""

    theta: np.ndarray
    converged: bool = True
    kkt_residual: float = 0.0

    def predict(self, features) -> np.ndarray:
        return np.asarray(features, dtype=float) @ self.theta


@dataclass
class IsotonicModel:
    """Right-continuous non-decreasing step function of a scalar feature."""

    knots: np.ndarray
    levels: np.ndarray

    def predict(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, self.knots.size - 1)
        return self.levels[idx]


# ---------------------------------------------------------------------------
# Kernel ridge
# ---------------------------------------------------------------------------


def _require_finite(**arrays) -> None:
    """Reject NaN or inf data, naming the array and its first offending row."""
    for name, values in arrays.items():
        finite = np.isfinite(values)
        if not finite.all():
            row = int(np.argwhere(~np.atleast_1d(finite))[0][0])
            raise ValueError(f"{name}[{row}] is not finite")


def _require_non_negative(**scalars) -> None:
    """Reject a NaN, inf or negative scalar argument, naming it; None passes."""
    for name, value in scalars.items():
        if value is not None and not 0.0 <= value < np.inf:
            raise ValueError(f"{name} is {value}, not a non-negative finite number")


def _require_ridge_levels(name: str, levels) -> None:
    """Reject an empty grid, or a level that is not a positive finite number,
    naming its position."""
    if len(levels) == 0:
        raise ValueError(f"{name} must be non-empty")
    for i, lam in enumerate(levels):
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError(f"{name}[{i}] is {lam}, not a positive finite ridge level")


def _validate_kernel_inputs(x, y, w):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (x.shape == y.shape == w.shape) or x.ndim != 1:
        raise ValueError("x, y, w must be equal-length vectors")
    _require_finite(x=x, y=y, w=w)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not np.all((x >= 0) & (x <= 1)):
        raise ValueError("sobolev1 kernel requires x in [0, 1]")
    return x, y, w


def _spline_values(x, y, w, levels) -> tuple[np.ndarray, np.ndarray]:
    """The weighted states pooled into knots (0 first), and one row of values
    there per ridge level, solving (lam K^{-1} + W) beta = W y at that level.

    One ``dgtsv`` call solves the levels' systems stacked block-diagonally.
    At a block edge every elimination multiplier is 0, so no pivot or fill
    crosses it and each row has the bits of its level's own solve.
    ``RegressionError`` names the first level whose row is not finite.
    """
    import scipy.linalg

    keep = w > 0
    order = np.argsort(x[keep], kind="stable")
    xs = x[keep][order]
    starts = np.diff(xs, prepend=0.0) >= TIE_GAP
    # knot 0 is the origin, where f = 0: states pooled into it drop out
    knot_of = np.cumsum(starts)
    knots = np.concatenate([[0.0], xs[starts]])
    wsum = np.bincount(knot_of, weights=w[keep][order], minlength=1)[1:]
    wy = np.bincount(knot_of, weights=(w[keep] * y[keep])[order], minlength=1)[1:]
    lam = np.asarray(levels, dtype=float)[:, None]
    m = wsum.size
    values = np.zeros((lam.size, m + 1))
    if m == 0:
        return knots, values
    inv_gaps = 1.0 / np.diff(knots)
    # the last entry of each block's off-diagonal is the zero coupling to the next
    next_inv_gaps = np.concatenate([inv_gaps[1:], [0.0]])
    diag = lam * (inv_gaps + next_inv_gaps) + wsum
    # the LAPACK wrapper wants an off-diagonal of length 1 for a 1 x 1 system
    off = (-lam * next_inv_gaps).ravel()[: max(lam.size * m - 1, 1)]
    _, _, _, beta, info = scipy.linalg.lapack.dgtsv(off, diag.ravel(), off, np.tile(wy, lam.size))
    values[:, 1:] = beta.reshape(lam.size, m)
    finite = np.isfinite(values).all(axis=1)
    if info > 0:  # a zero pivot stopped the solve in that level's block
        finite[(info - 1) // m :] = False
    if not finite.all():
        raise RegressionError(
            f"banded kernel solve is not finite at lambda {lam[~finite, 0][0]:g} with {m} knots"
        )
    return knots, values


def fit_weighted_krr(x, y, w, lambda_reg: float) -> KernelRidgeModel:
    """Weighted kernel ridge regression with the min kernel: an O(m) banded
    solve on the pooled states (``RegressionError`` if it is not finite)."""
    x, y, w = _validate_kernel_inputs(x, y, w)
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    if not (np.isfinite(lambda_reg) and lambda_reg > 0):
        raise ValueError(f"lambda_reg is {lambda_reg}, not a positive finite ridge level")
    knots, values = _spline_values(x, y, w, [lambda_reg])
    return KernelRidgeModel(knots=knots, values=values[0], lambda_reg=float(lambda_reg))


# ---------------------------------------------------------------------------
# Weighted linear least squares
# ---------------------------------------------------------------------------


def fit_weighted_linear(
    features,
    y,
    w,
    ridge: float = 0.0,
    max_norm: float | None = None,
) -> LinearModel:
    """Minimize sum_i w_i (y_i - <theta, phi_i>)^2 + ridge * ||theta||_2^2.

    An l2-norm cap, when given, is enforced by rescaling the solution onto
    the ball whenever it falls outside.
    """
    phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if phi.ndim != 2:
        raise ValueError("features must be a 2-d array")
    _require_finite(features=phi, y=y, w=w)
    _require_non_negative(ridge=ridge, max_norm=max_norm)
    d = phi.shape[1]
    if ridge == 0.0 and np.linalg.matrix_rank(np.sqrt(w)[:, None] * phi) < d:
        raise RegressionError("weighted design is rank deficient and ridge is 0")
    gram = phi.T @ (w[:, None] * phi) + ridge * np.eye(d)
    theta = np.linalg.solve(gram, phi.T @ (w * y))
    if max_norm is not None:
        norm = float(np.linalg.norm(theta))
        if norm > max_norm:
            theta = theta * (max_norm / norm)
    return LinearModel(theta=theta)


# ---------------------------------------------------------------------------
# l1-constrained least squares
# ---------------------------------------------------------------------------


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact Euclidean projection onto the l1 ball of the given radius."""
    _require_non_negative(radius=radius)
    v = np.asarray(v, dtype=float)
    if radius == 0.0:
        return np.zeros_like(v)
    if np.abs(v).sum() <= radius:
        return v.copy()
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - radius))[0][-1]
    tau = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def fit_l1_constrained(
    features,
    y,
    w,
    radius: float,
) -> LinearModel:
    """Projected gradient descent for the weighted square loss on the l1 ball.

    Step size 1/L with L the largest eigenvalue of the weighted Gram matrix
    (LAPACK's, from ``scipy.linalg.eigvalsh``).  Convergence requires both a
    relative objective decrease below ``L1_REL_TOL`` and a projected-gradient
    mapping below ``L1_KKT_TOL`` in every coordinate; hitting the iteration
    cap first sets a warning flag instead of raising (the problem is convex;
    the cap is a budget).
    """
    phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if phi.ndim != 2:
        raise ValueError("features must be a 2-d array")
    _require_finite(features=phi, y=y, w=w)
    _require_non_negative(radius=radius)
    d = phi.shape[1]
    if radius == 0.0:
        return LinearModel(theta=np.zeros(d))
    import scipy.linalg

    gram = phi.T @ (w[:, None] * phi)
    # d = 0 selects no eigenvalue, and the fit is the empty vector
    lmax = float(scipy.linalg.eigvalsh(gram, subset_by_index=[d - 1, d - 1]).max(initial=0.0))
    if lmax <= 0.0:
        return LinearModel(theta=np.zeros(d))
    step = 1.0 / lmax
    theta = np.zeros(d)

    def half_grad(t):
        return -(phi.T @ (w * (y - phi @ t)))

    def objective(t):
        r = y - phi @ t
        return float(np.sum(w * r * r))

    def gradient_mapping(t):
        return (t - project_l1_ball(t - step * half_grad(t), radius)) / step

    obj = objective(theta)
    converged = False
    for _ in range(L1_MAX_ITER):
        theta_new = project_l1_ball(theta - step * half_grad(theta), radius)
        obj_new = objective(theta_new)
        small_decrease = abs(obj - obj_new) <= L1_REL_TOL * max(obj, 1e-300)
        theta, obj = theta_new, obj_new
        if small_decrease and np.max(np.abs(gradient_mapping(theta))) < L1_KKT_TOL:
            converged = True
            break
    gm = gradient_mapping(theta)
    return LinearModel(
        theta=theta,
        converged=converged,
        kkt_residual=float(np.max(np.abs(gm))) if gm.size else 0.0,
    )


# ---------------------------------------------------------------------------
# Weighted isotonic regression
# ---------------------------------------------------------------------------


def fit_weighted_isotonic(t, y, w) -> IsotonicModel:
    """Weighted pool-adjacent-violators along a scalar feature
    (``scipy.optimize.isotonic_regression``).

    Exact ties in t are pre-pooled by weighted mean.  The fit is the
    right-continuous step function through the block solution.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (t.shape == y.shape == w.shape) or t.ndim != 1:
        raise ValueError("t, y, w must be equal-length vectors")
    if t.size == 0:
        raise ValueError("isotonic regression needs at least one point")
    _require_finite(t=t, y=y, w=w)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    from scipy.optimize import isotonic_regression

    knots, inverse = np.unique(t, return_inverse=True)
    wsum = np.bincount(inverse, weights=w)
    wysum = np.bincount(inverse, weights=w * y)
    return IsotonicModel(knots=knots, levels=isotonic_regression(wysum / wsum, weights=wsum).x)


# ---------------------------------------------------------------------------
# Cross-validation for the kernel regularizer
# ---------------------------------------------------------------------------


def cross_validate_lambda(
    x,
    y,
    w,
    grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Pick the ridge level minimizing the weighted validation square loss.

    Folds are contiguous blocks of a seeded shuffle; each candidate is fitted
    on the remaining blocks with the supplied training weights, in one banded
    solve per fold that stacks every candidate (``_spline_values``: each row
    has the bits of a lone fit).  Ties are broken toward the larger
    regularizer.  A non-finite fold loss or solve raises ``RegressionError``.
    The caller's arrays are validated once, before the one-level shortcut;
    the folds are slices of them and are not checked again.

    A fold whose training rows all have zero weight is skipped, and skipping
    is exact: with zero training weight the ridge objective is minimized by
    f = 0 at every ridge level, which adds the same validation loss to every
    candidate.  (Such a fold then holds every positive weight, so the other
    folds validate at zero weight, every candidate ties, and the largest
    ridge level is chosen.)
    """
    # checked once here, so that an error names the caller's row, not a fold's
    x, y, w = _validate_kernel_inputs(x, y, w)
    _require_ridge_levels("grid", grid)
    grid = sorted(float(g) for g in grid)
    if len(grid) == 1:
        return grid[0]
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if x.size < folds:
        raise ValueError(f"{x.size} points cannot fill {folds} folds")
    perm = make_generator(mix_seed(seed, "cv-shuffle")).permutation(x.size)
    losses = np.zeros(len(grid))
    for fold, val_idx in enumerate(np.array_split(perm, folds)):
        mask = np.ones(x.size, dtype=bool)
        mask[val_idx] = False
        if not np.any(w[mask] > 0):
            continue
        knots, values = _spline_values(x[mask], y[mask], w[mask], grid)
        x_val, y_val, w_val = x[val_idx], y[val_idx], w[val_idx]
        resid = y_val - np.array([np.interp(x_val, knots, row) for row in values])
        fold_losses = np.sum(w_val * resid**2, axis=1)
        finite = np.isfinite(fold_losses)
        if not finite.all():
            raise RegressionError(
                f"cross-validation loss is not finite at lambda {grid[np.argmin(finite)]:g} "
                f"on fold {fold}"
            )
        losses += fold_losses
    # ties go to the larger level, the last of the sorted grid among them
    return grid[np.flatnonzero(losses == losses.min())[-1]]
