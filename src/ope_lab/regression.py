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

The dense solver factorizes this system directly.  The default solver uses
the change of variables beta = K alpha (the fitted values), which satisfies
(lam K^{-1} + W) beta = W y; for the min kernel on sorted distinct points,
K^{-1} is tridiagonal (the kernel is the Brownian-motion covariance), so the
solve is O(m).  Ties are pooled by weighted mean and zero-weight rows are
dropped before the banded solve; both transformations leave the minimizer
unchanged, and alpha_i = w_i (y_i - beta_i) / lam recovers the dense-path
coefficients exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .rng import make_generator, mix_seed

CONDITION_LIMIT = 1e12
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-1.0, 2.0, 7))
L1_MAX_ITER = 10_000
L1_REL_TOL = 1e-10


class RegressionError(RuntimeError):
    pass


class SingularSystemError(RegressionError):
    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


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
    """Representer-form fit f(x) = sum_j alpha_j min(x, x_j)."""

    regressor_id: str
    anchors: np.ndarray
    alpha: np.ndarray
    lambda_reg: float
    weights: np.ndarray
    kernel_id: str = "sobolev1"

    def __post_init__(self):
        order = np.argsort(self.anchors, kind="stable")
        sx = self.anchors[order]
        sa = self.alpha[order]
        self._sx = sx
        self._prefix_ax = np.concatenate([[0.0], np.cumsum(sa * sx)])
        self._suffix_a = np.concatenate([np.cumsum(sa[::-1])[::-1], [0.0]])

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shape = x.shape
        flat = np.atleast_1d(x).ravel()
        k = np.searchsorted(self._sx, flat, side="right")
        out = self._prefix_ax[k] + flat * self._suffix_a[k]
        return out.reshape(shape) if shape else float(out[0])

    def objective(self, x, y, w) -> float:
        resid = np.asarray(y, dtype=float) - self.predict(x)
        gram = np.minimum.outer(self.anchors, self.anchors)
        penalty = float(self.alpha @ gram @ self.alpha)
        return float(np.sum(np.asarray(w, dtype=float) * resid**2) + self.lambda_reg * penalty)

    def to_text(self) -> str:
        import json

        return json.dumps(
            {
                "regressor_id": self.regressor_id,
                "kernel_id": self.kernel_id,
                "lambda": self.lambda_reg,
                "anchors": self.anchors.tolist(),
                "alpha": self.alpha.tolist(),
            }
        )


@dataclass
class LinearModel:
    """Linear-in-features fit, optionally norm-constrained."""

    regressor_id: str
    theta: np.ndarray
    ridge: float = 0.0
    converged: bool = True
    kkt_residual: float = 0.0
    radius: float | None = None

    def predict_features(self, features) -> np.ndarray:
        return np.asarray(features, dtype=float) @ self.theta

    def to_text(self) -> str:
        import json

        return json.dumps(
            {
                "regressor_id": self.regressor_id,
                "theta": self.theta.tolist(),
                "ridge": self.ridge,
                "radius": self.radius,
                "converged": self.converged,
            }
        )


@dataclass
class IsotonicModel:
    """Right-continuous non-decreasing step function of a scalar feature."""

    regressor_id: str
    knots: np.ndarray
    levels: np.ndarray

    def predict(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, self.knots.size - 1)
        return self.levels[idx]

    def to_text(self) -> str:
        import json

        return json.dumps(
            {
                "regressor_id": self.regressor_id,
                "knots": self.knots.tolist(),
                "levels": self.levels.tolist(),
            }
        )


# ---------------------------------------------------------------------------
# Kernel ridge
# ---------------------------------------------------------------------------


def _validate_kernel_inputs(x, y, w, lambda_reg, kernel_id):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (x.shape == y.shape == w.shape) or x.ndim != 1:
        raise ValueError("x, y, w must be equal-length vectors")
    if kernel_id != "sobolev1":
        raise ValueError(f"unknown kernel {kernel_id!r}; only 'sobolev1' is supported")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    if lambda_reg <= 0:
        raise ValueError("lambda_reg must be positive")
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("sobolev1 kernel requires x in [0, 1]")
    return x, y, w


def fit_weighted_krr(
    x,
    y,
    w,
    lambda_reg: float,
    kernel_id: str = "sobolev1",
    solver: str = "auto",
) -> KernelRidgeModel:
    """Weighted kernel ridge regression with the min kernel.

    ``solver`` is ``"auto"`` (O(m) banded solve, falls back to dense on
    numerically degenerate input) or ``"dense"`` (direct factorization of the
    normal equations, least-squares fallback past condition 1e12).
    """
    x, y, w = _validate_kernel_inputs(x, y, w, lambda_reg, kernel_id)
    if solver == "auto":
        alpha = _solve_krr_banded(x, y, w, lambda_reg)
        if alpha is None or not np.all(np.isfinite(alpha)):
            alpha = _solve_krr_dense(x, y, w, lambda_reg)
    elif solver == "dense":
        alpha = _solve_krr_dense(x, y, w, lambda_reg)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return KernelRidgeModel(
        regressor_id="weighted-krr",
        anchors=x,
        alpha=alpha,
        lambda_reg=float(lambda_reg),
        weights=w,
        kernel_id=kernel_id,
    )


def fit_unweighted_krr(x, y, lambda_reg: float, kernel_id: str = "sobolev1", solver: str = "auto") -> KernelRidgeModel:
    """Standard kernel ridge regression: the weighted fit at unit weights."""
    x = np.asarray(x, dtype=float)
    model = fit_weighted_krr(x, np.asarray(y, dtype=float), np.ones_like(x), lambda_reg, kernel_id, solver)
    model.regressor_id = "unweighted-krr"
    return model


def _solve_krr_dense(x, y, w, lambda_reg) -> np.ndarray:
    gram = np.minimum.outer(x, x)
    system = w[:, None] * gram + lambda_reg * np.eye(x.size)
    rhs = w * y
    try:
        lu, piv = scipy.linalg.lu_factor(system)
        anorm = np.linalg.norm(system, 1)
        rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
        if rcond > 1.0 / CONDITION_LIMIT:
            return scipy.linalg.lu_solve((lu, piv), rhs)
        cond = np.inf if rcond == 0 else 1.0 / rcond
    except (scipy.linalg.LinAlgError, ValueError):
        cond = np.inf
    alpha, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if not np.all(np.isfinite(alpha)):
        raise SingularSystemError(
            f"kernel system singular beyond the least-squares fallback "
            f"(condition about {cond:.3e})",
            condition=float(cond),
        )
    return alpha


def _solve_krr_banded(x, y, w, lambda_reg) -> np.ndarray | None:
    """O(m) solve via the tridiagonal inverse of the min-kernel Gram matrix.

    Returns None when the reduced point set is degenerate, signalling the
    caller to use the dense path.
    """
    active = (w > 0) & (x > 0)
    alpha = np.zeros_like(x)
    # rows at x == 0 have K(0, .) = 0: the system forces alpha = w*y/lam there
    at_zero = (w > 0) & (x == 0)
    alpha[at_zero] = w[at_zero] * y[at_zero] / lambda_reg
    if not np.any(active):
        return alpha
    xs = x[active]
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ux, inverse = np.unique(xs, return_inverse=True)
    wsum = np.bincount(inverse, weights=w[active][order])
    wy = np.bincount(inverse, weights=(w[active] * y[active])[order])
    gaps = np.diff(np.concatenate([[0.0], ux]))
    if np.any(gaps < 1e-13):
        return None
    m = ux.size
    inv_gaps = 1.0 / gaps
    diag = lambda_reg * (inv_gaps + np.concatenate([inv_gaps[1:], [0.0]])) + wsum
    off = -lambda_reg * inv_gaps[1:]
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    try:
        beta = scipy.linalg.solve_banded((1, 1), ab, wy)
    except scipy.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(beta)):
        return None
    fitted = np.zeros_like(x)
    fitted_active = beta[inverse]
    idx_active = np.flatnonzero(active)
    fitted[idx_active[order]] = fitted_active
    alpha[active] = (w[active] * (y[active] - fitted[active])) / lambda_reg
    return alpha


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
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    d = phi.shape[1]
    if ridge == 0.0:
        if np.linalg.matrix_rank(np.sqrt(w)[:, None] * phi) < d:
            raise RegressionError(
                "weighted design is rank deficient and ridge is 0"
            )
    gram = phi.T @ (w[:, None] * phi) + ridge * np.eye(d)
    theta = np.linalg.solve(gram, phi.T @ (w * y))
    if max_norm is not None:
        norm = float(np.linalg.norm(theta))
        if norm > max_norm:
            theta = theta * (max_norm / norm)
    return LinearModel(
        regressor_id="weighted-linear", theta=theta, ridge=float(ridge), radius=max_norm
    )


# ---------------------------------------------------------------------------
# l1-constrained least squares
# ---------------------------------------------------------------------------


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact Euclidean projection onto the l1 ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
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


def _power_iteration_lmax(gram: np.ndarray, iters: int = 200) -> float:
    d = gram.shape[0]
    v = np.ones(d) / np.sqrt(d)
    lam = 0.0
    for _ in range(iters):
        nv = gram @ v
        norm = np.linalg.norm(nv)
        if norm == 0.0:
            return 0.0
        v = nv / norm
        new_lam = float(v @ gram @ v)
        if abs(new_lam - lam) <= 1e-12 * max(1.0, abs(new_lam)):
            return new_lam
        lam = new_lam
    return lam


def fit_l1_constrained(
    features,
    y,
    w,
    radius: float,
    max_iter: int = L1_MAX_ITER,
    rel_tol: float = L1_REL_TOL,
    kkt_tol: float = 1e-6,
) -> LinearModel:
    """Projected gradient descent for the weighted square loss on the l1 ball.

    Step size 1/L with L the largest eigenvalue of the weighted Gram matrix
    (power iteration).  Convergence requires both a relative objective
    decrease below ``rel_tol`` and a projected-gradient mapping below
    ``kkt_tol`` in every coordinate; hitting the iteration cap first sets a
    warning flag instead of raising (the problem is convex; the cap is a
    budget).
    """
    phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    d = phi.shape[1]
    if radius == 0.0:
        return LinearModel(
            regressor_id="l1-constrained", theta=np.zeros(d), radius=0.0
        )
    gram = phi.T @ (w[:, None] * phi)
    lmax = _power_iteration_lmax(gram)
    if lmax <= 0.0:
        return LinearModel(
            regressor_id="l1-constrained", theta=np.zeros(d), radius=radius
        )
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
    for _ in range(max_iter):
        theta_new = project_l1_ball(theta - step * half_grad(theta), radius)
        obj_new = objective(theta_new)
        small_decrease = abs(obj - obj_new) <= rel_tol * max(obj, 1e-300)
        theta, obj = theta_new, obj_new
        if small_decrease and np.max(np.abs(gradient_mapping(theta))) < kkt_tol:
            converged = True
            break
    gm = gradient_mapping(theta)
    return LinearModel(
        regressor_id="l1-constrained",
        theta=theta,
        radius=radius,
        converged=converged,
        kkt_residual=float(np.max(np.abs(gm))) if gm.size else 0.0,
    )


# ---------------------------------------------------------------------------
# Weighted isotonic regression
# ---------------------------------------------------------------------------


def fit_weighted_isotonic(t, y, w, clamp_unit: bool = False) -> IsotonicModel:
    """Weighted pool-adjacent-violators along a scalar feature.

    Exact ties in t are pre-pooled by weighted mean.  The fit is the
    right-continuous step function through the block solution; with
    ``clamp_unit`` the levels are clipped to [0, 1].
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (t.shape == y.shape == w.shape) or t.ndim != 1:
        raise ValueError("t, y, w must be equal-length vectors")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    order = np.argsort(t, kind="stable")
    ts = t[order]
    knots, inverse = np.unique(ts, return_inverse=True)
    wsum = np.bincount(inverse, weights=w[order])
    wysum = np.bincount(inverse, weights=(w * y)[order])
    means = wysum / wsum

    # stack of blocks (level, weight, knot count), merged while out of order
    blocks: list[list[float]] = []
    for mean_i, w_i in zip(means, wsum):
        blocks.append([float(mean_i), float(w_i), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            lv, wv, cv = blocks.pop()
            lp, wp, cp = blocks.pop()
            merged_w = wp + wv
            blocks.append([(lp * wp + lv * wv) / merged_w, merged_w, cp + cv])
    out = np.concatenate([np.full(int(c), lv) for lv, _, c in blocks])
    if clamp_unit:
        out = np.clip(out, 0.0, 1.0)
    return IsotonicModel(regressor_id="weighted-isotonic", knots=knots, levels=out)


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
    kernel_id: str = "sobolev1",
) -> float:
    """Pick the ridge level minimizing the weighted validation square loss.

    Folds are contiguous blocks of a seeded shuffle; each candidate is fitted
    on the remaining blocks with the supplied training weights.  Ties are
    broken toward the larger regularizer.

    A fold whose training rows all have zero weight is skipped, and skipping
    is exact: with zero training weight the ridge objective is minimized by
    f = 0 at every ridge level, which adds the same validation loss to every
    candidate.  (Such a fold then holds every positive weight, so the other
    folds validate at zero weight, every candidate ties, and the largest
    ridge level is chosen.)
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    grid = sorted(float(g) for g in grid)
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    if any(g <= 0 for g in grid):
        raise ValueError("grid values must be positive")
    if len(grid) == 1:
        return grid[0]
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if x.size < folds:
        raise ValueError(f"{x.size} points cannot fill {folds} folds")
    perm = make_generator(mix_seed(seed, "cv-shuffle")).permutation(x.size)
    blocks = np.array_split(perm, folds)
    best_lambda = grid[0]
    best_loss = np.inf
    for lam in grid:
        loss = 0.0
        for val_idx in blocks:
            mask = np.ones(x.size, dtype=bool)
            mask[val_idx] = False
            if not np.any(w[mask] > 0):
                continue
            model = fit_weighted_krr(x[mask], y[mask], w[mask], lam, kernel_id)
            resid = y[val_idx] - model.predict(x[val_idx])
            loss += float(np.sum(w[val_idx] * resid**2))
        if loss <= best_loss:
            best_loss = loss
            best_lambda = lam
    return best_lambda
