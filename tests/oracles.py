"""Independent brute-force oracles for finite instances, the dense kernel
ridge solve, and the kernel ridge optimality checks.

Deliberately written as plain-Python loops over probability tables or as
the textbook dense system, sharing no code with the package: these are the
reference values the fast paths are checked against.  The optimality
checks read a fit only through its knots, values, ridge level and
``predict``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def brute_true_functional(probs, lam, g, mu):
    total = 0.0
    for i, px in enumerate(probs):
        for k, lk in enumerate(lam):
            total += px * lk * g[i][k] * mu[i][k]
    return total


def brute_weighted_norm_sq(probs, lam, pi, g, h):
    total = 0.0
    for i, px in enumerate(probs):
        for k, lk in enumerate(lam):
            total += px * lk * g[i][k] ** 2 / pi[i][k] * h[i][k] ** 2
    return total


def brute_efficient_variance(probs, lam, pi, g, mu, sd):
    mean = 0.0
    second = 0.0
    for i, px in enumerate(probs):
        inner = 0.0
        for k, lk in enumerate(lam):
            inner += lk * g[i][k] * mu[i][k]
        mean += px * inner
        second += px * inner * inner
    return second - mean * mean + brute_weighted_norm_sq(probs, lam, pi, g, sd)


def brute_excess_variance(probs, lam, pi, g, mu, mubar):
    value = 0.0
    for i, px in enumerate(probs):
        cond_mean = 0.0
        cond_second = 0.0
        for k, lk in enumerate(lam):
            t = g[i][k] / pi[i][k] * (mu[i][k] - mubar[i][k])
            cond_mean += lk * pi[i][k] * t
            cond_second += lk * pi[i][k] * t * t
        value += px * (cond_second - cond_mean * cond_mean)
    return value


def brute_exact_estimator_variance(probs, lam, pi, g, mu, sd, f):
    """n-rescaled variance of the recentered estimator at a zero-mean f:
    between-state variance + noise term + misfit of f against the ideal
    auxiliary."""
    between_mean = 0.0
    between_second = 0.0
    noise = 0.0
    misfit = 0.0
    for i, px in enumerate(probs):
        inner = 0.0
        for k, lk in enumerate(lam):
            inner += lk * g[i][k] * mu[i][k]
        between_mean += px * inner
        between_second += px * inner * inner
        for k, lk in enumerate(lam):
            noise += px * lk * sd[i][k] ** 2 * g[i][k] ** 2 / pi[i][k]
            ideal = g[i][k] * mu[i][k] / pi[i][k] - inner
            misfit += px * lk * pi[i][k] * (f[i][k] - ideal) ** 2
    return between_second - between_mean**2 + noise + misfit


def brute_isotonic_grid(t, y, w, step=1e-3):
    """Dynamic program over a level grid: best non-decreasing fit."""
    lo, hi = min(y), max(y)
    n_levels = max(int(math.ceil((hi - lo) / step)) + 1, 1)
    grid = [lo + j * step for j in range(n_levels)]
    order = sorted(range(len(t)), key=lambda i: t[i])
    costs = [0.0] * n_levels
    choices = []
    for i in order:
        stage = [w[i] * (y[i] - gval) ** 2 for gval in grid]
        best_prev = [0.0] * n_levels
        running = math.inf
        arg = [0] * n_levels
        best_idx = 0
        for j in range(n_levels):
            if costs[j] < running:
                running = costs[j]
                best_idx = j
            best_prev[j] = running
            arg[j] = best_idx
        costs = [stage[j] + best_prev[j] for j in range(n_levels)]
        choices.append(arg)
    j = min(range(n_levels), key=lambda k: costs[k])
    levels_rev = []
    for arg in reversed(choices):
        levels_rev.append(grid[j])
        j = arg[j]
    fitted = [0.0] * len(t)
    for pos, i in enumerate(order):
        fitted[i] = levels_rev[len(order) - 1 - pos]
    return fitted


def dense_krr_values(x, y, w, lam, knots):
    """Weighted min-kernel ridge fit at ``knots`` from the representer system
    (W K + lam I) alpha = W y, K_ij = min(x_i, x_j), factorized densely."""
    x, y, w = (np.asarray(v, dtype=float) for v in (x, y, w))
    system = w[:, None] * np.minimum.outer(x, x) + lam * np.eye(x.size)
    alpha = scipy.linalg.lu_solve(scipy.linalg.lu_factor(system), w * y)
    return np.minimum.outer(knots, x) @ alpha


def krr_alpha(model, x, y, w):
    """Representer coefficients alpha_i = w_i (y_i - f(x_i)) / lam of a kernel
    fit f = sum_i alpha_i min(., x_i) on the training rows (x, y, w)."""
    y, w = np.asarray(y, dtype=float), np.asarray(w, dtype=float)
    return w * (y - model.predict(x)) / model.lambda_reg


def krr_objective(model, x, y, w):
    """sum_i w_i (y_i - f(x_i))^2 + lam ||f||_H^2 of a kernel fit."""
    resid = np.asarray(y, dtype=float) - model.predict(x)
    # ||f||_H^2 = integral of f'^2, exact for the piecewise-linear f
    penalty = float(np.sum(np.diff(model.values) ** 2 / np.diff(model.knots)))
    return float(np.sum(np.asarray(w, dtype=float) * resid**2) + model.lambda_reg * penalty)
