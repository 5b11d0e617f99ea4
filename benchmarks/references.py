"""Reference values computed apart from the program.

Nothing here imports ``ope_lab``.  The hard missing-data instance is written
out from its definition and integrated with ``scipy.integrate.quad`` (with a
breakpoint at x = 1/2, where the propensity dips and the tent peaks); the
two-state finite instance is handled by plain enumeration over its tables.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Hard missing-data instance: X ~ U[0, 1], A in {0, 1}, g(x, a) = a,
# mu(x, 1) = 1/2 - |x - 1/2|, sd(x, 1) = sigma0, pi(x, 1) = pi1(x).
# ---------------------------------------------------------------------------

PI_MIN = 0.005
HARD_SIGMA0 = 0.15


def pi1(x: float) -> float:
    return 0.5 - (0.5 - PI_MIN) * math.sin(math.pi * x)


def tent(x: float) -> float:
    return 0.5 - abs(x - 0.5)


def _quad(fn) -> float:
    from scipy import integrate  # imported here so that loading the tables stays cheap

    value, _ = integrate.quad(fn, 0.0, 1.0, points=[0.5], epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


def hard_references(m: int) -> dict:
    """tau, efficient variance, exact IPW n-variance, and the state-linear
    moment matrices with the closed-form critical radius at sample size m."""
    s2 = HARD_SIGMA0**2
    tau = _quad(tent)
    var_between = _quad(lambda x: tent(x) ** 2) - tau**2
    noise = _quad(lambda x: s2 / pi1(x))
    # IPW term a*y/pi1 has second moment E[(tent^2 + sigma0^2) / pi1]
    ipw_nvar = _quad(lambda x: (tent(x) ** 2 + s2) / pi1(x)) - tau**2
    # features phi = (1, x); only a = 1 carries weight, so
    # Sigma = E[phi phi' / pi1] and Gamma = E[sigma0^2 phi phi' / pi1^3]
    sigma = np.empty((2, 2))
    gamma = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            sigma[i, j] = _quad(lambda x: x ** (i + j) / pi1(x))
            gamma[i, j] = _quad(lambda x: s2 * x ** (i + j) / pi1(x) ** 3)
    slope = math.sqrt(float(np.trace(np.linalg.solve(sigma, gamma))) / m)
    return {
        "tau": tau,
        "efficient_variance": var_between + noise,
        "ipw_nvar": ipw_nvar,
        "sigma": sigma,
        "gamma": gamma,
        "closed_form_radius": slope,
    }


# ---------------------------------------------------------------------------
# Two-state finite instance: states {0, 1} with probability 1/2 each,
# counting measure on actions {0, 1}, g = 2a - 1.
# ---------------------------------------------------------------------------

FINITE_PROBS = [0.5, 0.5]
FINITE_PI = [[0.8, 0.2], [0.4, 0.6]]
FINITE_G = [[-1.0, 1.0], [-1.0, 1.0]]
FINITE_MU = [[1.0, 2.0], [0.0, 3.0]]

# criterion-02 auxiliaries: the ideal one, and two raw tables recentred to
# zero conditional mean under pi
CRIT02_RAW = ([[0.0, 1.0], [1.0, 2.0]], [[2.0, -1.0], [0.5, 4.0]])


def _inner(i: int) -> float:
    return sum(FINITE_G[i][k] * FINITE_MU[i][k] for k in range(2))


def _centered(raw):
    return [
        [raw[i][k] - sum(FINITE_PI[i][j] * raw[i][j] for j in range(2)) for k in range(2)]
        for i in range(2)
    ]


def crit02_tables() -> list:
    ideal = [
        [FINITE_G[i][k] * FINITE_MU[i][k] / FINITE_PI[i][k] - _inner(i) for k in range(2)]
        for i in range(2)
    ]
    return [ideal] + [_centered(raw) for raw in CRIT02_RAW]


def _norm_sq(h) -> float:
    """||h||_w^2 = sum_x p(x) sum_a g^2 / pi * h^2."""
    return sum(
        FINITE_PROBS[i] * FINITE_G[i][k] ** 2 / FINITE_PI[i][k] * h[i][k] ** 2
        for i in range(2)
        for k in range(2)
    )


def _recentered_nvar(sd: float, f) -> float:
    """n-variance of mean[g/pi*y - f + <f, pi>] at a zero-conditional-mean f,
    enumerated from the law of one observation."""
    mean = 0.0
    second = 0.0
    for i in range(2):
        for k in range(2):
            p = FINITE_PROBS[i] * FINITE_PI[i][k]
            ratio = FINITE_G[i][k] / FINITE_PI[i][k]
            centre = ratio * FINITE_MU[i][k] - f[i][k]
            mean += p * centre
            second += p * (centre**2 + ratio**2 * sd**2)
    return second - mean**2


def finite_references(sd: float) -> dict:
    tau = sum(FINITE_PROBS[i] * _inner(i) for i in range(2))
    zero = [[0.0, 0.0], [0.0, 0.0]]
    sd_table = [[sd, sd], [sd, sd]]
    eff = (
        sum(FINITE_PROBS[i] * _inner(i) ** 2 for i in range(2))
        - tau**2
        + _norm_sq(sd_table)
    )
    mu_norm_sq = _norm_sq(FINITE_MU)
    return {
        "tau": tau,
        "efficient_variance": eff,
        "ipw_nvar": _recentered_nvar(sd, zero),
        "crit02_nvar": [_recentered_nvar(sd, t) for t in crit02_tables()],
        # frozen first stage mu_hat = 0: risk bound V* + 2 ||mu - 0||_w^2
        "crit07_bound": eff + 2.0 * mu_norm_sq,
    }


def tilt_reference(n: int) -> dict:
    """Exponential tilt of the state law along the centred per-state functional."""
    per_state = [_inner(i) for i in range(2)]
    tau = sum(p * v for p, v in zip(FINITE_PROBS, per_state))
    h = [v - tau for v in per_state]
    l2 = math.sqrt(sum(p * v * v for p, v in zip(FINITE_PROBS, h)))
    ratio = math.sqrt(sum(p * v**4 for p, v in zip(FINITE_PROBS, h))) / l2**2
    h_tr = [v if abs(v) <= 2.0 * ratio * l2 else math.copysign(l2, v) for v in h]
    norm_tr = math.sqrt(sum(p * v * v for p, v in zip(FINITE_PROBS, h_tr)))
    s = 1.0 / (4.0 * norm_tr * math.sqrt(n))
    weights = [p * math.exp(s * v) for p, v in zip(FINITE_PROBS, h_tr)]
    tilted = [w / sum(weights) for w in weights]
    chi2 = sum((q - p) ** 2 / p for p, q in zip(FINITE_PROBS, tilted))
    gap = sum(q * v for q, v in zip(tilted, per_state)) - tau
    return {"tweak": s, "gap": gap, "chi2": chi2}


def sigma_pair_reference(sd: float, n: int) -> dict:
    """Mean-shift pair mu +/- s (g/pi) sigma^2: gap ||sigma||_w / (2 sqrt n),
    n-sample KL bound exactly 1/4."""
    norm_sq = _norm_sq([[sd, sd], [sd, sd]])
    s = 1.0 / (4.0 * math.sqrt(norm_sq) * math.sqrt(n))
    gap = sum(
        FINITE_PROBS[i] * FINITE_G[i][k] * 2.0 * s * FINITE_G[i][k] / FINITE_PI[i][k] * sd**2
        for i in range(2)
        for k in range(2)
    )
    return {
        "tweak": s,
        "gap": gap,
        "kl_n_bound": 4.0 * n * s**2 * norm_sq,
        "kl_n_exact": 2.0 * n * s**2 * norm_sq,
    }


def mixture_reference(delta: float, s: float) -> dict:
    """Exact functional gap of the biased-sign mixtures mu +/- delta."""
    joint = [[FINITE_PROBS[i] * FINITE_PI[i][k] for k in range(2)] for i in range(2)]
    z = [[FINITE_G[i][k] * delta / FINITE_PI[i][k] for k in range(2)] for i in range(2)]
    second = sum(joint[i][k] * z[i][k] ** 2 for i in range(2) for k in range(2))
    fourth = sum(joint[i][k] * z[i][k] ** 4 for i in range(2) for k in range(2))
    ratio = math.sqrt(fourth) / second
    norm = math.sqrt(second)
    gap = 0.0
    for i in range(2):
        for k in range(2):
            z_ik = z[i][k]
            rho = z_ik / norm if abs(z_ik) <= 2.0 * ratio * norm else math.copysign(1.0, FINITE_G[i][k])
            gap += 2.0 * s * FINITE_PROBS[i] * FINITE_G[i][k] * delta * rho
    return {"gap": gap}
