"""Adversarial problem perturbations on finite spaces, with exact divergences.

Three constructions, each certifying that two statistically close problems
have well-separated functional values:

* ``tilted_instance``  exponentially tilts the state distribution along the
  centered per-state functional, with truncation keeping the tilt bounded;
* ``sigma_perturbed_pair``  shifts the outcome mean by +/- s (g/pi) sigma^2,
  trading Gaussian KL against an exactly computable functional gap;
* ``delta_mixture``  draws outcome functions mu +/- delta with biased
  independent signs per atom, the mixture-vs-mixture construction.

Everything here requires finite state spaces so that every divergence and
moment is an exact finite sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import FiniteStates, ProblemInstance, _mean_and_variance, _require_finite_cells
from .rng import substream


class SupportError(ValueError):
    """Divergence undefined because of a support violation at an atom."""

    def __init__(self, message: str, atom):
        super().__init__(message)
        self.atom = atom

    def __reduce__(self):
        return type(self), (self.args[0], self.atom)


def divergence(kind: str, p: FiniteStates, q: FiniteStates) -> float:
    """Exact KL, chi-squared, or total variation between two laws on the
    same finite states."""
    if not np.array_equal(p.values, q.values):
        raise SupportError("distributions live on different state values", atom=None)
    pp, qq = p.probs, q.probs
    if kind == "TV":
        return 0.5 * float(np.sum(np.abs(pp - qq)))
    bad = (qq == 0) & (pp > 0)
    if np.any(bad):
        atom = float(p.values[int(np.argmax(bad))])
        raise SupportError(
            f"{kind} divergence undefined: q vanishes at atom {atom!r} with p > 0",
            atom=atom,
        )
    if kind == "KL":
        mask = pp > 0
        return float(np.sum(pp[mask] * np.log(pp[mask] / qq[mask])))
    if kind == "CHI2":
        mask = qq > 0
        return float(np.sum((pp[mask] - qq[mask]) ** 2 / qq[mask]))
    raise ValueError(f"unknown divergence kind {kind!r}")


@dataclass
class PerturbationReport:
    """Outcome of one adversarial construction.

    ``tweak`` is the perturbation size s; ``gap`` the exact functional
    separation; ``divergences`` the exact divergence values and bounds;
    ``checks`` named certification flags; ``details`` construction-specific
    payloads (perturbed objects, moment constants, atom tables).
    """

    kind: str
    tweak: float
    gap: float
    divergences: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    degenerate: bool = False

    def __post_init__(self):
        if not self.degenerate and self.tweak <= 0:
            raise ValueError("perturbation size must be positive")
        for name, value in self.divergences.items():
            if not np.isfinite(value):
                raise ValueError(f"divergence {name} is not finite")

    def to_text(self) -> str:
        doc = {
            "kind": self.kind,
            "tweak": self.tweak,
            "gap": self.gap,
            "divergences": self.divergences,
            "checks": self.checks,
            "degenerate": self.degenerate,
        }
        return json.dumps(doc, indent=2, default=str)

    def csv_row(self) -> str:
        certified = all(self.checks.values()) if self.checks else True
        return (
            f"{self.kind},{self.tweak:.10g},{self.gap:.10g},"
            f"{int(certified)},{int(self.degenerate)}"
        )


CSV_HEADER = "kind,tweak,gap,certified,degenerate"


# ---------------------------------------------------------------------------
# Shared finite-instance tabulation
# ---------------------------------------------------------------------------


def _require_finite(instance: ProblemInstance) -> FiniteStates:
    if not isinstance(instance.states, FiniteStates):
        raise TypeError("lower-bound constructions require a finite state space")
    return instance.states


def _tables(instance: ProblemInstance):
    """Per-atom tables over the (state, action) grid: the instance's grids."""
    states = _require_finite(instance)
    grid = instance._grid
    return (
        states.values, states.probs, instance.actions.base_weights,
        grid(instance.propensity), grid(instance.weight_fn),
        grid(instance.outcome_mean), grid(instance.outcome_sd),
    )


# ---------------------------------------------------------------------------
# Tilted state distribution
# ---------------------------------------------------------------------------


def tilted_instance(instance: ProblemInstance, n: int) -> PerturbationReport:
    """Exponential tilt of the state law along the centered functional.

    Certifies the chi-squared budget chi2 <= 1/(8n); when n is at least four
    squared moment ratios, also certifies the functional gap at the scale
    ||h|| / (16 sqrt(n)).  A constant per-state functional yields the
    degenerate flagged report with the untouched distribution.
    """
    if n < 1:
        raise ValueError("n must be positive")
    xs, probs, lam, pmat, gmat, mumat, _ = _tables(instance)
    per_state = (gmat * mumat) @ lam
    tau_star = float(probs @ per_state)
    h = per_state - tau_star
    l2h = float(np.sqrt(probs @ h**2))
    if l2h == 0.0:
        return PerturbationReport(
            kind="tilted-state",
            tweak=0.0,
            gap=0.0,
            divergences={"chi2": 0.0, "kl": 0.0, "tv": 0.0},
            checks={"chi2_within_budget": True},
            details={"tilted": instance.states},
            degenerate=True,
        )
    moment_ratio = float(np.sqrt(probs @ h**4) / (probs @ h**2))
    cutoff = 2.0 * moment_ratio * l2h
    h_tr = np.where(np.abs(h) <= cutoff, h, np.sign(h) * l2h)
    norm_tr = float(np.sqrt(probs @ h_tr**2))
    s = 1.0 / (4.0 * norm_tr * np.sqrt(n))

    weights = probs * np.exp(s * h_tr)
    normalizer = float(weights.sum())
    tilted_probs = weights / normalizer

    tilted = FiniteStates(xs, tilted_probs)
    chi2 = divergence("CHI2", tilted, instance.states)
    kl = divergence("KL", tilted, instance.states)
    tv = divergence("TV", tilted, instance.states)
    gap = float(tilted_probs @ per_state) - tau_star

    chi2_budget = 1.0 / (8.0 * n)
    gap_floor = l2h / (16.0 * np.sqrt(n))
    n_large_enough = n >= 4.0 * moment_ratio**2
    return PerturbationReport(
        kind="tilted-state",
        tweak=s,
        gap=gap,
        divergences={
            "chi2": chi2,
            "kl": kl,
            "tv": tv,
            "chi2_budget": chi2_budget,
            "tv_product_bound": float(np.sqrt(0.5 * ((1.0 + chi2) ** n - 1.0))),
        },
        checks={
            "chi2_within_budget": chi2 <= chi2_budget,
            "gap_above_floor": (not n_large_enough) or gap >= gap_floor,
            "sample_size_qualifies": bool(n_large_enough),
        },
        details={
            "tilted": tilted,
            "normalizer": normalizer,
            "h_l2": l2h,
            "h_truncated_sup": float(np.max(np.abs(h_tr))),
            "ratio_to_base": tilted_probs / probs,
        },
    )


# ---------------------------------------------------------------------------
# Outcome-mean perturbation pair
# ---------------------------------------------------------------------------


def sigma_perturbed_pair(
    instance: ProblemInstance, n: int, delta=None
) -> PerturbationReport:
    """Pair of outcome means mu +/- s (g/pi) sigma^2 with s = 1/(4||sigma||_w sqrt(n)).

    The exact functional gap equals ||sigma||_w / (2 sqrt(n)) identically; the
    report certifies that to 1e-10 numerically, along with the n-sample KL
    budget 4 n s^2 ||sigma||_w^2 = 1/4.  A neighborhood function ``delta``
    may be supplied; the report then flags whether it dominates the
    perturbation at every atom (the neighborhood-size condition), but the
    construction proceeds regardless.
    """
    if n < 1:
        raise ValueError("n must be positive")
    xs, probs, lam, pmat, gmat, _, sdmat = _tables(instance)
    sigma_norm_sq = float(probs @ ((gmat**2 / pmat * sdmat**2) @ lam))
    sigma_norm = float(np.sqrt(sigma_norm_sq))
    if sigma_norm == 0.0:
        raise ValueError("sigma-perturbation requires ||sigma||_w > 0")
    s = 1.0 / (4.0 * sigma_norm * np.sqrt(n))

    shift = s * gmat / pmat * sdmat**2
    # exact gap: sum over atoms of xi * lambda * g * (2 * shift)
    gap = float(probs @ ((gmat * 2.0 * shift) @ lam))
    target_gap = sigma_norm / (2.0 * np.sqrt(n))

    kl_bound_n = 4.0 * n * s**2 * sigma_norm_sq
    kl_exact_n = float(n * probs @ ((pmat * (2.0 * s**2 * gmat**2 * sdmat**2 / pmat**2)) @ lam))

    checks = {
        "gap_identity": abs(gap - target_gap) <= 1e-10 * max(1.0, abs(target_gap)),
        "kl_budget_quarter": abs(kl_bound_n - 0.25) <= 1e-10,
    }
    if delta is not None:
        dmat = instance._grid(delta)
        _require_finite_cells("delta", dmat, xs, instance.actions.labels)
        required = gmat * sdmat**2 / (pmat * sigma_norm)
        checks["neighborhood_large_enough"] = bool(np.all(np.sqrt(n) * dmat >= required - 1e-12))
    return PerturbationReport(
        kind="sigma-pair",
        tweak=s,
        gap=gap,
        divergences={"kl_n_bound": kl_bound_n, "kl_n_exact": kl_exact_n},
        checks=checks,
        details={"sigma_norm": sigma_norm},
    )


# ---------------------------------------------------------------------------
# Mixture-vs-mixture outcome perturbation
# ---------------------------------------------------------------------------


def delta_mixture(
    instance: ProblemInstance,
    delta,
    s: float,
    reps: int = 1000,
    seed: int = 0,
) -> PerturbationReport:
    """Biased-sign mixtures of outcome functions mu +/- delta.

    Each atom (x, a) receives an independent sign with mean s * rho(x, a),
    where rho is the normalized, truncated weighted perturbation.  Reports
    the Monte Carlo estimate of the mean functional separation between the
    positively and negatively biased mixtures with its standard error, and
    its exact enumeration, checked against the guaranteed floor
    s ||delta||_w / 2.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    xs, probs, lam, pmat, gmat, mumat, _ = _tables(instance)
    dmat = instance._grid(delta)
    _require_finite_cells("delta", dmat, xs, instance.actions.labels)
    if np.any(dmat <= 0):
        raise ValueError("delta must be strictly positive on the support")

    # joint law of (X, A) over atoms
    joint = probs[:, None] * lam[None, :] * pmat
    z = gmat * dmat / pmat
    second = float((joint * z**2).sum())
    fourth = float((joint * z**4).sum())
    moment_ratio = float(np.sqrt(fourth) / second)
    if not (0.0 < s <= 1.0 / (2.0 * moment_ratio)):
        raise ValueError(
            f"s must lie in (0, {1.0 / (2.0 * moment_ratio):.6g}] for this instance"
        )
    delta_norm = float(np.sqrt(second))

    rho = np.where(
        np.abs(z) <= 2.0 * moment_ratio * delta_norm, z / delta_norm, np.sign(gmat)
    )
    rho_second_moment = float((joint * rho**2).sum())

    tau_star = float(probs @ ((gmat * mumat) @ lam))
    atom_coeff = probs[:, None] * lam[None, :] * gmat * dmat  # d tau / d sign
    gap_exact = 2.0 * s * float((atom_coeff * rho).sum())
    gap_floor = s * delta_norm / 2.0

    taus_plus = np.empty(reps)
    taus_minus = np.empty(reps)
    p_plus = (1.0 + s * rho) / 2.0
    p_minus = (1.0 - s * rho) / 2.0
    for r in range(reps):
        rng = substream(seed, r)
        signs_p = np.where(rng.random(rho.shape) < p_plus, 1.0, -1.0)
        signs_m = np.where(rng.random(rho.shape) < p_minus, 1.0, -1.0)
        taus_plus[r] = tau_star + float((atom_coeff * signs_p).sum())
        taus_minus[r] = tau_star + float((atom_coeff * signs_m).sum())
    mean_plus, var_plus = _mean_and_variance(taus_plus)
    mean_minus, var_minus = _mean_and_variance(taus_minus)
    mc_gap = mean_plus - mean_minus
    mc_se = float(np.sqrt(var_plus / reps + var_minus / reps))

    return PerturbationReport(
        kind="delta-mixture",
        tweak=s,
        gap=gap_exact,
        divergences={"mc_gap": mc_gap, "mc_se": mc_se},
        checks={
            "gap_above_floor": gap_exact >= gap_floor - 1e-12,
            "rho_second_moment_ok": rho_second_moment <= 1.0 + 1e-10,
        },
        details={
            "tau_star": tau_star,
            "delta_norm": delta_norm,
            "moment_ratio": moment_ratio,
            "atom_coeff": atom_coeff,
        },
    )
