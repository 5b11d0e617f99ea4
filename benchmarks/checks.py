"""Correctness checks on a round's extracted outputs.

Each ``check_<workload>`` takes the plain outputs of ``extract`` and the
references of ``references.py`` and returns a list of failure messages; an
empty list means the round is correct.  Outputs of operations that failed
are absent and are not checked (they are counted in ``failed`` instead).

Monte Carlo checks compare against exact values with a stated multiple of
the Monte Carlo standard error.  The multiples are chosen so that a correct
program fails a check on fewer than one seed in ten thousand.
"""

from __future__ import annotations

import numpy as np

import references

TAU_TOL = 1e-12
EFFICIENT_VARIANCE_TOL = 1e-9
MOMENT_REL_TOL = 1e-9
BISECTION_TOL = 1e-4  # the tolerance the program's critical-radius bisection stops at
MC_RADIUS_FACTOR = 2.0
CERTIFICATE_TOL = 1e-10
IDENTITY_TOL = 1e-12
SE_MULTIPLE = 6.0
# the study's claim that two-stage beats IPW is checked from this n on: the
# pooled normalized MSE must be below this share of IPW's exact n-variance
STUDY_CHECK_MIN_N = 2000
TWO_STAGE_LIMIT = 0.6


def parse_results(text: str) -> dict:
    """Results CSV -> {(estimator, n): (reps, normalized_mse, mc_stderr)}."""
    rows = {}
    for line in text.splitlines()[1:]:
        _, est, n, reps, mse, se, _ = line.split(",")
        rows[(est, int(n))] = (int(reps), float(mse), float(se))
    return rows


def _close(name: str, value: float, ref: float, tol: float) -> list:
    if abs(value - ref) <= tol:
        return []
    return [f"{name} = {value!r}, reference {ref!r} (tolerance {tol:g})"]


def _mse_near(rows: dict, est: str, n_grid: list, exact: float, reps: int) -> list:
    """Normalized MSE within SE_MULTIPLE standard errors of the exact
    n-variance, at every n and pooled over n (the exact n-variance is the
    same at every n, so the pooled mean has the smaller standard error).
    The standard error is mc_stderr, floored at exact*sqrt(2/reps), its value
    for Gaussian errors: on the hard instance the IPW error is dominated by
    rare observations where the propensity is 0.005, and a run of
    replications that misses them reports an MSE and an mc_stderr that are
    both too small."""
    fails, mses, ses = [], [], []
    for n in n_grid:
        if (est, n) not in rows:
            fails.append(f"{est} n={n}: row missing")
            continue
        got_reps, mse, se = rows[(est, n)]
        if got_reps != reps:
            fails.append(f"{est} n={n}: {got_reps} replications, expected {reps}")
            continue
        se = max(se, exact * np.sqrt(2.0 / reps))
        mses.append(mse)
        ses.append(se)
        if not abs(mse - exact) <= SE_MULTIPLE * se:
            fails.append(
                f"{est} n={n}: normalized MSE {mse:.6g} is {abs(mse - exact) / se:.1f} "
                f"standard errors from the exact n-variance {exact:.6g}"
            )
    if fails:
        return fails
    mse = float(np.mean(mses))
    se = float(np.sqrt(np.sum(np.square(ses)))) / len(ses)
    if not abs(mse - exact) <= SE_MULTIPLE * se:
        fails.append(
            f"{est}: normalized MSE {mse:.6g} pooled over n is {abs(mse - exact) / se:.1f} "
            f"standard errors from the exact n-variance {exact:.6g}"
        )
    return fails


def _mean_and_variance(name: str, values: np.ndarray, n: int, tau: float, nvar: float) -> list:
    """Unbiasedness, and the n-rescaled variance against its exact value,
    each within SE_MULTIPLE standard errors."""
    reps = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(reps))
    dev_sq = (values - mean) ** 2
    var = n * float(values.var(ddof=1))
    var_se = n * float(dev_sq.std(ddof=1) / np.sqrt(reps))
    out = []
    if not abs(mean - tau) <= SE_MULTIPLE * se:
        out.append(f"{name}: mean {mean:.6g} is {abs(mean - tau) / se:.1f} se from {tau}")
    if not abs(var - nvar) <= SE_MULTIPLE * var_se:
        out.append(
            f"{name}: n-variance {var:.6g} is {abs(var - nvar) / var_se:.1f} se "
            f"from the exact {nvar:.6g}"
        )
    return out


def check_study_hard(out: dict, config: dict) -> list:
    ref = references.hard_references(m=1)
    fails = []
    if "tau" in out:
        fails += _close("tau", out["tau"], ref["tau"], TAU_TOL)
    if "efficient_variance" in out:
        fails += _close(
            "efficient variance", out["efficient_variance"], ref["efficient_variance"],
            EFFICIENT_VARIANCE_TOL,
        )
    exact = {"ipw": ref["ipw_nvar"], "oracle": ref["efficient_variance"]}
    if "baseline_csv" in out:
        rows = parse_results(out["baseline_csv"])
        for est, nvar in exact.items():
            fails += _mse_near(rows, est, config["n_grid"], nvar, config["baseline_reps"])
    if "two_stage_csv" in out and "two_stage_power_csv" in out:
        fails += _two_stage_below_ipw(
            parse_results(out["two_stage_csv"]), parse_results(out["two_stage_power_csv"]),
            config, TWO_STAGE_LIMIT * ref["ipw_nvar"],
        )
    return fails


def _two_stage_below_ipw(grid: dict, power: dict, config: dict, limit: float) -> list:
    """Both two-stage estimators, pooled over every replication at
    n >= STUDY_CHECK_MIN_N of the study grid and of the power call (which
    runs under its own master seed), have a normalized MSE below ``limit``.
    With 18 replications each, Gaussian errors at the measured variances
    (about 1.0-1.2 at n = 2000, 0.7-0.9 at n = 8000) fail this on about one
    seed in 20000, and a two-stage estimator no better than IPW passes on
    about one seed in 11 (one in 500 if it is twice as bad as IPW)."""
    fails = []
    for est in ("two-stage-weighted-krr", "two-stage-unweighted-krr"):
        missing = [n for n in config["n_grid"] if (est, n) not in grid]
        missing += [] if (est, config["power_n"]) in power else [config["power_n"]]
        if missing:
            fails.append(f"{est}: rows missing at n={missing}")
            continue
        cells = [power[(est, config["power_n"])]] + [
            grid[(est, n)] for n in config["n_grid"] if n >= STUDY_CHECK_MIN_N
        ]
        reps = sum(r for r, _, _ in cells)
        pooled = sum(r * mse for r, mse, _ in cells) / reps
        if not pooled < limit:
            fails.append(
                f"{est}: normalized MSE {pooled:.6g} over {reps} replications at "
                f"n >= {STUDY_CHECK_MIN_N} is not below {limit:.6g}"
            )
    return fails


def check_smalln_finite(out: dict, config: dict) -> list:
    ref = references.finite_references(sd=1.0)
    fails = []
    if "simulate_csv" in out:
        rows = parse_results(out["simulate_csv"])
        for est, nvar in (("ipw", ref["ipw_nvar"]), ("oracle", ref["efficient_variance"])):
            fails += _mse_near(rows, est, config["n_grid"], nvar, config["reps"])
    taus = out["crit02_tau_hat"]
    if taus.shape[1] >= 2:
        for j, nvar in enumerate(ref["crit02_nvar"]):
            fails += _mean_and_variance(
                f"criterion 02 auxiliary {j}", taus[j], config["crit02_n"], ref["tau"], nvar
            )
    frozen = out["crit07_tau_hat"]
    if frozen.size < 2:
        return fails
    n = config["crit07_n"]
    sq = (frozen - ref["tau"]) ** 2
    nmse = n * float(sq.mean())
    se = n * float(sq.std(ddof=1) / np.sqrt(sq.size))
    if not nmse <= ref["crit07_bound"] + 3.0 * se:
        fails.append(f"criterion 07: normalized MSE {nmse:.6g} above the risk bound {ref['crit07_bound']:.6g}")
    # a frozen first stage at mu_hat = 0 makes the auxiliary vanish: the
    # estimate is IPW, with IPW's exact n-variance
    if not abs(nmse - ref["ipw_nvar"]) <= SE_MULTIPLE * se:
        fails.append(f"criterion 07: normalized MSE {nmse:.6g} far from the exact {ref['ipw_nvar']:.6g}")
    return fails


def _certificate(name: str, cert: dict) -> list:
    """Independent check of a shattering certificate: the witness for each
    sampled sign pattern, evaluated here as points @ beta, hits
    threshold + pattern * scale."""
    fails = [] if cert["verified"] else [f"{name}: certificate does not verify"]
    values = cert["witnesses"] @ cert["points"].T
    target = cert["thresholds"] + cert["patterns"] * cert["scale"]
    err = float(np.max(np.abs(values - target)))
    if not err <= CERTIFICATE_TOL:
        fails.append(f"{name}: witness misses its pattern by {err:.3g}")
    return fails


def check_theory_diag(out: dict, config: dict) -> list:
    ref = references.hard_references(m=config["radius_m"])
    fails = []
    for key in ("sigma", "gamma"):
        if key in out:
            rel = np.max(np.abs(out[key] - ref[key]) / np.abs(ref[key]))
            if not rel <= MOMENT_REL_TOL:
                fails.append(f"{key} matrix off by {rel:.3g} relative")
    r_ref = ref["closed_form_radius"]
    if "radius_closed-form-linear" in out:
        fails += _close("closed-form radius", out["radius_closed-form-linear"], r_ref, BISECTION_TOL)
    if "radius_mc" in out:
        ratio = out["radius_mc"] / r_ref
        if not 1.0 / MC_RADIUS_FACTOR <= ratio <= MC_RADIUS_FACTOR:
            fails.append(f"Monte Carlo radius {out['radius_mc']!r} is {ratio:.3g} x the closed form")

    if "hadamard" in out:
        cert = out["hadamard"]
        p = cert["points"].shape[1]
        fails += _certificate("hadamard", cert)
        if not (np.all(np.abs(cert["points"]) == 1.0) and np.array_equal(cert["points"] @ cert["points"].T, p * np.eye(p))):
            fails.append("hadamard: points are not an orthogonal +/-1 basis")
    if "sparse" in out:
        cert = out["sparse"]
        fails += _certificate("sparse", cert)
        _, s = config["sparse"]
        if np.any(np.count_nonzero(cert["witnesses"], axis=1) > s):
            fails.append(f"sparse: a witness has more than {s} non-zeros")

    if "tilt" in out:
        tilt, t_ref = out["tilt"], references.tilt_reference(config["tilt_n"])
        fails += _close("tilt size", tilt["tweak"], t_ref["tweak"], IDENTITY_TOL)
        fails += _close("tilt gap", tilt["gap"], t_ref["gap"], IDENTITY_TOL)
        fails += _close("tilt chi2", tilt["divergences"]["chi2"], t_ref["chi2"], IDENTITY_TOL)
        if not all(tilt["checks"].values()):
            fails.append(f"tilt: certification flags {tilt['checks']}")
    if "pair" in out:
        pair, p_ref = out["pair"], references.sigma_pair_reference(1.0, config["pair_n"])
        fails += _close("sigma-pair size", pair["tweak"], p_ref["tweak"], IDENTITY_TOL)
        fails += _close("sigma-pair gap", pair["gap"], p_ref["gap"], IDENTITY_TOL)
        fails += _close("sigma-pair KL bound", pair["divergences"]["kl_n_bound"], p_ref["kl_n_bound"], IDENTITY_TOL)
        fails += _close("sigma-pair KL", pair["divergences"]["kl_n_exact"], p_ref["kl_n_exact"], IDENTITY_TOL)
        if not all(pair["checks"].values()):
            fails.append(f"sigma-pair: certification flags {pair['checks']}")
    if "mixture" in out:
        mix = out["mixture"]
        m_ref = references.mixture_reference(config["mixture_delta"], config["mixture_s"])
        fails += _close("mixture gap", mix["gap"], m_ref["gap"], IDENTITY_TOL)
        mc_gap, mc_se = mix["divergences"]["mc_gap"], mix["divergences"]["mc_se"]
        if not abs(mc_gap - m_ref["gap"]) <= SE_MULTIPLE * mc_se:
            fails.append(f"mixture: Monte Carlo gap {mc_gap:.6g} far from the exact {m_ref['gap']:.6g}")
        if not all(mix["checks"].values()):
            fails.append(f"mixture: certification flags {mix['checks']}")
    return fails


CHECKS = {
    "study-hard": check_study_hard,
    "smalln-finite": check_smalln_finite,
    "theory-diag": check_theory_diag,
}
