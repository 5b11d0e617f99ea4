"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The missing-data cells (criteria 3 through 6) follow the desk-scale
protocol: 200 replications, sample sizes 500 through 8000.

Two declared calibration choices for the hard-instance cells (criteria 4-6),
both plain config fields:
* noise scale 0.15 (the instance family's noise scale is a free parameter;
  at scale 1.0 the common noise floor E[sigma^2/pi] dominates both IPW and
  the efficiency floor, capping their exact ratio at 1.19, so no calibration
  of the estimators themselves could separate them);
* cross-validation grid widened to logspace(-1, 6): the weighted objective
  rescales the loss by weights up to pi_min^-2 = 4e4, so its useful ridge
  levels sit orders of magnitude above the unweighted ones.
"""

import itertools
import json

import numpy as np
import pytest

import ope_lab as ol
from ope_lab import cli, simlab
from ope_lab.complexity import (
    IDENTITY_LINK,
    LocalizedClassSpec,
    critical_radius,
    hadamard_glm_shatter,
    moment_matrices,
    rademacher_R_mc,
    sparse_packing_shatter,
)
from ope_lab.lowerbounds import sigma_perturbed_pair, tilted_instance
from ope_lab.regression import fit_l1_constrained, fit_weighted_isotonic, fit_weighted_krr

from conftest import make_d1
from oracles import (
    brute_efficient_variance,
    brute_exact_estimator_variance,
    brute_isotonic_grid,
    brute_true_functional,
    brute_weighted_norm_sq,
)

MASTER_SEED = 20260809
HARD_INSTANCE = {
    "kind": "builtin",
    "name": "missing-data",
    "params": {"propensity": "pi1", "gamma": 0.0, "sigma0": 0.15},
}
WIDE_GRID = tuple(float(v) for v in np.logspace(-1.0, 6.0, 15))


def _criterion(num: int, description: str, passed: bool):
    print(f"criterion {num:02d} {'PASS' if passed else 'FAIL'}: {description}", flush=True)
    assert passed, f"criterion {num:02d} failed: {description}"


def const_fn(c):
    return lambda x, a: np.full(np.broadcast(np.asarray(x), np.asarray(a)).shape, float(c))


def d1_tables(sigma):
    probs = [0.5, 0.5]
    lam = [1.0, 1.0]
    pi = [[0.8, 0.2], [0.4, 0.6]]
    g = [[-1.0, 1.0], [-1.0, 1.0]]
    mu = [[1.0, 2.0], [0.0, 3.0]]
    sd = [[sigma, sigma], [sigma, sigma]]
    return probs, lam, pi, g, mu, sd


@pytest.fixture(scope="module")
def hard_table():
    """Shared experiment for criteria 4, 5, and 6."""
    config = simlab.ExperimentConfig(
        instance=HARD_INSTANCE,
        estimators=(
            "ipw",
            "oracle",
            "two-stage-weighted-krr",
            "two-stage-unweighted-krr",
        ),
        n_grid=(500, 1000, 2000, 4000, 8000),
        reps=200,
        lambda_grid=WIDE_GRID,
        master_seed=MASTER_SEED,
    )
    table = simlab.run_experiment(config)
    return {(r.estimator, r.n): r for r in table.rows}


def test_criterion_01_exact_oracle_agreement():
    d1 = make_d1(0.0)
    d1_noisy = make_d1(1.0)
    probs, lam, pi, g, mu, sd1 = d1_tables(1.0)
    ones = [[1.0, 1.0], [1.0, 1.0]]
    checks = [
        abs(ol.true_functional(d1) - brute_true_functional(probs, lam, g, mu)) < 1e-12,
        abs(ol.true_functional(d1) - 2.0) < 1e-12,
        abs(
            ol.weighted_norm(d1, const_fn(1.0)) ** 2
            - brute_weighted_norm_sq(probs, lam, pi, g, ones)
        ) < 1e-12,
        abs(ol.weighted_norm(d1, const_fn(1.0)) ** 2 - 5.208333333333333) < 1e-12,
        abs(
            ol.efficient_variance(d1_noisy)
            - brute_efficient_variance(probs, lam, pi, g, mu, sd1)
        ) < 1e-12,
        abs(ol.efficient_variance(d1_noisy) - 6.208333333333333) < 1e-12,
    ]
    _criterion(
        1,
        "exact functionals on the two-state example match independent "
        "enumeration to 1e-12",
        all(checks),
    )


def test_criterion_02_unbiasedness_and_exact_variance():
    d1 = make_d1(1.0)
    probs, lam, pi, g, mu, sd = d1_tables(1.0)
    inner = [sum(lam[k] * g[i][k] * mu[i][k] for k in range(2)) for i in range(2)]

    def centered(raw):
        return [
            [
                raw[i][k] - sum(lam[j] * pi[i][j] * raw[i][j] for j in range(2))
                for k in range(2)
            ]
            for i in range(2)
        ]

    f_tables = [
        [[g[i][k] * mu[i][k] / pi[i][k] - inner[i] for k in range(2)] for i in range(2)],
        centered([[0.0, 1.0], [1.0, 2.0]]),
        centered([[2.0, -1.0], [0.5, 4.0]]),
    ]
    fns = [
        lambda x, a, t=t: np.asarray(t)[np.asarray(x, dtype=int), np.asarray(a, dtype=int)]
        for t in f_tables
    ]
    exacts = [
        brute_exact_estimator_variance(probs, lam, pi, g, mu, sd, t) for t in f_tables
    ]

    n, reps = 16, 10**5
    taus = np.empty((len(fns), reps))
    for r in range(reps):
        data = ol.sample_dataset(d1, n, seed=ol.mix_seed(MASTER_SEED, "crit2", r))
        for j, f in enumerate(fns):
            taus[j, r] = ol.generic_estimate(data, d1, f).tau_hat
    ok = True
    details = []
    for j, exact in enumerate(exacts):
        mean = taus[j].mean()
        se = taus[j].std(ddof=1) / np.sqrt(reps)
        mc_var = n * taus[j].var(ddof=1)
        rel = abs(mc_var - exact) / exact
        ok &= abs(mean - 2.0) < 4 * se
        ok &= rel < 0.05
        details.append(f"f{j}: |mean-2|={abs(mean-2.0):.2e} (4se={4*se:.2e}), var rel err={rel:.3f}")
    _criterion(2, "unbiased with enumerated exact variance; " + "; ".join(details), ok)


def test_criterion_03_oracle_efficiency_flat():
    inst = simlab.build_builtin_instance("pi2", gamma=1.0, sigma0=1.0)
    v_star = ol.efficient_variance(inst)
    config = simlab.ExperimentConfig(
        instance={"kind": "builtin", "name": "missing-data",
                  "params": {"propensity": "pi2", "gamma": 1.0, "sigma0": 1.0}},
        estimators=("oracle",),
        n_grid=(1000, 4000),
        reps=200,
        master_seed=MASTER_SEED,
    )
    rows = {r.n: r for r in simlab.run_experiment(config).rows}
    near = all(
        abs(rows[n].normalized_mse - v_star) < 3 * rows[n].mc_stderr for n in (1000, 4000)
    )
    flat_slack = 3 * float(np.hypot(rows[1000].mc_stderr, rows[4000].mc_stderr))
    flat = abs(rows[1000].normalized_mse - rows[4000].normalized_mse) < flat_slack
    _criterion(
        3,
        f"oracle normalized MSE ({rows[1000].normalized_mse:.3f}, "
        f"{rows[4000].normalized_mse:.3f}) tracks the efficiency floor "
        f"{v_star:.3f} and stays flat across n",
        near and flat,
    )


def test_criterion_04_elbow_effect(hard_table):
    ok = True
    details = []
    oracle_large = hard_table[("oracle", 8000)].normalized_mse
    for est in ("two-stage-weighted-krr", "two-stage-unweighted-krr"):
        small = hard_table[(est, 500)].normalized_mse
        large = hard_table[(est, 8000)].normalized_mse
        ok &= small >= 1.25 * large
        ok &= large <= 2.0 * oracle_large
        details.append(f"{est}: {small:.3f} -> {large:.3f} (oracle {oracle_large:.3f})")
    _criterion(4, "elbow: " + "; ".join(details), ok)


def test_criterion_05_reweighting_advantage(hard_table):
    ok = True
    details = []
    for n in (500, 1000, 2000, 4000, 8000):
        w = hard_table[("two-stage-weighted-krr", n)]
        u = hard_table[("two-stage-unweighted-krr", n)]
        slack = 2 * float(np.hypot(w.mc_stderr, u.mc_stderr))
        ok &= w.normalized_mse <= u.normalized_mse + slack
        details.append(f"n={n}: {w.normalized_mse:.3f} vs {u.normalized_mse:.3f}")
    _criterion(5, "weighted <= unweighted within noise at every n; " + "; ".join(details), ok)


def test_criterion_06_ipw_inefficiency(hard_table):
    ipw = hard_table[("ipw", 2000)].normalized_mse
    oracle = hard_table[("oracle", 2000)].normalized_mse
    _criterion(
        6,
        f"IPW normalized MSE {ipw:.3f} at least 5x the oracle's {oracle:.3f} "
        f"(ratio {ipw / oracle:.2f})",
        ipw >= 5.0 * oracle,
    )


def test_criterion_07_risk_bound_frozen_first_stage():
    d1 = make_d1(1.0)
    frozen = const_fn(0.0)
    spec = ol.FirstStageSpec(regressor_id="frozen", frozen_fn=frozen)
    v_star = ol.efficient_variance(d1)
    norm_sq = ol.weighted_norm(
        d1, lambda x, a: d1.outcome_mean(x, a) - frozen(x, a)
    ) ** 2
    bound = v_star + 2.0 * norm_sq

    n, reps = 50, 10**4
    sq = np.empty(reps)
    for r in range(reps):
        data = ol.sample_dataset(d1, n, seed=ol.mix_seed(MASTER_SEED, "crit7", r))
        sq[r] = (ol.two_stage_estimate(data, d1, spec, seed=0).tau_hat - 2.0) ** 2
    nmse = n * sq.mean()
    se = n * sq.std(ddof=1) / np.sqrt(reps)
    _criterion(
        7,
        f"frozen-first-stage normalized MSE {nmse:.3f} (se {se:.3f}) within the "
        f"risk bound {bound:.3f}",
        nmse <= bound + 3 * se,
    )


def test_criterion_08_critical_radius():
    d1 = make_d1(1.0)

    def features(x, a):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        x, a = np.broadcast_arrays(x, a)
        return np.stack([np.ones_like(x), x, a, x * a], axis=-1)

    sigma, _ = moment_matrices(d1, features)
    spec = LocalizedClassSpec(
        class_id="linear-ellipsoid", radius=1.0, feature_map=features, sigma_matrix=sigma
    )
    at_4097 = critical_radius(
        d1, spec, m=4097, kind="r", source="closed-form-linear", alpha1=1.0, alpha2=1.0
    )
    at_4095 = critical_radius(
        d1, spec, m=4095, kind="r", source="closed-form-linear", alpha1=1.0, alpha2=1.0
    )
    radii = [0.5, 1.0, 2.0, 4.0]
    ests = [
        rademacher_R_mc(d1, spec.with_radius(r), m=50, reps=3000, seed=MASTER_SEED)
        for r in radii
    ]
    ratios = [e.value / r for e, r in zip(ests, radii)]
    ses = [e.stderr / r for e, r in zip(ests, radii)]
    monotone = all(
        ratios[i + 1] <= ratios[i] + 3 * (ses[i] + ses[i + 1]) + 1e-12
        for i in range(len(radii) - 1)
    )
    _criterion(
        8,
        f"closed-form radius 0 past the d=4 threshold (m=4097 -> {at_4097}, "
        f"m=4095 -> {at_4095}); MC ratio profile non-increasing",
        at_4097 == 0.0 and at_4095 == np.inf and monotone,
    )


def test_criterion_09_shattering_certificates():
    ok = True
    for p in (2, 4, 8):
        cert = hadamard_glm_shatter(p, IDENTITY_LINK, amplitude=1.0, radius=1.0)
        ok &= cert.verify()
    for p, s in ((4, 2), (8, 2)):
        cert = sparse_packing_shatter(p, s)
        ok &= cert.verify()
    _criterion(
        9,
        "single-index and sparse certificates hit every sign pattern exactly",
        ok,
    )


def test_criterion_10_lower_bound_inequalities():
    d1 = make_d1(0.0)
    n = 64
    tilt = tilted_instance(d1, n)
    tilt_ok = (
        tilt.divergences["chi2"] <= 1.0 / (8.0 * n)
        and tilt.gap >= tilt.details["h_l2"] / (16.0 * np.sqrt(n))
    )

    pair = sigma_perturbed_pair(make_d1(1.0), 100)
    pair_ok = pair.checks["gap_identity"] and pair.checks["kl_budget_quarter"]

    rng = np.random.default_rng(MASTER_SEED)
    trunc_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        vals = rng.normal(size=k) * (rng.random() * 3 + 0.1)
        probs = rng.random(k) + 0.05
        probs /= probs.sum()
        second = float(probs @ vals**2)
        ratio = np.sqrt(float(probs @ vals**4)) / second
        cut = 2.0 * ratio * np.sqrt(second)
        kept = float(probs @ (vals**2 * (np.abs(vals) <= cut)))
        trunc_ok &= kept >= 0.5 * second - 1e-12

    tv_ok = True
    checked = 0
    while checked < 1000:
        k = int(rng.integers(3, 8))
        p = rng.random(k) + 0.05
        p /= p.sum()
        q = rng.random(k) + 0.05
        q /= q.sum()
        event = rng.random(k) < 0.7
        if not np.any(event):
            continue
        eps = 1.0 - min(p[event].sum(), q[event].sum())
        if eps > 0.25:
            continue
        tv = 0.5 * np.abs(p - q).sum()
        pc = np.where(event, p, 0.0)
        qc = np.where(event, q, 0.0)
        tv_cond = 0.5 * np.abs(pc / pc.sum() - qc / qc.sum()).sum()
        tv_ok &= tv - 4.0 * eps <= tv_cond + 1e-12
        tv_ok &= tv_cond <= tv / (1.0 - eps) + 2.0 * eps + 1e-12
        checked += 1

    _criterion(
        10,
        "tilt budget and gap floor at n=64; mean-shift pair identities; "
        "truncation and conditional-TV inequalities on 1000 random cases each",
        tilt_ok and pair_ok and trunc_ok and tv_ok,
    )


def test_criterion_11_regression_oracles():
    rng = np.random.default_rng(MASTER_SEED)
    corpus = [
        (np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]), np.ones(3)),
        (np.array([0.0, 1.0]), np.array([0.0, 10.0]), np.array([1e3, 1.0])),
        (np.array([0.0]), np.array([0.7]), np.array([2.0])),
    ]
    for _ in range(12):
        size = int(rng.integers(2, 7))
        corpus.append(
            (
                np.sort(rng.random(size)) + np.arange(size) * 1e-3,
                np.round(rng.normal(size=size), 3),
                np.round(rng.random(size) + 0.5, 3),
            )
        )
    pava_ok = True
    for t, y, w in corpus:
        model = fit_weighted_isotonic(t, y, w)
        dp = brute_isotonic_grid(t.tolist(), y.tolist(), w.tolist(), step=1e-3)
        pava_ok &= bool(np.max(np.abs(model.levels - np.asarray(dp))) < 2e-3)

    model = fit_l1_constrained(np.eye(2), np.array([3.0, 1.0]), np.ones(2), radius=2.0)
    grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
    best_obj, best = np.inf, None
    for v1 in grid:
        rem = 2.0 - abs(v1)
        v2 = np.clip(1.0, -rem, rem)  # partial minimization in the second coordinate
        obj = (3.0 - v1) ** 2 + (1.0 - v2) ** 2
        if obj < best_obj:
            best_obj, best = obj, (v1, float(v2))
    l1_ok = abs(model.theta[0] - best[0]) < 1e-3 and abs(model.theta[1] - best[1]) < 1e-3

    krr = fit_weighted_krr(np.array([0.5]), np.array([1.0]), np.array([1.0]), 1.0)
    krr_ok = abs(krr.predict(0.5) - 1.0 / 3.0) < 1e-15

    _criterion(
        11,
        "pool-adjacent-violators matches the grid dynamic program on the "
        "corpus; l1 fit matches grid brute force; single-point kernel fit is 1/3",
        pava_ok and l1_ok and krr_ok,
    )


def test_criterion_12_determinism_across_threads(tmp_path):
    config = {
        "instance": HARD_INSTANCE,
        "estimators": ["oracle", "two-stage-weighted-krr"],
        "n_grid": [100, 200],
        "reps": 5,
        "folds": 3,
        "lambda_grid": [1.0, 10.0],
        "master_seed": MASTER_SEED,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for threads in (1, 4):
        out = tmp_path / f"out-{threads}.csv"
        code = cli.main([
            "simulate", "--config", str(cfg_path), "--threads", str(threads),
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    _criterion(
        12,
        "simulate produces byte-identical CSV under thread budgets 1 and 4",
        outputs[0] == outputs[1],
    )
