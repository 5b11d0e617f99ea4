import numpy as np
import pytest

import ope_lab as ol
from ope_lab.lowerbounds import (
    CSV_HEADER,
    FiniteDistribution,
    SupportError,
    delta_mixture,
    divergence,
    sigma_perturbed_pair,
    tilted_instance,
)

from conftest import instance_from_random_tables, make_d1, random_finite_tables


def random_distribution(rng, atoms, floor=0.0):
    p = rng.random(len(atoms)) + floor
    p /= p.sum()
    return FiniteDistribution(tuple(atoms), p)


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def test_divergence_zero_at_equality():
    p = FiniteDistribution(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
    for kind in ("KL", "CHI2", "TV"):
        assert divergence(kind, p, p) == 0.0


def test_divergence_two_atom_values():
    p = FiniteDistribution((0, 1), np.array([0.4, 0.6]))
    q = FiniteDistribution((0, 1), np.array([0.5, 0.5]))
    assert abs(divergence("CHI2", p, q) - 0.04) < 1e-15
    assert abs(divergence("TV", p, q) - 0.1) < 1e-15


def test_divergence_support_violation():
    p = FiniteDistribution((0, 1), np.array([0.5, 0.5]))
    q = FiniteDistribution((0, 1), np.array([1.0, 0.0]))
    with pytest.raises(SupportError) as err:
        divergence("KL", p, q)
    assert err.value.atom == 1
    assert divergence("TV", p, q) == 0.5
    mismatched = FiniteDistribution((0, 2), np.array([0.5, 0.5]))
    with pytest.raises(SupportError):
        divergence("KL", p, mismatched)
    # atoms taken from a numpy array are named as plain numbers
    p = FiniteDistribution(tuple(np.array([0.0, 1.0])), [0.5, 0.5])
    q = FiniteDistribution(tuple(np.array([0.0, 1.0])), [1.0, 0.0])
    with pytest.raises(SupportError, match=r"q vanishes at atom 1\.0 with p > 0$"):
        divergence("KL", p, q)


def test_pinsker_on_random_pairs():
    rng = np.random.default_rng(31)
    atoms = list(range(5))
    for _ in range(1000):
        p = random_distribution(rng, atoms, floor=0.01)
        q = random_distribution(rng, atoms, floor=0.01)
        tv = divergence("TV", p, q)
        kl = divergence("KL", p, q)
        assert tv <= np.sqrt(kl / 2.0) + 1e-12


def test_kl_tensorization():
    rng = np.random.default_rng(32)
    atoms = list(range(3))
    for _ in range(20):
        p = random_distribution(rng, atoms, floor=0.05)
        q = random_distribution(rng, atoms, floor=0.05)
        kl1 = divergence("KL", p, q)
        for k in (2, 3):
            klk = divergence("KL", p.power(k), q.power(k))
            assert abs(klk - k * kl1) < 1e-10


# ---------------------------------------------------------------------------
# tilted state distribution
# ---------------------------------------------------------------------------


def test_tilted_degenerate_branch():
    inst = ol.ProblemInstance.from_tables(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[-1.0, 1.0], [-1.0, 1.0]],
        outcome_mean_table=[[2.0, 2.0], [2.0, 2.0]],  # constant action contrast
        outcome_sd_table=[[0.0, 0.0], [0.0, 0.0]],
    )
    report = tilted_instance(inst, n=64)
    assert report.degenerate
    assert report.gap == 0.0
    assert np.array_equal(report.details["tilted"].probs, np.array([0.5, 0.5]))


def test_tilted_d1_certificates():
    inst = make_d1(0.0)
    n = 64
    report = tilted_instance(inst, n)
    assert not report.degenerate
    assert report.checks["chi2_within_budget"]
    assert report.divergences["chi2"] <= 1.0 / 512.0
    # h = (-1, 1), no truncation, moment ratio 1: n = 64 >= 4 qualifies
    assert report.checks["sample_size_qualifies"]
    assert report.checks["gap_above_floor"]
    assert report.gap >= report.details["h_l2"] / (16.0 * np.sqrt(n))
    assert abs(float(report.details["tilted"].probs.sum()) - 1.0) <= 1e-12


def test_tilted_random_instances_normalized_and_sandwiched():
    rng = np.random.default_rng(33)
    for _ in range(10):
        tables = random_finite_tables(rng, 5, 3)
        inst = instance_from_random_tables(tables)
        n = int(rng.integers(4, 200))
        report = tilted_instance(inst, n)
        if report.degenerate:
            continue
        probs = report.details["tilted"].probs
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        assert report.checks["chi2_within_budget"]
        # atomwise tilt ratio: exp(s h_tr) / Z, so the doubled-exponent
        # envelope exp(+/- 2 s sup|h_tr|) always contains it (the
        # single-exponent envelope fails by O(s^2) whenever Z != 1)
        s = report.tweak
        sup = report.details["h_truncated_sup"]
        ratio = report.details["ratio_to_base"]
        assert np.all(ratio <= np.exp(2 * s * sup) + 1e-12)
        assert np.all(ratio >= np.exp(-2 * s * sup) - 1e-12)
        # the normalizer itself obeys the single-exponent sandwich
        z = report.details["normalizer"]
        assert np.exp(-s * sup) - 1e-12 <= z <= np.exp(s * sup) + 1e-12


# ---------------------------------------------------------------------------
# outcome-mean perturbation pair
# ---------------------------------------------------------------------------


def test_sigma_pair_identities():
    inst = make_d1(1.0)
    n = 100
    report = sigma_perturbed_pair(inst, n)
    sigma_norm = report.details["sigma_norm"]
    assert abs(report.gap - sigma_norm / (2.0 * np.sqrt(n))) <= 1e-10
    assert abs(report.divergences["kl_n_bound"] - 0.25) <= 1e-10
    assert report.checks["gap_identity"]
    assert report.checks["kl_budget_quarter"]
    # the reported per-pair formula upper bounds the exact Gaussian value
    assert report.divergences["kl_n_exact"] <= report.divergences["kl_n_bound"] + 1e-12


def test_sigma_pair_scale_invariance():
    base = make_d1(1.0)
    doubled = make_d1(2.0)
    r1 = sigma_perturbed_pair(base, 100)
    r2 = sigma_perturbed_pair(doubled, 100)
    assert abs(r2.tweak - r1.tweak / 2.0) < 1e-15
    assert abs(r2.divergences["kl_n_bound"] - 0.25) <= 1e-10


def test_sigma_pair_requires_noise():
    with pytest.raises(ValueError):
        sigma_perturbed_pair(make_d1(0.0), 100)


def test_sigma_pair_neighborhood_flag():
    inst = make_d1(1.0)
    generous = lambda x, a: np.full(np.broadcast(x, a).shape, 100.0)
    tiny = lambda x, a: np.full(np.broadcast(x, a).shape, 1e-6)
    assert sigma_perturbed_pair(inst, 64, delta=generous).checks[
        "neighborhood_large_enough"
    ]
    assert not sigma_perturbed_pair(inst, 64, delta=tiny).checks[
        "neighborhood_large_enough"
    ]


def test_non_finite_delta_names_its_cell():
    inst = make_d1(1.0)
    for bad in (np.nan, np.inf):
        delta = lambda x, a: np.where((x == 1.0) & (a == 0.0), bad, 1.0)
        message = rf"^delta is not finite at \(state 1\.0, action 0\.0\): {bad}$"
        with pytest.raises(ValueError, match=message):
            sigma_perturbed_pair(inst, 64, delta=delta)
        with pytest.raises(ValueError, match=message):
            delta_mixture(inst, delta, s=0.01, reps=2)


# ---------------------------------------------------------------------------
# mixture-vs-mixture
# ---------------------------------------------------------------------------


def test_delta_mixture_constant_delta_matches_enumeration():
    inst = make_d1(0.0)
    const = lambda x, a: np.full(np.broadcast(x, a).shape, 1.0)
    # compute the cap from the instance's own moment ratio, then use it
    probe = delta_mixture(inst, const, s=1e-3, reps=2)
    cap = 1.0 / (2.0 * probe.details["moment_ratio"])
    report = delta_mixture(inst, const, s=cap, reps=3000, seed=41)
    mc_gap = report.divergences["mc_gap"]
    assert abs(mc_gap - report.gap) < 3 * report.divergences["mc_se"]
    assert report.checks["gap_above_floor"]
    assert report.checks["rho_second_moment_ok"]
    assert report.gap >= cap * report.details["delta_norm"] / 2.0 - 1e-12


def test_delta_mixture_forced_positive_pattern():
    inst = make_d1(0.0)
    const = lambda x, a: np.full(np.broadcast(x, a).shape, 1.0)
    report = delta_mixture(inst, const, s=0.1, reps=2, seed=1)
    tau_star = report.details["tau_star"]
    tau_all_plus = tau_star + float(report.details["atom_coeff"].sum())
    # sum over atoms of xi * lambda * g * delta with delta = 1:
    # E[<g(X, .), 1>] = 0 for the contrast weight on two actions
    assert abs(tau_all_plus - tau_star) < 1e-12


def test_delta_mixture_rejects_bad_inputs():
    inst = make_d1(0.0)
    zero = lambda x, a: np.zeros(np.broadcast(x, a).shape)
    with pytest.raises(ValueError):
        delta_mixture(inst, zero, s=0.1)
    const = lambda x, a: np.full(np.broadcast(x, a).shape, 1.0)
    with pytest.raises(ValueError):
        delta_mixture(inst, const, s=50.0)  # above the moment-ratio cap
    with pytest.raises(ValueError):
        delta_mixture(inst, const, s=-0.1)


def test_report_serialization():
    inst = make_d1(1.0)
    report = sigma_perturbed_pair(inst, 25)
    text = report.to_text()
    assert '"kind": "sigma-pair"' in text
    row = report.csv_row()
    assert row.startswith("sigma-pair,")
    assert CSV_HEADER.count(",") == row.count(",")


# ---------------------------------------------------------------------------
# supporting inequalities on random cases
# ---------------------------------------------------------------------------


def test_truncated_second_moment_lower_bound():
    rng = np.random.default_rng(34)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        vals = rng.normal(size=k) * rng.random() * 3
        probs = rng.random(k) + 0.05
        probs /= probs.sum()
        second = float(probs @ vals**2)
        if second == 0.0:
            continue
        fourth = float(probs @ vals**4)
        ratio = np.sqrt(fourth) / second
        cut = 2.0 * ratio * np.sqrt(second)
        kept = float(probs @ (vals**2 * (np.abs(vals) <= cut)))
        assert kept >= 0.5 * second - 1e-12


def test_conditional_tv_sandwich():
    rng = np.random.default_rng(35)
    checked = 0
    while checked < 1000:
        k = int(rng.integers(3, 8))
        atoms = tuple(range(k))
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
        assert tv - 4.0 * eps <= tv_cond + 1e-12
        assert tv_cond <= tv / (1.0 - eps) + 2.0 * eps + 1e-12
        checked += 1
