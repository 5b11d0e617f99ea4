import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ope_lab.estimators import FirstStageSpec, _fit_first_stage
from ope_lab.regression import (
    RegressionError,
    _spline_values,
    cross_validate_lambda,
    fit_l1_constrained,
    fit_weighted_isotonic,
    fit_weighted_krr,
    fit_weighted_linear,
    project_l1_ball,
    resolve_feature_map,
)
from ope_lab.rng import make_generator, mix_seed

from oracles import brute_isotonic_grid, dense_krr_values, krr_alpha, krr_objective


# ---------------------------------------------------------------------------
# kernel ridge
# ---------------------------------------------------------------------------


def test_krr_single_point_closed_form():
    model = fit_weighted_krr(np.array([0.5]), np.array([1.0]), np.array([1.0]), 1.0)
    assert abs(model.predict(0.5) - 1.0 / 3.0) < 1e-12


def test_krr_interpolates_at_tiny_ridge():
    x = np.array([0.15, 0.4, 0.55, 0.8, 0.95])
    y = np.array([1.0, -0.5, 2.0, 0.3, -1.2])
    model = fit_weighted_krr(x, y, np.ones(5), 1e-10)
    assert np.max(np.abs(model.predict(x) - y)) < 1e-6


def test_krr_heavy_weight_dominates():
    model = fit_weighted_krr(
        np.array([0.5, 0.5]), np.array([0.0, 10.0]), np.array([1.0, 1e6]), 1.0
    )
    assert abs(model.predict(0.5) - 10.0) < 1e-3


def test_unweighted_equals_unit_weights():
    # the unweighted first stage fits at 0/1 weights: every positive
    # regression weight counts as 1
    rng = np.random.default_rng(1)
    x = rng.random(40)
    y = rng.normal(size=40)
    spec = FirstStageSpec(regressor_id="unweighted-krr", lambda_grid=(0.7,))
    a = _fit_first_stage(spec, x, np.ones(40), y, rng.uniform(0.5, 3.0, 40), seed=0)
    b = fit_weighted_krr(x, y, np.ones(40), 0.7)
    q = rng.random(100)
    assert np.max(np.abs(a(q, np.ones(100)) - b.predict(q))) < 1e-12


def test_krr_vanishes_at_origin():
    rng = np.random.default_rng(2)
    x = rng.random(30)
    model = fit_weighted_krr(x, rng.normal(size=30) + 5, np.ones(30), 0.5)
    assert model.predict(0.0) == 0.0


def test_krr_constant_data_shrinks_to_constant():
    rng = np.random.default_rng(3)
    x = np.sort(rng.random(400)) * 0.9 + 0.05
    y = np.full(400, 2.0)
    model = fit_weighted_krr(x, y, np.ones(400), 1e-4)
    grid = np.linspace(0.1, 0.9, 50)
    assert np.max(np.abs(model.predict(grid) - 2.0)) < 1e-3


def test_krr_solvers_agree():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.random(60), [0.0, 0.25, 0.25, 0.25]])
    y = rng.normal(size=64)
    w = np.concatenate([rng.random(60) * 3, [1.0, 0.2, 2.0, 0.0]])
    q = rng.random(200)
    for lam in (1e-6, 1e-2, 1.0, 1e3):
        auto = fit_weighted_krr(x, y, w, lam)
        dense = np.interp(q, auto.knots, dense_krr_values(x, y, w, lam, auto.knots))
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(auto.predict(q) - dense)) < 1e-8 * scale


def test_krr_input_validation():
    x, y, w = np.array([0.5]), np.array([1.0]), np.array([1.0])
    with pytest.raises(ValueError):
        fit_weighted_krr(x, y, np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        fit_weighted_krr(x, y, np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        fit_weighted_krr(x, y, w, 0.0)
    with pytest.raises(ValueError):
        fit_weighted_krr(np.array([1.5]), y, w, 1.0)
    with pytest.raises(ValueError):
        fit_weighted_krr(np.array([np.nan]), y, w, 1.0)


def test_krr_near_ties_pool_into_knots_and_agree_with_the_dense_solve():
    # 0.3 + 1e-15 pools into the knot at 0.3 and 5e-14 into the origin
    x = np.array([0.1, 0.3, 0.3 + 1e-15, 0.7, 5e-14])
    y = np.array([1.0, -0.5, 2.0, 0.3, 4.0])
    w = np.array([1.0, 0.7, 1.3, 2.0, 0.9])
    q = np.linspace(0.0, 1.0, 101)

    for lam in (1e-3, 1.0, 1e3):
        auto = fit_weighted_krr(x, y, w, lam)
        assert np.array_equal(auto.knots, [0.0, 0.1, 0.3, 0.7])
        dense = np.interp(q, auto.knots, dense_krr_values(x, y, w, lam, auto.knots))
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(auto.predict(q) - dense)) < 1e-8 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_a_ridge_level_that_is_not_positive_and_finite_is_rejected_where_it_enters(bad):
    x = np.array([0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match=rf"^grid\[1\] is {bad}, not a positive finite"):
        cross_validate_lambda(x, x, np.ones(3), grid=[1.0, bad, 2.0], folds=2)
    with pytest.raises(ValueError, match=rf"^lambda_grid\[1\] is {bad}, not a positive finite"):
        FirstStageSpec(regressor_id="weighted-krr", lambda_grid=(1.0, bad))
    with pytest.raises(ValueError, match=rf"^lambda_reg is {bad}, not a positive finite"):
        fit_weighted_krr(x, x, np.ones(3), bad)


def test_krr_non_finite_solve_raises():
    x, y, w = np.array([0.2, 0.6]), np.array([1e300, 1e300]), np.array([1e10, 1e10])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(RegressionError, match="lambda 1 with 2 knots"):
            fit_weighted_krr(x, y, w, 1.0)


def _tied_data(seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.round(rng.random(40), 2), [0.0, 0.0, 0.5, 0.5]])
    y = rng.normal(size=44)
    w = np.concatenate([rng.random(40) + 0.1, [1.5, 0.0, 0.2, 2.0]])
    w[:6] = 0.0
    return x, y, w


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_krr_predicts_the_banded_values_at_its_knots(seed):
    x, y, w = _tied_data(seed)
    lam = 0.3
    model = fit_weighted_krr(x, y, w, lam)
    keep = (w > 0) & (x > 0)
    knots, inverse = np.unique(x[keep], return_inverse=True)
    inv = 1.0 / np.diff(np.concatenate([[0.0], knots]))
    off = -lam * inv[1:]
    ab = np.zeros((3, knots.size))
    ab[0, 1:], ab[2, :-1] = off, off
    ab[1] = lam * (inv + np.concatenate([inv[1:], [0.0]])) + np.bincount(inverse, weights=w[keep])
    beta = scipy.linalg.solve_banded((1, 1), ab, np.bincount(inverse, weights=(w * y)[keep]))
    assert np.array_equal(model.knots, np.concatenate([[0.0], knots]))
    assert np.array_equal(model.predict(model.knots[1:]), beta)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_krr_derived_alpha_solves_the_representer_system(seed):
    x, y, w = _tied_data(seed)
    gram = np.minimum.outer(x, x)
    for lam in (1e-3, 1.0, 1e3):
        alpha = krr_alpha(fit_weighted_krr(x, y, w, lam), x, y, w)
        resid = (w[:, None] * gram + lam * np.eye(x.size)) @ alpha - w * y
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(w * y)


STUDY_LEVELS = np.logspace(-1.0, 6.0, 15)


@pytest.mark.parametrize("case", ["tied", "random", "one-state", "origin"])
def test_the_stacked_solve_has_the_bits_of_one_fit_per_level(case):
    rng = np.random.default_rng(8)
    if case == "tied":
        x, y, w = _tied_data(0)
    elif case == "random":
        x, y, w = rng.random(500), rng.normal(size=500), rng.uniform(0.0, 3.0, 500)
    elif case == "one-state":  # m = 1: two rows tie at 0.4, the third has no weight
        x, y, w = np.array([0.4, 0.4, 0.7]), np.array([2.0, -1.0, 3.0]), np.array([0.5, 2.0, 0.0])
    else:  # m = 0: every weighted state pools into the origin
        x, y, w = np.array([0.0, 0.0, 0.6]), np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 0.0])
    knots, values = _spline_values(x, y, w, STUDY_LEVELS)
    assert values.shape == (STUDY_LEVELS.size, knots.size)
    for lam, row in zip(STUDY_LEVELS, values):
        fit = fit_weighted_krr(x, y, w, lam)
        assert np.array_equal(fit.knots, knots)
        assert np.array_equal(fit.values, row)
    if case == "one-state":
        # a 1 x 1 block is the division W y / (lam / x + W)
        assert np.array_equal(values[:, 1], -1.0 / (STUDY_LEVELS * (1.0 / 0.4 + 0.0) + 2.5))
    if case == "origin":
        assert np.array_equal(knots, [0.0]) and not values.any()


# ---------------------------------------------------------------------------
# weighted linear
# ---------------------------------------------------------------------------


def test_linear_exact_recovery():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(30, 4))
    theta = np.array([1.0, -2.0, 0.5, 3.0])
    model = fit_weighted_linear(phi, phi @ theta, np.ones(30), ridge=0.0)
    assert np.max(np.abs(model.theta - theta)) < 1e-8


def test_linear_weighted_mean():
    phi = np.array([[1.0], [1.0]])
    model = fit_weighted_linear(phi, np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    assert abs(model.theta[0] - 1.5) < 1e-12


def test_linear_huge_ridge_shrinks_to_zero():
    rng = np.random.default_rng(6)
    phi = rng.normal(size=(20, 3))
    model = fit_weighted_linear(phi, rng.normal(size=20), np.ones(20), ridge=1e12)
    assert np.max(np.abs(model.theta)) < 1e-9


def test_linear_rank_deficiency_error():
    phi = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(RegressionError):
        fit_weighted_linear(phi, np.array([1.0, 2.0]), np.ones(2), ridge=0.0)


def test_linear_norm_cap_rescales():
    phi = np.eye(2)
    model = fit_weighted_linear(phi, np.array([3.0, 4.0]), np.ones(2), max_norm=1.0)
    assert abs(np.linalg.norm(model.theta) - 1.0) < 1e-12
    assert np.allclose(model.theta, np.array([0.6, 0.8]))


# ---------------------------------------------------------------------------
# l1-constrained
# ---------------------------------------------------------------------------


def test_l1_projection_cases():
    v = np.array([3.0, 1.0])
    assert np.allclose(project_l1_ball(v, 2.0), [2.0, 0.0])
    assert np.allclose(project_l1_ball(v, 10.0), v)
    assert np.allclose(project_l1_ball(v, 0.0), [0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    radius=st.floats(0.01, 8.0),
)
def test_l1_projection_optimality(vals, radius):
    v = np.array(vals)
    p = project_l1_ball(v, radius)
    assert np.abs(p).sum() <= radius + 1e-9
    rng = np.random.default_rng(0)
    base = np.linalg.norm(p - v)
    for _ in range(20):
        q = project_l1_ball(p + rng.normal(scale=0.1, size=v.size), radius)
        assert np.linalg.norm(q - v) >= base - 1e-9


def test_l1_unconstrained_interior_matches_linear():
    rng = np.random.default_rng(8)
    phi = rng.normal(size=(50, 3))
    theta = np.array([0.3, -0.2, 0.1])
    y = phi @ theta + rng.normal(scale=0.01, size=50)
    w = rng.random(50) + 0.5
    free = fit_weighted_linear(phi, y, w, ridge=0.0)
    capped = fit_l1_constrained(phi, y, w, radius=5.0)
    assert np.max(np.abs(free.theta - capped.theta)) < 1e-6


def test_l1_two_feature_example_matches_grid_search():
    phi = np.eye(2)
    y = np.array([3.0, 1.0])
    model = fit_l1_constrained(phi, y, np.ones(2), radius=2.0)
    assert np.max(np.abs(model.theta - np.array([2.0, 0.0]))) < 1e-6
    # brute force over the l1 ball on a 1e-3 grid
    t1 = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
    best, best_obj = None, np.inf
    for v1 in t1:
        rem = 2.0 - abs(v1)
        for v2 in (-rem, 0.0, min(rem, 1.0), rem):
            obj = (3.0 - v1) ** 2 + (1.0 - v2) ** 2
            if obj < best_obj:
                best_obj, best = obj, (v1, v2)
    assert abs(model.theta[0] - best[0]) < 1e-3
    assert abs(model.theta[1] - best[1]) < 1e-3


def test_l1_zero_radius():
    model = fit_l1_constrained(np.eye(3), np.ones(3), np.ones(3), radius=0.0)
    assert np.all(model.theta == 0.0)


def test_l1_without_weight_is_zero():
    # the weighted Gram matrix is 0: power iteration stops at a zero norm
    model = fit_l1_constrained(np.eye(3), np.ones(3), np.zeros(3), radius=1.0)
    assert np.array_equal(model.theta, np.zeros(3))


def test_l1_kkt_residual_small():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    w = rng.random(40) + 0.2
    model = fit_l1_constrained(phi, y, w, radius=0.7)
    assert model.converged
    assert model.kkt_residual < 1e-6


# ---------------------------------------------------------------------------
# isotonic
# ---------------------------------------------------------------------------


def test_pava_pools_violation():
    model = fit_weighted_isotonic(
        np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]), np.ones(3)
    )
    assert np.allclose(model.levels, [2.0, 2.0, 2.0])


def test_pava_keeps_monotone_input():
    y = np.array([-1.0, 0.0, 0.5, 2.0])
    model = fit_weighted_isotonic(np.arange(4.0), y, np.ones(4))
    assert np.allclose(model.levels, y)


def test_pava_heavy_weight_no_pooling():
    model = fit_weighted_isotonic(
        np.array([0.0, 1.0]), np.array([0.0, 10.0]), np.array([1e6, 1.0])
    )
    assert np.allclose(model.levels, [0.0, 10.0])


def test_pava_tie_pre_pooling():
    model = fit_weighted_isotonic(
        np.array([0.0, 0.0, 1.0]), np.array([0.0, 2.0, 5.0]), np.array([1.0, 3.0, 1.0])
    )
    assert np.allclose(model.levels, [1.5, 5.0])


def test_pava_step_function_is_right_continuous():
    model = fit_weighted_isotonic(
        np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.ones(2)
    )
    assert model.predict(np.array([0.0]))[0] == 0.0
    assert model.predict(np.array([0.999]))[0] == 0.0
    assert model.predict(np.array([1.0]))[0] == 1.0
    assert model.predict(np.array([-5.0]))[0] == 0.0
    assert model.predict(np.array([5.0]))[0] == 1.0


def test_pava_matches_grid_dp():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        t = np.sort(rng.random(n)) + np.arange(n) * 1e-3  # distinct
        y = np.round(rng.normal(size=n), 3)
        w = np.round(rng.random(n) + 0.5, 3)
        model = fit_weighted_isotonic(t, y, w)
        dp = brute_isotonic_grid(t.tolist(), y.tolist(), w.tolist(), step=1e-3)
        assert np.max(np.abs(model.levels - np.asarray(dp))) < 2e-3


# ---------------------------------------------------------------------------
# weight semantics and convexity probes
# ---------------------------------------------------------------------------


def test_duplicating_point_equals_doubling_weight():
    rng = np.random.default_rng(12)
    x = rng.random(20)
    y = rng.normal(size=20)
    w = rng.random(20) + 0.2
    dup_x = np.concatenate([x, x[:1]])
    dup_y = np.concatenate([y, y[:1]])
    dup_w = np.concatenate([w, w[:1]])
    doubled = w.copy()
    doubled[0] *= 2
    q = rng.random(50)

    k1 = fit_weighted_krr(dup_x, dup_y, dup_w, 0.3)
    k2 = fit_weighted_krr(x, y, doubled, 0.3)
    assert np.max(np.abs(k1.predict(q) - k2.predict(q))) < 1e-8

    phi = np.stack([np.ones(20), x], axis=1)
    phi_dup = np.vstack([phi, phi[:1]])
    l1 = fit_weighted_linear(phi_dup, dup_y, dup_w)
    l2 = fit_weighted_linear(phi, y, doubled)
    assert np.max(np.abs(l1.theta - l2.theta)) < 1e-8

    s1 = fit_l1_constrained(phi_dup, dup_y, dup_w, radius=1.0)
    s2 = fit_l1_constrained(phi, y, doubled, radius=1.0)
    assert np.max(np.abs(s1.theta - s2.theta)) < 1e-6

    i1 = fit_weighted_isotonic(dup_x, dup_y, dup_w)
    i2 = fit_weighted_isotonic(x, y, doubled)
    assert np.max(np.abs(i1.predict(q) - i2.predict(q))) < 1e-8


def test_fits_beat_random_perturbations():
    rng = np.random.default_rng(13)
    x = rng.random(25)
    y = rng.normal(size=25)
    w = rng.random(25) + 0.1

    lam = 0.4
    krr = fit_weighted_krr(x, y, w, lam)
    base = krr_objective(krr, x, y, w)
    gram = np.minimum.outer(x, x)
    for _ in range(100):
        alpha = krr_alpha(krr, x, y, w) + rng.normal(scale=0.05, size=25)
        resid = y - gram @ alpha
        perturbed = float(np.sum(w * resid**2) + lam * alpha @ gram @ alpha)
        assert perturbed >= base - 1e-9

    phi = np.stack([np.ones(25), x, x**2], axis=1)
    lin = fit_weighted_linear(phi, y, w)
    base_lin = float(np.sum(w * (y - phi @ lin.theta) ** 2))
    for _ in range(100):
        theta = lin.theta + rng.normal(scale=0.05, size=3)
        assert float(np.sum(w * (y - phi @ theta) ** 2)) >= base_lin - 1e-9

    iso = fit_weighted_isotonic(x, y, w)
    xs = np.sort(x)
    base_iso = float(np.sum(w * (y - iso.predict(x)) ** 2))
    for _ in range(100):
        bump = np.cumsum(np.abs(rng.normal(scale=0.02, size=xs.size)))
        levels = iso.predict(xs) + bump - bump.mean()
        levels = np.maximum.accumulate(levels)
        fitted = levels[np.searchsorted(xs, x)]
        assert float(np.sum(w * (y - fitted) ** 2)) >= base_iso - 1e-9


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def test_cv_single_value_grid():
    x = np.array([0.1, 0.5, 0.9])
    assert cross_validate_lambda(x, x, np.ones(3), grid=[7.0], folds=2) == 7.0


def test_cv_checks_its_data_before_the_one_level_shortcut():
    y = np.array([0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match=r"x in \[0, 1\]"):
        cross_validate_lambda(np.array([0.2, 1.5, 0.4]), y, np.ones(3), grid=[7.0], folds=2)
    with pytest.raises(ValueError, match="non-negative"):
        cross_validate_lambda(y, y, np.array([1.0, -1.0, 1.0]), grid=[7.0], folds=2)
    # with no positive weight every fold is skipped and the largest level wins
    assert cross_validate_lambda(y, y, np.zeros(3), grid=[0.1, 7.0, 1.0], folds=2) == 7.0


def test_cv_noiseless_in_span_picks_least_shrinkage():
    rng = np.random.default_rng(14)
    x = rng.random(60)
    y = x.copy()  # identity has unit roughness norm, inside the space
    lam = cross_validate_lambda(x, y, np.ones(60), grid=[0.1, 1.0, 10.0, 100.0], folds=5, seed=1)
    assert lam == 0.1


def test_cv_ties_prefer_larger():
    x = np.linspace(0.1, 0.9, 10)
    y = np.zeros(10)  # every lambda fits exactly: all losses tie at zero
    lam = cross_validate_lambda(x, y, np.ones(10), grid=[0.1, 1.0, 10.0], folds=5)
    assert lam == 10.0


def test_cv_skipping_a_fold_without_training_weight_is_exact():
    # every positive weight sits in one fold, which therefore trains on zero
    # weight; the exact fit there is f = 0 at every ridge level
    rng = np.random.default_rng(21)
    n, folds, seed, grid = 30, 3, 4, [0.1, 1.0, 10.0]
    x = rng.random(n)
    y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(n)
    blocks = np.array_split(
        make_generator(mix_seed(seed, "cv-shuffle")).permutation(n), folds
    )
    w = np.zeros(n)
    w[blocks[1]] = rng.uniform(0.5, 2.0, blocks[1].size)

    def reference_loss(lam):
        loss = 0.0
        for val in blocks:
            train = np.setdiff1d(np.arange(n), val)
            if np.any(w[train] > 0):
                pred = fit_weighted_krr(x[train], y[train], w[train], lam).predict(x[val])
            else:
                pred = np.zeros(val.size)
            loss += float(np.sum(w[val] * (y[val] - pred) ** 2))
        return loss

    losses = [reference_loss(lam) for lam in grid]
    best = max(lam for lam, loss in zip(grid, losses) if loss == min(losses))
    assert cross_validate_lambda(x, y, w, grid=grid, folds=folds, seed=seed) == best


def _reference_cv(x, y, w, grid, folds, seed):
    # one full fit per (ridge level, fold), the candidate loop outermost
    blocks = np.array_split(
        make_generator(mix_seed(seed, "cv-shuffle")).permutation(x.size), folds
    )
    best_lambda, best_loss = None, np.inf
    for lam in sorted(grid):
        loss = 0.0
        for val in blocks:
            train = np.ones(x.size, dtype=bool)
            train[val] = False
            if not np.any(w[train] > 0):
                continue
            model = fit_weighted_krr(x[train], y[train], w[train], lam)
            loss += float(np.sum(w[val] * (y[val] - model.predict(x[val])) ** 2))
        if loss <= best_loss:
            best_lambda, best_loss = lam, loss
    return best_lambda


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("case", ["zero-weights", "origin", "ties", "all-tied", "zero-targets"])
def test_cv_matches_a_fit_per_candidate_and_fold(case, seed):
    rng = np.random.default_rng(seed)
    n = 60
    x = rng.random(n)
    y = np.sin(4.0 * x) + 0.3 * rng.standard_normal(n)
    w = rng.uniform(0.2, 3.0, n)
    if case == "zero-weights":
        w[rng.random(n) < 0.4] = 0.0
    elif case == "origin":
        x[:8] = 0.0
    elif case == "ties":
        x = np.round(x, 1)
    elif case == "all-tied":
        x = rng.choice([0.25, 0.5, 0.75], size=n)
    else:
        y = np.zeros(n)
    grid = [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e6]
    got = cross_validate_lambda(x, y, w, grid=grid, folds=5, seed=seed)
    assert got == _reference_cv(x, y, w, grid, folds=5, seed=seed)


def test_cv_rejects_a_non_finite_loss():
    rng = np.random.default_rng(16)
    x = rng.random(20)
    y = 1e200 * (1.0 + rng.random(20))  # finite, but squared residuals overflow
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(RegressionError, match=r"lambda 0\.1 on fold 0"):
            cross_validate_lambda(x, y, np.ones(20), grid=[0.1, 1.0], folds=4, seed=0)


def test_cv_rejects_a_non_finite_solve_naming_its_smallest_level():
    x = np.linspace(0.1, 0.9, 8)
    y, w = np.full(8, 1e300), np.full(8, 1e10)  # W y overflows at every level
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(RegressionError, match="not finite at lambda 1 with 6 knots"):
            cross_validate_lambda(x, y, w, grid=[10.0, 1.0], folds=4, seed=0)


def test_cv_requires_enough_points():
    with pytest.raises(ValueError):
        cross_validate_lambda(
            np.array([0.1, 0.2]), np.zeros(2), np.ones(2), grid=[1.0, 2.0], folds=5
        )
    with pytest.raises(ValueError):
        cross_validate_lambda(
            np.array([0.1, 0.2, 0.3]), np.zeros(3), np.ones(3), grid=[], folds=2
        )


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", ["x", "y", "w"])
def test_krr_rejects_non_finite_input_by_row(name, bad):
    data = {"x": np.array([0.1, 0.4, 0.6, 0.9]), "y": np.array([1.0, -0.5, 2.0, 0.3]),
            "w": np.ones(4)}
    data[name][2] = bad
    message = rf"^{name}\[2\] is not finite$"
    with pytest.raises(ValueError, match=message):
        fit_weighted_krr(data["x"], data["y"], data["w"], 1.0)
    # cross-validation names the caller's row, not the row within a fold
    with pytest.raises(ValueError, match=message):
        cross_validate_lambda(data["x"], data["y"], data["w"], grid=(0.1, 1.0), folds=2)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", ["features", "y", "w"])
def test_linear_rejects_non_finite_input_by_row(name, bad):
    data = {"features": np.column_stack([np.ones(4), np.arange(4.0)]),
            "y": np.array([1.0, -0.5, 2.0, 0.3]), "w": np.ones(4)}
    data[name][2] = bad
    with pytest.raises(ValueError, match=rf"^{name}\[2\] is not finite$"):
        fit_weighted_linear(data["features"], data["y"], data["w"])


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", ["t", "y", "w"])
def test_isotonic_rejects_non_finite_input_by_row(name, bad):
    data = {"t": np.arange(4.0), "y": np.array([1.0, -0.5, 2.0, 0.3]), "w": np.ones(4)}
    data[name][2] = bad
    with pytest.raises(ValueError, match=rf"^{name}\[2\] is not finite$"):
        fit_weighted_isotonic(data["t"], data["y"], data["w"])


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


X3 = np.array([0.1, 0.5, 0.9])
INPUT_CHECKS = {
    "unknown-feature-map": (
        lambda: resolve_feature_map("cubic"), KeyError,
        r"unknown feature map 'cubic'; known: \['bilinear-xa', 'state', 'state-linear'\]",
    ),
    "kernel-lengths": (
        lambda: fit_weighted_krr(X3, X3[:2], np.ones(3), 1.0), ValueError,
        r"^x, y, w must be equal-length vectors$",
    ),
    "linear-features-not-2d": (
        lambda: fit_weighted_linear(X3, X3, np.ones(3)), ValueError, r"^features must be a 2-d array$",
    ),
    "isotonic-lengths": (
        lambda: fit_weighted_isotonic(X3, X3, np.ones(2)), ValueError,
        r"^t, y, w must be equal-length vectors$",
    ),
    "isotonic-zero-weight": (
        lambda: fit_weighted_isotonic(X3, X3, np.array([1.0, 0.0, 1.0])), ValueError,
        r"^weights must be strictly positive$",
    ),
    "cv-one-fold": (
        lambda: cross_validate_lambda(X3, X3, np.ones(3), grid=[1.0, 2.0], folds=1), ValueError,
        r"^folds must be at least 2$",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_an_input_check_raises_its_message(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call()
