import dataclasses

import numpy as np
import pytest
import scipy.stats

import ope_lab as ol
from ope_lab import estimators, regression, simlab
from ope_lab.complexity import small_ball_estimate
from ope_lab.estimators import REPORT_CSV_HEADER, FirstStageError
from ope_lab.lowerbounds import tilted_instance

from conftest import make_d1
from oracles import brute_exact_estimator_variance


def const_fn(c):
    return lambda x, a: np.full(np.broadcast(np.asarray(x), np.asarray(a)).shape, float(c))


def d1_tables():
    probs = [0.5, 0.5]
    lam = [1.0, 1.0]
    pi = [[0.8, 0.2], [0.4, 0.6]]
    g = [[-1.0, 1.0], [-1.0, 1.0]]
    mu = [[1.0, 2.0], [0.0, 3.0]]
    return probs, lam, pi, g, mu


# ---------------------------------------------------------------------------
# IPW
# ---------------------------------------------------------------------------


def test_ipw_zero_weight():
    inst = ol.ProblemInstance.from_tables(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[0.0, 0.0], [0.0, 0.0]],
        outcome_mean_table=[[1.0, 2.0], [0.0, 3.0]],
        outcome_sd_table=[[0.0, 0.0], [0.0, 0.0]],
    )
    data = ol.sample_dataset(inst, 20, seed=1)
    assert ol.ipw_estimate(data, inst).tau_hat == 0.0


def test_ipw_hand_value(d1):
    data = ol.Dataset(
        x=np.array([0.0, 1.0]), a=np.array([1.0, 0.0]), y=np.array([2.0, 0.0]),
        seed=0, instance_id="d1",
    )
    assert abs(ol.ipw_estimate(data, d1).tau_hat - 5.0) < 1e-12


def test_ipw_unbiased_over_seeds(d1):
    n, reps = 10**5 // 200, 200  # 200 replications of n = 500
    taus = np.array(
        [ol.ipw_estimate(ol.sample_dataset(d1, n, seed=s), d1).tau_hat for s in range(reps)]
    )
    se = taus.std(ddof=1) / np.sqrt(reps)
    assert abs(taus.mean() - 2.0) < 3 * se


def test_ipw_rejects_foreign_action(d1):
    data = ol.Dataset(
        x=np.array([0.0]), a=np.array([2.0]), y=np.array([1.0]), seed=0, instance_id="d1"
    )
    with pytest.raises(ValueError, match=r"action 2\.0 not in"):
        ol.ipw_estimate(data, d1)


def test_ipw_is_the_influence_vector_at_zero(d1_noisy):
    data = ol.sample_dataset(d1_noisy, 50, seed=3)
    zero = const_fn(0.0)
    report = ol.ipw_estimate(data, d1_noisy)
    pairs, ratio = estimators._observed(d1_noisy, data)
    g_rows = estimators._pair_rows(d1_noisy, d1_noisy.weight_fn, pairs)
    mu_obs, mu_rows = estimators._values_and_rows(d1_noisy, zero, pairs)
    terms = estimators._influence(d1_noisy, ratio, data.y, g_rows, mu_obs, mu_rows)
    assert float(np.mean(terms)) == report.tau_hat
    assert report.plugin_variance == estimators._mean_and_variance(terms)[1]


@pytest.mark.parametrize("tau_hat, plugin_variance", [
    (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf), (1.0, -1.0),
])
def test_estimate_report_rejects_non_finite(tau_hat, plugin_variance):
    with pytest.raises(ValueError, match="ipw"):
        ol.EstimateReport("ipw", 10, 0, tau_hat, plugin_variance)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 129, 1000, 8000])
def test_mean_and_variance_are_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal(n), 1e6 + rng.standard_cauchy(n)):
        mean, variance = estimators._mean_and_variance(values)
        assert mean == float(np.mean(values))
        assert variance == (float(np.var(values, ddof=1)) if n > 1 else 0.0)


# ---------------------------------------------------------------------------
# generic estimator
# ---------------------------------------------------------------------------


def test_generic_at_zero_equals_ipw(d1_noisy):
    data = ol.sample_dataset(d1_noisy, 64, seed=5)
    ipw = ol.ipw_estimate(data, d1_noisy).tau_hat
    gen = ol.generic_estimate(data, d1_noisy, const_fn(0.0)).tau_hat
    assert abs(ipw - gen) < 1e-12


def test_generic_at_ideal_auxiliary_noiseless(d1):
    data = ol.sample_dataset(d1, 50, seed=6)
    fstar = ol.optimal_auxiliary(d1)
    report = ol.generic_estimate(data, d1, fstar)
    # every summand collapses to the per-state action contrast
    inner = {0.0: 1.0, 1.0: 3.0}
    want = np.mean([inner[x] for x in data.x])
    assert abs(report.tau_hat - want) < 1e-12


def test_generic_unbiased_and_matches_exact_variance(d1_noisy):
    probs, lam, pi, g, mu = d1_tables()
    sd = [[1.0, 1.0], [1.0, 1.0]]
    # fixed zero-conditional-mean auxiliary: centered version of x + 3a
    raw = [[0.0, 1.0], [1.0, 2.0]]
    f_table = [
        [
            raw[i][k] - sum(lam[j] * pi[i][j] * raw[i][j] for j in range(2))
            for k in range(2)
        ]
        for i in range(2)
    ]
    f = lambda x, a: np.asarray(f_table)[np.asarray(x, dtype=int), np.asarray(a, dtype=int)]
    exact = brute_exact_estimator_variance(probs, lam, pi, g, mu, sd, f_table)
    n, reps = 32, 4000
    taus = np.array(
        [
            ol.generic_estimate(ol.sample_dataset(d1_noisy, n, seed=s), d1_noisy, f).tau_hat
            for s in range(reps)
        ]
    )
    se = taus.std(ddof=1) / np.sqrt(reps)
    assert abs(taus.mean() - 2.0) < 4 * se
    mc_var = n * taus.var(ddof=1)
    assert abs(mc_var - exact) / exact < 0.10  # 4000 reps; the tight 5% check runs at 1e5 reps


# ---------------------------------------------------------------------------
# oracle estimator
# ---------------------------------------------------------------------------


def test_oracle_noiseless_identity(d1):
    data = ol.sample_dataset(d1, 40, seed=8)
    inner = {0.0: 1.0, 1.0: 3.0}
    want = np.mean([inner[x] for x in data.x])
    assert abs(ol.oracle_estimate(data, d1).tau_hat - want) < 1e-12


def test_oracle_equals_generic_at_ideal(d1_noisy):
    data = ol.sample_dataset(d1_noisy, 100, seed=9)
    fstar = ol.optimal_auxiliary(d1_noisy)
    a = ol.oracle_estimate(data, d1_noisy).tau_hat
    b = ol.generic_estimate(data, d1_noisy, fstar).tau_hat
    assert abs(a - b) < 1e-12


def test_oracle_variance_matches_floor_on_tent():
    inst = simlab.build_builtin_instance("pi2", gamma=1.0, sigma0=1.0)
    v_star = ol.efficient_variance(inst)
    n, reps = 4000, 500
    tau_star = 0.25
    sq = np.array(
        [
            (ol.oracle_estimate(ol.sample_dataset(inst, n, seed=s), inst).tau_hat - tau_star) ** 2
            for s in range(reps)
        ]
    )
    nmse = n * sq.mean()
    se = n * sq.std(ddof=1) / np.sqrt(reps)
    assert abs(nmse - v_star) < 3 * se


# ---------------------------------------------------------------------------
# two-stage estimator
# ---------------------------------------------------------------------------


def test_two_stage_exact_features_recovers_oracle(d1):
    # outcome mean lies in the bilinear span, so the noiseless fit is exact
    data = ol.sample_dataset(d1, 60, seed=10)
    spec = ol.FirstStageSpec(
        regressor_id="weighted-linear", feature_map="bilinear-xa"
    )
    report = ol.two_stage_estimate(data, d1, spec, seed=0)
    oracle = ol.oracle_estimate(data, d1)
    assert abs(report.tau_hat - oracle.tau_hat) < 1e-8
    assert report.fit_distance < 1e-6


def test_two_stage_zero_weight_gives_zero():
    inst = ol.ProblemInstance.from_tables(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[0.0, 0.0], [0.0, 0.0]],
        outcome_mean_table=[[1.0, 2.0], [0.0, 3.0]],
        outcome_sd_table=[[1.0, 1.0], [1.0, 1.0]],
    )
    data = ol.sample_dataset(inst, 40, seed=11)
    spec = ol.FirstStageSpec(regressor_id="weighted-linear", feature_map="bilinear-xa", ridge=1e-6)
    assert ol.two_stage_estimate(data, inst, spec, seed=1).tau_hat == 0.0


def test_two_stage_zero_propensity_raises_before_fitting():
    base = simlab.build_builtin_instance("pi1", gamma=0.0, sigma0=0.5)

    def propensity(x):
        p = base.propensity(x)
        p[np.asarray(x) == 0.3] = (1.0, 0.0)  # 0.3 is off the probe grid
        return p

    inst = dataclasses.replace(base, propensity=propensity)
    data = ol.sample_dataset(base, 40, seed=15)
    x, a = data.x.copy(), data.a.copy()
    x[5], a[5] = 0.3, 1.0
    bad = ol.Dataset(x=x, a=a, y=data.y, seed=data.seed, instance_id=data.instance_id)
    spec = ol.FirstStageSpec(regressor_id="weighted-krr", lambda_grid=(1.0,), folds=2)
    with pytest.raises(ValueError, match=r"observed pair \(x=0\.3, a=1\.0\)"):
        ol.two_stage_estimate(bad, inst, spec, seed=0)


@pytest.mark.parametrize("regressor, options, unread", [
    ("weighted-krr", {"feature_map": "bilinear-xa", "radius": 3.0, "ridge": 2.0},
     ("feature_map", "radius", "ridge")),
    ("unweighted-krr", {"ridge": 2.0}, ("ridge",)),
    ("weighted-isotonic", {"feature_map": "state", "radius": 1.0}, ("radius",)),
    ("l1-constrained", {"feature_map": "state", "radius": 1.0, "ridge": 1e-3}, ("ridge",)),
    ("weighted-linear", {"frozen_fn": const_fn(0.0)}, ("frozen_fn",)),
    ("frozen", {"frozen_fn": const_fn(0.0), "feature_map": "state"}, ("feature_map",)),
])
def test_first_stage_spec_rejects_a_field_its_regressor_does_not_read(regressor, options, unread):
    # the fit would ignore these fields silently; the error names the first
    with pytest.raises(ValueError, match=rf"^the {regressor} first stage does not read {unread[0]}$"):
        ol.FirstStageSpec(regressor_id=regressor, **options)
    read = {k: v for k, v in options.items() if k not in unread}
    assert ol.FirstStageSpec(regressor_id=regressor, **read).regressor_id == regressor


@pytest.mark.parametrize("options, message", [
    ({"regressor_id": "ridge"}, r"^unknown regressor 'ridge'; known: \('weighted-krr', 'unweighted-krr', "),
    ({"regressor_id": "weighted-krr", "folds": 1}, r"^folds must be at least 2$"),
    ({"regressor_id": "frozen"}, r"^frozen first stage requires frozen_fn$"),
], ids=["unknown-regressor", "one-fold", "frozen-without-function"])
def test_first_stage_spec_rejects_an_unknown_regressor_or_a_missing_part(options, message):
    with pytest.raises(ValueError, match=message):
        ol.FirstStageSpec(**options)


def test_a_callable_feature_map_fits_as_its_named_twin(d1_noisy):
    data = ol.sample_dataset(d1_noisy, 40, seed=4)
    named = ol.FirstStageSpec(regressor_id="weighted-linear", feature_map="bilinear-xa")
    bilinear = regression.FEATURE_MAPS["bilinear-xa"]
    own = dataclasses.replace(named, feature_map=lambda x, a: bilinear(x, a))
    want, got = (ol.two_stage_estimate(data, d1_noisy, spec, seed=0) for spec in (named, own))
    assert (got.tau_hat, got.plugin_variance, got.fit_distance) == (
        want.tau_hat, want.plugin_variance, want.fit_distance
    )


def test_two_stage_needs_enough_data(d1):
    data = ol.sample_dataset(d1, 8, seed=12)
    with pytest.raises(ValueError):
        ol.two_stage_estimate(data, d1, ol.FirstStageSpec(regressor_id="weighted-krr"), seed=0)


def test_two_stage_fold_failure_identity():
    inst = simlab.build_builtin_instance("pi1", gamma=0.0, sigma0=0.0)
    data = ol.sample_dataset(inst, 40, seed=13)
    spec = ol.FirstStageSpec(
        regressor_id="l1-constrained", feature_map="state-linear", radius=None
    )
    with pytest.raises(FirstStageError) as err:
        ol.two_stage_estimate(data, inst, spec, seed=0)
    assert err.value.fold == 1


def test_two_stage_permutation_invariance_within_halves():
    inst = simlab.build_builtin_instance("pi1", gamma=0.0, sigma0=0.5)
    data = ol.sample_dataset(inst, 400, seed=14)
    spec = ol.FirstStageSpec(regressor_id="weighted-krr", lambda_grid=(1.0,))
    base = ol.two_stage_estimate(data, inst, spec, seed=0).tau_hat
    rng = np.random.default_rng(0)
    n1 = (len(data) + 1) // 2
    perm = np.concatenate([rng.permutation(n1), n1 + rng.permutation(len(data) - n1)])
    shuffled = ol.Dataset(
        x=data.x[perm], a=data.a[perm], y=data.y[perm], seed=data.seed,
        instance_id=data.instance_id,
    )
    assert abs(ol.two_stage_estimate(shuffled, inst, spec, seed=0).tau_hat - base) < 1e-12


def test_two_stage_decomposition_frozen_first_stage(d1):
    # deviation tau_hat - tau_star splits into an oracle empirical-average
    # piece minus two cross-fitted correction sums; with a frozen first stage
    # all three have exact enumerable second moments
    c = 0.5
    frozen = const_fn(c)
    spec = ol.FirstStageSpec(regressor_id="frozen", frozen_fn=frozen)
    fstar = ol.optimal_auxiliary(d1)
    aux_frozen_table = {}  # f for frozen mu: g*c/pi - <g, c> with <g, c> = 0 for the contrast weight
    tau_star = 2.0
    v_star = ol.efficient_variance(d1)
    v_excess = ol.excess_variance(d1, frozen).value

    n, reps = 40, 4000
    n1 = (n + 1) // 2
    t_star_sq = np.empty(reps)
    t1_sq = np.empty(reps)
    t2_sq = np.empty(reps)
    identity_err = 0.0
    for s in range(reps):
        data = ol.sample_dataset(d1, n, seed=s)
        report = ol.two_stage_estimate(data, d1, spec, seed=0)
        ratio = d1.weight_fn(data.x, data.a) / d1.propensity_at(data.x, data.a)
        fhat = (
            d1.weight_fn(data.x, data.a) * frozen(data.x, data.a)
            / d1.propensity_at(data.x, data.a)
            - d1.lam_inner(lambda xs, aa: d1.weight_fn(xs, aa) * frozen(xs, aa), data.x)
        )
        fs = fstar(data.x, data.a)
        t_star = np.mean(ratio * data.y - tau_star - fs)
        t1 = np.sum((fhat - fs)[:n1]) / n
        t2 = np.sum((fhat - fs)[n1:]) / n
        identity_err = max(
            identity_err, abs(report.tau_hat - tau_star - (t_star - t1 - t2))
        )
        t_star_sq[s], t1_sq[s], t2_sq[s] = t_star**2, t1**2, t2**2
    assert identity_err < 1e-10
    for observed, exact in (
        (t_star_sq, v_star / n),
        (t1_sq, v_excess / (2 * n) * (2 * n1 / n)),
        (t2_sq, v_excess / (2 * n) * (2 * (n - n1) / n)),
    ):
        se = observed.std(ddof=1) / np.sqrt(reps)
        assert abs(observed.mean() - exact) < 4 * se


def test_two_stage_krr_is_the_mean_of_cross_fitted_influence_terms():
    inst = simlab.build_builtin_instance("pi1", gamma=0.0, sigma0=0.5)
    data = ol.sample_dataset(inst, 200, seed=16)
    spec = ol.FirstStageSpec(regressor_id="weighted-krr", lambda_grid=(0.1, 1.0, 10.0), folds=3)
    report = ol.two_stage_estimate(data, inst, spec, seed=2)
    fit1, fit2 = report.first_stage_models
    n1 = (len(data) + 1) // 2
    infl = np.empty(len(data))
    g = inst.weight_fn
    for rows, fit in ((slice(0, n1), fit2), (slice(n1, None), fit1)):
        x, a, y = data.x[rows], data.a[rows], data.y[rows]
        ratio = g(x, a) / inst.propensity_at(x, a)
        inner = inst.lam_inner(lambda xs, aa: g(xs, aa) * fit(xs, aa), x)
        infl[rows] = ratio * (y - fit(x, a)) + inner
    assert report.tau_hat == pytest.approx(np.mean(infl), rel=1e-12, abs=1e-12)
    assert report.plugin_variance == pytest.approx(np.var(infl, ddof=1), rel=1e-12, abs=1e-12)


def _unsorted_instance():
    # d1 with both the states and the actions listed in descending order
    return ol.ProblemInstance.from_tables(
        states=[1.0, 0.0],
        probs=[0.3, 0.7],
        actions=[1.0, 0.0],
        propensity_table=[[0.6, 0.4], [0.2, 0.8]],
        weight_table=[[1.0, -1.0], [0.5, -2.0]],
        outcome_mean_table=[[3.0, 0.0], [2.0, 1.0]],
        outcome_sd_table=[[1.0, 0.5], [0.25, 2.0]],
    )


def _float_influence(inst, x, a, y, mu):
    """Influence terms built from the public callables on state and action values."""
    g = inst.weight_fn
    ratio = np.asarray(g(x, a), dtype=float) * np.ones(len(x)) / inst.propensity_at(x, a)
    inner = inst.lam_inner(lambda xs, aa: np.asarray(g(xs, aa)) * np.asarray(mu(xs, aa)), x)
    return ratio * (y - mu(x, a)) + inner


def _cross_fitted(inst, data, fit1, fit2):
    n1 = (len(data) + 1) // 2
    infl = np.empty(len(data))
    for rows, fit in ((slice(0, n1), fit2), (slice(n1, None), fit1)):
        infl[rows] = _float_influence(inst, data.x[rows], data.a[rows], data.y[rows], fit)
    return infl


def test_estimators_read_tables_in_the_given_order():
    inst = _unsorted_instance()
    data = ol.sample_dataset(inst, 40, seed=5)
    x, a, y = data.x, data.a, data.y
    assert set(x) == {0.0, 1.0} and set(a) == {0.0, 1.0}
    assert inst.locate(x, a).si is not None  # the estimators read tables by index

    def check(report, terms):
        assert report.tau_hat == float(np.mean(terms))
        assert report.plugin_variance == float(np.var(terms, ddof=1))

    check(ol.ipw_estimate(data, inst), _float_influence(inst, x, a, y, const_fn(0.0)))
    check(ol.oracle_estimate(data, inst), _float_influence(inst, x, a, y, inst.outcome_mean))
    aux = lambda xs, aa: np.asarray(xs, dtype=float) * 2.0 - np.asarray(aa, dtype=float)
    ratio = inst.weight_fn(x, a) / inst.propensity_at(x, a)
    generic_terms = ratio * y - aux(x, a) + inst.conditional_mean(aux, x)
    check(ol.generic_estimate(data, inst, aux), generic_terms)
    mu = lambda xs, aa: 0.5 + np.asarray(xs, dtype=float) * np.asarray(aa, dtype=float)
    frozen = ol.FirstStageSpec(regressor_id="frozen", frozen_fn=mu)
    assert ol.two_stage_estimate(data, inst, frozen, seed=0).plugin_variance == float(
        np.var(_float_influence(inst, x, a, y, mu), ddof=1)
    )
    check(ol.two_stage_estimate(data, inst, frozen, seed=0), _cross_fitted(inst, data, mu, mu))
    linear = ol.FirstStageSpec(regressor_id="weighted-linear", feature_map="bilinear-xa", ridge=1e-3)
    report = ol.two_stage_estimate(data, inst, linear, seed=0)
    check(report, _cross_fitted(inst, data, *report.first_stage_models))


@pytest.mark.parametrize("estimate", [
    lambda data, inst: ol.ipw_estimate(data, inst),
    lambda data, inst: ol.oracle_estimate(data, inst),
    lambda data, inst: ol.generic_estimate(data, inst, const_fn(1.0)),
    lambda data, inst: ol.two_stage_estimate(
        data, inst, ol.FirstStageSpec(regressor_id="frozen", frozen_fn=const_fn(0.5)), seed=0
    ),
    lambda data, inst: ol.two_stage_estimate(
        data, inst, ol.FirstStageSpec(regressor_id="frozen", frozen_fn=const_fn(1.0)), seed=0
    ),
])
def test_estimators_reject_a_foreign_state_or_action(d1, estimate):
    x = np.tile([0.0, 1.0], 6)
    a = np.tile([1.0, 0.0], 6)

    def dataset(x, a):
        return ol.Dataset(x=x, a=a, y=np.ones(x.size), seed=0, instance_id="d1")

    x_bad = x.copy()
    x_bad[3] = 0.5
    with pytest.raises(KeyError, match=r"value 0\.5 not found"):
        estimate(dataset(x_bad, a), d1)
    a_bad = a.copy()
    a_bad[4] = 2.0
    with pytest.raises(ValueError, match=r"action 2\.0 not in"):
        estimate(dataset(x, a_bad), d1)


def _array_lookup(field, inst):
    """A plain numpy-array lookup holding the values of one of d1's tables;
    d1's states and actions are 0 and 1, so a value is its own index."""
    table = np.array(inst.meta["tables"][field])
    if field == "propensity":
        return lambda x: table[np.asarray(x).astype(int)]
    return lambda x, a: table[np.asarray(x).astype(int), np.asarray(a).astype(int)]


FIELD_TABLES = {
    "propensity": "propensity", "weight_fn": "weight",
    "outcome_mean": "outcome_mean", "outcome_sd": "outcome_sd",
}


@pytest.mark.parametrize("field", list(FIELD_TABLES))
def test_a_replaced_field_gives_the_same_results(d1_noisy, field):
    # an instance whose field is not a from_tables lookup is tabulated like one
    lookup = _array_lookup(FIELD_TABLES[field], d1_noisy)
    replaced = dataclasses.replace(d1_noisy, **{field: lookup})
    aux = lambda x, a: np.asarray(x, dtype=float) - 0.5 * np.asarray(a, dtype=float)
    frozen = ol.FirstStageSpec(regressor_id="frozen", frozen_fn=aux)

    def results(inst):
        data = ol.sample_dataset(inst, 40, seed=8)
        reports = (
            ol.ipw_estimate(data, inst),
            ol.oracle_estimate(data, inst),
            ol.generic_estimate(data, inst, aux),
            ol.two_stage_estimate(data, inst, frozen, seed=1),
        )
        tilt = tilted_instance(inst, 50)
        return (
            [v.hex() for v in np.concatenate([data.x, data.a, data.y])],
            [(r.tau_hat.hex(), r.plugin_variance.hex()) for r in reports],
            (tilt.tweak, tilt.gap, tilt.divergences),
            small_ball_estimate(inst, aux, alpha1=0.5, reps=400, seed=3),
        )

    assert results(replaced) == results(d1_noisy)


@pytest.mark.parametrize("make_instance", [
    pytest.param(lambda: make_d1(1.0), id="d1_noisy"),
    pytest.param(lambda: simlab.build_builtin_instance("pi1"), id="pi1"),
])
def test_a_first_stage_fit_is_evaluated_once_per_half(make_instance, monkeypatch):
    # each fit is evaluated once at the located pairs (on a finite instance,
    # on its (state, action) grid); that scores the other half and gives
    # fit_distance's values
    instance = make_instance()
    calls = []
    predict = regression.KernelRidgeModel.predict
    monkeypatch.setattr(
        regression.KernelRidgeModel, "predict",
        lambda self, x: calls.append(1) or predict(self, x),
    )
    data = ol.sample_dataset(instance, 40, seed=4)
    ol.two_stage_estimate(data, instance, ol.FirstStageSpec(regressor_id="weighted-krr"), seed=0)
    assert len(calls) == 2


@pytest.mark.parametrize("regressor, tau_hat, plugin_variance, fit_distance", [
    ("weighted-krr", "0x1.3cd649668b989p-4", "0x1.97fedecfda5edp-2", "0x1.339ff6e56a95dp-6"),
    ("unweighted-krr", "0x1.54320d1f5d7f9p-4", "0x1.97078b0fb4fe2p-2", "0x1.28340d5fa4208p-6"),
])
def test_kernel_two_stage_bits_are_pinned_on_a_continuous_instance(
    regressor, tau_hat, plugin_variance, fit_distance
):
    # recorded with each fit predicted separately at the pairs and at their
    # states' rows; picking the values from the rows must give the same bits
    instance = simlab.build_builtin_instance("pi1")
    data = ol.sample_dataset(instance, 40, seed=4)
    report = ol.two_stage_estimate(data, instance, ol.FirstStageSpec(regressor_id=regressor), seed=0)
    assert report.tau_hat.hex() == tau_hat
    assert report.plugin_variance.hex() == plugin_variance
    assert report.fit_distance.hex() == fit_distance


@pytest.mark.parametrize("regressor, options, fit_distance", [
    ("weighted-krr", {}, "0x1.81f989643415ap-1"),
    ("unweighted-krr", {}, "0x1.d7c2cda6e7c1fp+0"),
    ("weighted-linear", {"feature_map": "bilinear-xa"}, "0x1.80655a9ed91bap+0"),
    ("l1-constrained", {"feature_map": "bilinear-xa", "radius": 5.0}, "0x1.7967f5a522c1fp+0"),
    ("weighted-isotonic", {"feature_map": "state"}, "0x1.0b7282bfd0d1cp-1"),
])
def test_fit_distance_bits_are_pinned(d1_noisy, regressor, options, fit_distance):
    # recorded with each fit predicted at the n observed pairs; reading those
    # values from the fit's (state, action) grid must give the same bits
    data = ol.sample_dataset(d1_noisy, 40, seed=4)
    spec = ol.FirstStageSpec(regressor_id=regressor, **options)
    report = ol.two_stage_estimate(data, d1_noisy, spec, seed=0)
    assert report.fit_distance.hex() == fit_distance


@pytest.mark.parametrize("regressor", ["weighted-krr", "unweighted-krr"])
def test_kernel_first_stage_models_carry_the_spec_id(regressor):
    instance = simlab.build_builtin_instance("pi1")
    data = ol.sample_dataset(instance, 40, seed=4)
    report = ol.two_stage_estimate(data, instance, ol.FirstStageSpec(regressor_id=regressor), seed=0)
    for fit in report.first_stage_models:
        assert fit.regressor_id == regressor


def test_an_auxiliary_is_evaluated_once_per_generic_estimate(d1):
    calls = []

    def aux(x, a):
        calls.append(1)
        return np.asarray(x, dtype=float) * np.asarray(a, dtype=float)

    ol.generic_estimate(ol.sample_dataset(d1, 30, seed=5), d1, aux)
    assert len(calls) == 1


def test_two_stage_isotonic_first_stage_runs():
    inst = simlab.build_builtin_instance("pi2", gamma=1.0, sigma0=0.3)
    data = ol.sample_dataset(inst, 300, seed=21)
    spec = ol.FirstStageSpec(regressor_id="weighted-isotonic", feature_map="state")
    report = ol.two_stage_estimate(data, inst, spec, seed=2)
    assert np.isfinite(report.tau_hat)
    # tent is not monotone, so the fit cannot match the oracle, but the
    # estimate should still land in a sane neighborhood of the target
    assert abs(report.tau_hat - 0.25) < 0.5


def test_two_stage_normal_approximation():
    inst = simlab.build_builtin_instance("pi2", gamma=1.0, sigma0=1.0)
    spec = ol.FirstStageSpec(regressor_id="weighted-krr")
    n = 20000
    tau_star = 0.25
    # large-n first-stage limit proxy: one weighted fit at the full n
    big = ol.sample_dataset(inst, n, seed=777)
    ratio = inst.weight_fn(big.x, big.a) / inst.propensity_at(big.x, big.a)
    from ope_lab.regression import cross_validate_lambda, fit_weighted_krr

    lam = cross_validate_lambda(big.x, big.y, ratio**2, folds=5, seed=0)
    limit_fit = fit_weighted_krr(big.x, big.y, ratio**2, lam)
    mubar = lambda x, a: np.asarray(a, dtype=float) * limit_fit.predict(
        np.asarray(x, dtype=float) * np.ones_like(np.asarray(a, dtype=float))
    )
    v2 = ol.excess_variance(inst, mubar).value
    v_star = ol.efficient_variance(inst)

    reps = 500
    draws = np.empty(reps)
    for s in range(reps):
        data = ol.sample_dataset(inst, n, seed=10_000 + s)
        report = ol.two_stage_estimate(data, inst, spec, seed=s)
        draws[s] = np.sqrt(n) * (report.tau_hat - tau_star)
    standardized = draws / np.sqrt(v_star + v2)
    ks = scipy.stats.kstest(standardized, "norm").statistic
    assert ks < 0.08


def test_estimate_runs_each_named_estimator_through_its_module_function(d1_noisy, monkeypatch):
    # a wrapper installed on a module function (as the benchmark tracer
    # installs its spans) must see the call
    calls = []
    for name in ("ipw_estimate", "oracle_estimate", "two_stage_estimate"):
        monkeypatch.setattr(
            estimators, name,
            lambda *args, _fn=getattr(estimators, name), _name=name, **kwargs:
                calls.append(_name) or _fn(*args, **kwargs),
        )
    data = ol.sample_dataset(d1_noisy, 40, seed=4)
    for estimator_id, regressor_id in estimators.NAMED_ESTIMATORS.items():
        report = estimators.estimate(
            estimator_id, data, d1_noisy, seed=5, lambda_grid=(0.5, 5.0), folds=2
        )
        assert report.estimator_id == estimator_id
        if regressor_id is not None:
            spec = ol.FirstStageSpec(regressor_id, lambda_grid=(0.5, 5.0), folds=2)
            direct = ol.two_stage_estimate(data, d1_noisy, spec, seed=5)
            assert report.csv_row() == direct.csv_row()
    assert calls == ["ipw_estimate", "oracle_estimate", "two_stage_estimate", "two_stage_estimate"]


def test_estimate_names_an_unknown_estimator_and_the_known_ones(d1):
    data = ol.sample_dataset(d1, 10, seed=0)
    with pytest.raises(ValueError) as err:
        estimators.estimate("two-stage-krr", data, d1)
    assert str(err.value) == f"unknown estimator 'two-stage-krr'; known: {estimators.ESTIMATOR_IDS}"


# ---------------------------------------------------------------------------
# plug-in asymptotic variance
# ---------------------------------------------------------------------------


def test_plugin_variance_noiseless_truth(d1):
    data = ol.sample_dataset(d1, 200, seed=15)
    v = ol.oracle_estimate(data, d1).plugin_variance
    inner = np.array([{0.0: 1.0, 1.0: 3.0}[x] for x in data.x])
    assert abs(v - inner.var(ddof=1)) < 1e-12


def test_plugin_variance_truth_matches_floor(d1_noisy):
    data = ol.sample_dataset(d1_noisy, 10**5, seed=16)
    v = ol.oracle_estimate(data, d1_noisy).plugin_variance
    assert abs(v - 6.208333333333333) / 6.208333333333333 < 0.05


def test_plugin_variance_zero_fit_adds_excess(d1_noisy):
    data = ol.sample_dataset(d1_noisy, 10**5, seed=17)
    v = ol.ipw_estimate(data, d1_noisy).plugin_variance
    want = ol.efficient_variance(d1_noisy) + ol.excess_variance(d1_noisy, const_fn(0.0)).value
    assert abs(v - want) / want < 0.05


def test_report_csv_row(d1):
    data = ol.sample_dataset(d1, 10, seed=18)
    report = ol.ipw_estimate(data, d1)
    row = report.csv_row()
    assert REPORT_CSV_HEADER == "estimator_id,n,seed,tau_hat,plugin_variance"
    assert row.startswith("ipw,10,18,")


# ---------------------------------------------------------------------------
# pairs carried by a sampled dataset
# ---------------------------------------------------------------------------


def _all_estimates(data, inst):
    """(tau_hat, plugin_variance) bits of every estimator on one dataset."""
    aux = lambda x, a: np.asarray(x, dtype=float) - 0.5 * np.asarray(a, dtype=float)
    kernel = ol.FirstStageSpec(regressor_id="weighted-krr", lambda_grid=(0.1, 1.0, 10.0), folds=3)
    reports = (
        ol.ipw_estimate(data, inst),
        ol.oracle_estimate(data, inst),
        ol.generic_estimate(data, inst, aux),
        ol.two_stage_estimate(data, inst, kernel, seed=3),
    )
    return [(r.tau_hat.hex(), r.plugin_variance.hex()) for r in reports]


def _counting_locate(monkeypatch):
    calls = []
    locate = ol.ProblemInstance.locate

    def counted(self, x, a):
        calls.append(self)
        return locate(self, x, a)

    monkeypatch.setattr(ol.ProblemInstance, "locate", counted)
    return calls


def test_a_sampled_dataset_scores_as_its_plain_copy_against_any_instance(monkeypatch):
    inst = simlab.build_builtin_instance("pi1", gamma=0.5)
    data = ol.sample_dataset(inst, 300, seed=21)
    plain = ol.Dataset(data.x, data.a, data.y, data.seed, data.instance_id)
    calls = _counting_locate(monkeypatch)
    # the drawing object itself, an equal rebuilt one, and another instance
    for other in (inst, simlab.build_builtin_instance("pi1", gamma=0.5),
                  simlab.build_builtin_instance("pi2", gamma=0.5)):
        del calls[:]
        assert _all_estimates(data, other) == _all_estimates(plain, other)
        # four estimators score each dataset; the drawing object reuses its pairs
        assert calls == [other] * (4 if other is inst else 8)


def test_replace_and_pickle_drop_the_drawn_pairs(monkeypatch):
    import pickle

    inst = simlab.build_builtin_instance("pi2", gamma=1.0)
    data = ol.sample_dataset(inst, 50, seed=4)
    assert "Pairs" not in repr(data)
    want = _all_estimates(data, inst)
    calls = _counting_locate(monkeypatch)
    moved = dataclasses.replace(data, x=data.x.copy())
    back = pickle.loads(pickle.dumps(data))
    assert np.array_equal(back.x, data.x) and np.array_equal(back.y, data.y)
    for copy in (moved, back):
        del calls[:]
        assert _all_estimates(copy, inst) == want
        assert calls == [inst] * 4
    # a replaced state vector is looked up afresh, not read from the draw
    shifted = dataclasses.replace(data, x=np.clip(data.x + 0.25, 0.0, 1.0))
    assert _all_estimates(shifted, inst) != want


def test_a_half_sample_without_weight_fits_zero_and_is_scored_as_ipw():
    # the first half observes no outcome (a = 0, so g = 0): its fit is f = 0
    # at the largest ridge level, and the second half is scored as IPW
    inst = simlab.build_builtin_instance("pi1")
    rng = np.random.default_rng(8)
    n, n1 = 40, 20
    x = rng.random(n)
    a = np.r_[np.zeros(n1), np.ones(n - n1)]
    y = a * (0.5 - np.abs(x - 0.5)) + rng.normal(size=n)
    data = ol.Dataset(x, a, y, seed=0, instance_id=inst.instance_id)
    for regressor in ("weighted-krr", "unweighted-krr"):
        spec = ol.FirstStageSpec(regressor_id=regressor, lambda_grid=(0.1, 1.0, 10.0), folds=3)
        report = ol.two_stage_estimate(data, inst, spec, seed=5)
        fit1, fit2 = report.first_stage_models
        assert fit1.lambda_reg == 10.0
        assert np.all(fit1(np.linspace(0.0, 1.0, 11), np.ones(11)) == 0.0)
        half2 = ol.Dataset(x[n1:], a[n1:], y[n1:], seed=0, instance_id=inst.instance_id)
        ipw2 = ol.ipw_estimate(half2, inst).tau_hat
        # the first half has g/pi = 0: its terms are <g, fit2> = fit2(x, 1)
        want = (np.sum(fit2(x[:n1], np.ones(n1))) + (n - n1) * ipw2) / n
        assert report.tau_hat == pytest.approx(want, rel=1e-12, abs=1e-12)
