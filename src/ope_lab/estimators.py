"""Functional estimators: IPW, generic unbiased, oracle, and cross-fitted
two-stage.

All estimators consume a dataset together with the known parts of the
instance (propensity, weight function, base measure).  Only the oracle
estimator touches the true outcome mean.

Each estimate is the mean of one per-observation influence vector and its
plug-in variance is that vector's sample variance.  For an outcome function
mu the influence term of observation i is

    infl_i(mu) = g/pi (x_i, a_i) * (y_i - mu(x_i, a_i)) + <g(x_i, .), mu(x_i, .)>,

so IPW is infl(0) and the oracle is infl(mu).  The two-stage estimator splits
the data into a first half B1 of size ceil(n/2) and the remainder B2, fits a
first-stage outcome model muhat_j on each half B_j, and cross-fits:

    tauhat = (1/n) sum_i infl_i(muhat_{-i}),

where muhat_{-i} is the fit trained on the half that does not contain i.
Cross-validation inside each half uses only that half's data.

``NAMED_ESTIMATORS`` holds the estimator ids of a simulation config and of
``ope-lab estimate``, and ``estimate`` runs the estimator an id names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

from . import core, regression
from .core import Dataset, ProblemInstance, _likelihood_ratio, _located, _pair_rows, _values_and_rows
from .rng import mix_seed

REPORT_CSV_HEADER = "estimator_id,n,seed,tau_hat,plugin_variance"

# the optional FirstStageSpec fields each regressor reads; the rest keep their defaults
FIRST_STAGE_FIELDS = {
    "weighted-krr": (),
    "unweighted-krr": (),
    "weighted-linear": ("feature_map", "radius", "ridge"),
    "l1-constrained": ("feature_map", "radius"),
    "weighted-isotonic": ("feature_map",),
    "frozen": ("frozen_fn",),
}
FIRST_STAGE_IDS = tuple(FIRST_STAGE_FIELDS)
_OPTIONAL_FIELDS = {name for names in FIRST_STAGE_FIELDS.values() for name in names}
# the regressors whose cross-validation reads a fold seed
_KERNEL_IDS = ("weighted-krr", "unweighted-krr")
# the first stage each named estimator fits; None for IPW and the oracle
NAMED_ESTIMATORS = {
    "ipw": None,
    "oracle": None,
    "two-stage-weighted-krr": "weighted-krr",
    "two-stage-unweighted-krr": "unweighted-krr",
}
ESTIMATOR_IDS = tuple(NAMED_ESTIMATORS)


class FirstStageError(RuntimeError):
    """First-stage fit failure, carrying the fold it happened in."""

    def __init__(self, message: str, fold: int):
        super().__init__(message)
        self.fold = fold

    def __reduce__(self):
        return type(self), (self.args[0], self.fold)


def _require_estimate(estimator_id: str, tau_hat: float, plugin_variance: float) -> None:
    """Reject a non-finite estimate or a plug-in variance that is not
    finite and non-negative, naming the estimator."""
    if not math.isfinite(tau_hat):
        raise ValueError(f"{estimator_id} tau_hat is not finite: {tau_hat}")
    if not (math.isfinite(plugin_variance) and plugin_variance >= 0):
        raise ValueError(
            f"{estimator_id} plugin_variance must be finite and non-negative, "
            f"got {plugin_variance}"
        )


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its data-driven variance proxy.

    ``plugin_variance`` is the sample variance of the per-observation
    influence terms (an n-rescaled variance: the estimator's variance is
    approximately plugin_variance / n).
    """

    estimator_id: str
    n: int
    seed: int
    tau_hat: float
    plugin_variance: float

    def __post_init__(self):
        _require_estimate(self.estimator_id, self.tau_hat, self.plugin_variance)

    def csv_row(self) -> str:
        return (
            f"{self.estimator_id},{self.n},{self.seed},"
            f"{self.tau_hat:.10g},{self.plugin_variance:.10g}"
        )


@dataclass(frozen=True)
class FirstStageSpec:
    """Configuration of the first-stage regressor inside the two-stage
    estimator.

    ``feature_map`` is a registry id or callable (linear, l1, isotonic
    regressors); ``radius`` is the l1 or l2 cap where applicable;
    ``frozen_fn`` short-circuits fitting with a fixed outcome function
    (diagnostics only, not serializable).  A field the regressor does not
    read (``FIRST_STAGE_FIELDS``) must keep its default.
    """

    regressor_id: str
    lambda_grid: tuple = regression.DEFAULT_LAMBDA_GRID
    folds: int = 5
    feature_map: Any = None
    radius: float | None = None
    ridge: float = 0.0
    frozen_fn: Callable | None = None

    def __post_init__(self):
        if self.regressor_id not in FIRST_STAGE_IDS:
            raise ValueError(
                f"unknown regressor {self.regressor_id!r}; known: {FIRST_STAGE_IDS}"
            )
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        regression._require_ridge_levels("lambda_grid", self.lambda_grid)
        if self.regressor_id == "frozen" and self.frozen_fn is None:
            raise ValueError("frozen first stage requires frozen_fn")
        unread = _OPTIONAL_FIELDS.difference(FIRST_STAGE_FIELDS[self.regressor_id])
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(f"the {self.regressor_id} first stage does not read {f.name}")


@dataclass(frozen=True)
class FittedOutcomeModel:
    """A first-stage fit adapted to the (x, a) signature."""

    regressor_id: str
    predict_xa: Callable[[np.ndarray, np.ndarray], np.ndarray]
    model: Any = None
    lambda_reg: float | None = None

    def __call__(self, x, a):
        return self.predict_xa(x, a)


@dataclass(frozen=True)
class TwoStageReport(EstimateReport):
    """Two-stage estimate plus its first-stage fits and a split diagnostic.

    ``fit_distance`` is the empirical weighted distance between the two
    half-sample fits: sqrt((1/n) sum_i (g/pi)^2 (mu1 - mu2)^2 at (x_i, a_i)).
    """

    first_stage_models: tuple = field(default=())
    fit_distance: float = 0.0


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _observed(instance: ProblemInstance, data: Dataset):
    """The observed pairs, as drawn or located once per estimator call, and
    g/pi there."""
    pairs = _located(instance, data)
    return pairs, _likelihood_ratio(instance, pairs)


def _influence(instance: ProblemInstance, ratio, y, g_rows, mu_obs, mu_rows, n=None) -> np.ndarray:
    """g/pi (y - mu) + <g, mu> at observed pairs, from ratio = g/pi there,
    the rows of g and mu at the pairs' states, and mu at the pairs; the
    pairs are datasets of n rows laid end to end (one dataset by default).
    The inner product runs as one matrix-vector product per dataset: BLAS
    may round a row of one long product differently from the same row of a
    short one."""
    prod = g_rows * mu_rows
    if n is None or n == y.size:
        inner = prod @ instance.actions.base_weights
    else:
        inner = (prod.reshape(-1, n, prod.shape[1]) @ instance.actions.base_weights).reshape(-1)
    return ratio * (y - mu_obs) + inner


def _moments(terms: np.ndarray, n: int):
    """The estimate and plug-in variance of one dataset's n influence terms,
    as floats, or of each row of n terms of a 2-D array, as arrays.  One
    observation has no sample variance, so n < 2 raises."""
    if n < 2:
        raise ValueError(f"an estimate needs at least 2 observations, got n = {n}")
    return core._mean_and_variance(terms)


def _report(estimator_id: str, data: Dataset, terms, cls=EstimateReport, **extra):
    """Mean and sample variance of the influence terms, as a report."""
    n = len(data)
    tau_hat, variance = _moments(terms, n)
    return cls(
        estimator_id=estimator_id,
        n=n,
        seed=data.seed,
        tau_hat=tau_hat,
        plugin_variance=variance,
        **extra,
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _ipw_terms(instance: ProblemInstance, pairs, y, n) -> np.ndarray:
    """IPW's influence terms g/pi * y, the influence vector at mu = 0."""
    return _likelihood_ratio(instance, pairs) * y


def _oracle_terms(instance: ProblemInstance, pairs, y, n) -> np.ndarray:
    """The oracle's influence terms, at the true outcome mean."""
    g_obs, g_rows = _values_and_rows(instance, instance.weight_fn, pairs)
    ratio = _likelihood_ratio(instance, pairs, g_obs)
    mu_obs, mu_rows = _values_and_rows(instance, instance.outcome_mean, pairs)
    return _influence(instance, ratio, y, g_rows, mu_obs, mu_rows, n)


# the influence terms of each estimator that fits no first stage, from located
# pairs and y of datasets of n rows laid end to end: (instance, pairs, y, n)
INFLUENCE_TERMS = {"ipw": _ipw_terms, "oracle": _oracle_terms}


def ipw_estimate(data: Dataset, instance: ProblemInstance) -> EstimateReport:
    """Importance-reweighted plug-in estimate: mean of g/pi * y, the influence
    vector at mu = 0."""
    return _report("ipw", data, _ipw_terms(instance, _located(instance, data), data.y, len(data)))


def generic_estimate(
    data: Dataset, instance: ProblemInstance, f
) -> EstimateReport:
    """Unbiased estimate for an arbitrary auxiliary f:

    mean of [ g/pi * y - f(x, a) + <f(x, .), pi(x, .)> ].
    """
    pairs, ratio = _observed(instance, data)
    f_obs, f_rows = _values_and_rows(instance, f, pairs)
    pmat = _pair_rows(instance, instance.propensity, pairs)
    recenter = (pmat * f_rows) @ instance.actions.base_weights
    return _report("generic", data, ratio * data.y - f_obs + recenter)


def oracle_estimate(data: Dataset, instance: ProblemInstance) -> EstimateReport:
    """Two-stage estimator with the true outcome mean substituted.

    Not computable from data alone; serves as the efficiency baseline.
    """
    terms = _oracle_terms(instance, _located(instance, data), data.y, len(data))
    return _report("oracle", data, terms)


def block_estimates(estimator_id: str, instance: ProblemInstance, pairs, y, n: int) -> np.ndarray:
    """The estimates of an estimator in ``INFLUENCE_TERMS`` on datasets of n
    rows laid end to end (located pairs and y), bit for bit those of its
    per-dataset estimator.  The first dataset whose estimate fails a report's
    checks raises as its report would."""
    terms = INFLUENCE_TERMS[estimator_id](instance, pairs, y, n)
    tau_hat, variance = _moments(terms.reshape(-1, n), n)
    ok = np.isfinite(tau_hat) & np.isfinite(variance) & (variance >= 0)
    if not ok.all():
        r = int(np.argmin(ok))
        _require_estimate(estimator_id, float(tau_hat[r]), float(variance[r]))
    return tau_hat


# ---------------------------------------------------------------------------
# Two-stage estimator
# ---------------------------------------------------------------------------


def _fit_first_stage(
    spec: FirstStageSpec,
    x: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    seed: int,
) -> FittedOutcomeModel:
    """Fit one half-sample.  Regression weights are w_i = (g/pi)^2 at the
    observed pairs; rows the weight function annihilates enter with w = 0,
    which removes them from every weighted objective.

    Every fitted model predicts through a feature map of (x, a); the kernel
    fits use ``state``, which models the outcome as a function of x alone.
    """
    if spec.regressor_id == "frozen":
        return FittedOutcomeModel(regressor_id="frozen", predict_xa=spec.frozen_fn)

    kernel = spec.regressor_id in _KERNEL_IDS
    feature_map = regression.resolve_feature_map("state" if kernel else spec.feature_map)
    lam = None
    if kernel:
        # rows with zero weight-function value never enter the objective
        w_train = w if spec.regressor_id == "weighted-krr" else (w > 0).astype(float)
        lam = regression.cross_validate_lambda(
            x, y, w_train, grid=spec.lambda_grid, folds=spec.folds, seed=seed
        )
        if np.any(w_train > 0):
            model = regression.fit_weighted_krr(x, y, w_train, lam)
        else:
            # with no weighted row the ridge objective's exact minimizer is
            # f = 0; cross-validation tied and chose the largest level
            model = regression.KernelRidgeModel(knots=np.zeros(1), values=np.zeros(1), lambda_reg=lam)
    elif spec.regressor_id == "weighted-linear":
        model = regression.fit_weighted_linear(
            feature_map(x, a), y, w, ridge=spec.ridge, max_norm=spec.radius
        )
    elif spec.regressor_id == "l1-constrained":
        if spec.radius is None:
            raise ValueError("l1-constrained first stage requires a radius")
        model = regression.fit_l1_constrained(feature_map(x, a), y, w, spec.radius)
    elif spec.regressor_id == "weighted-isotonic":
        mask = w > 0
        model = regression.fit_weighted_isotonic(
            feature_map(x, a)[mask], y[mask], w[mask]
        )
    else:  # pragma: no cover - guarded by FirstStageSpec
        raise ValueError(spec.regressor_id)

    def predict(xq, aq):
        return model.predict(feature_map(xq, aq))

    return FittedOutcomeModel(
        regressor_id=spec.regressor_id, predict_xa=predict, model=model, lambda_reg=lam
    )


def two_stage_estimate(
    data: Dataset,
    instance: ProblemInstance,
    spec: FirstStageSpec,
    seed: int = 0,
) -> TwoStageReport:
    """Cross-fitted two-stage estimate.

    Only the known quantities (propensity, weight function, base measure) of
    ``instance`` are consulted; the outcome model fields are never evaluated.
    """
    n = len(data)
    if n < 2 * spec.folds:
        raise ValueError(f"need n >= {2 * spec.folds} samples for {spec.folds} folds")
    n1 = (n + 1) // 2
    halves = (np.arange(n1), np.arange(n1, n))
    pairs = _located(instance, data)
    g_obs, g_rows = _values_and_rows(instance, instance.weight_fn, pairs)
    ratio = _likelihood_ratio(instance, pairs, g_obs)

    x, a, y = data.x, data.a, data.y
    fits = []
    for j, idx in enumerate(halves, start=1):
        # only kernel cross-validation reads the fold seed
        fold_seed = mix_seed(seed, "first-stage", j) if spec.regressor_id in _KERNEL_IDS else seed
        try:
            fits.append(_fit_first_stage(
                spec, x[idx], a[idx], y[idx], ratio[idx] ** 2, seed=fold_seed
            ))
        except Exception as exc:
            raise FirstStageError(f"first-stage fit failed on half {j}: {exc}", fold=j) from exc

    # each fit is evaluated once at all n pairs: its values score the other
    # half and give fit_distance
    (mu1, rows1), (mu2, rows2) = (_values_and_rows(instance, f.predict_xa, pairs) for f in fits)
    infl = np.empty(n)
    for idx, mu, rows in ((halves[0], mu2, rows2), (halves[1], mu1, rows1)):
        infl[idx] = _influence(instance, ratio[idx], y[idx], g_rows[idx], mu[idx], rows[idx])
    fit_distance = float(np.sqrt(np.add.reduce(ratio**2 * (mu1 - mu2) ** 2) / n))

    return _report(
        f"two-stage-{spec.regressor_id}", data, infl, cls=TwoStageReport,
        first_stage_models=tuple(fits),
        fit_distance=fit_distance,
    )


def estimate(
    estimator_id: str,
    data: Dataset,
    instance: ProblemInstance,
    seed: int = 0,
    lambda_grid: tuple = regression.DEFAULT_LAMBDA_GRID,
    folds: int = 5,
) -> EstimateReport:
    """Run the estimator that ``estimator_id`` names in ``NAMED_ESTIMATORS``.

    ``seed``, ``lambda_grid`` and ``folds`` reach only a two-stage
    estimator's first stage.  The estimators are looked up as module
    globals at each call, so a wrapper installed on one of them is seen.
    """
    if estimator_id not in NAMED_ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator_id!r}; known: {ESTIMATOR_IDS}")
    regressor_id = NAMED_ESTIMATORS[estimator_id]
    if regressor_id is not None:
        spec = FirstStageSpec(regressor_id, lambda_grid, folds)
        return two_stage_estimate(data, instance, spec, seed=seed)
    if estimator_id == "ipw":
        return ipw_estimate(data, instance)
    return oracle_estimate(data, instance)
