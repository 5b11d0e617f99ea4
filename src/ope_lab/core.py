"""Problem instances, sampling, and exact functionals.

A problem instance bundles a state distribution, a finite action space with a
base measure, a known propensity, a known weight function g, and the outcome
model (conditional mean and Gaussian noise scale).  The target of estimation
is the linear functional

    tau = sum_a lambda(a) * E_X[ g(X, a) * mu(X, a) ],

and the central error metric is the weighted L2 norm

    ||h||_w^2 = sum_a lambda(a) * E_X[ g(X, a)^2 / pi(X, a) * h(X, a)^2 ].

All expectations are computed exactly: enumeration for finite state spaces,
adaptive Simpson quadrature for one-dimensional continuous states on [0, 1].

A finite instance is its tables: construction evaluates the propensity,
weight, mean and sd on every (state, action) pair, and the instance is then
sampled and scored by (state index, action index).  A draw or an
estimator locates its pairs once (``ProblemInstance.locate``), as ``Pairs``
that carry each pair's action index, the propensity rows at its states and,
on a finite instance, its state index; any other function (an auxiliary, a
first-stage fit) is evaluated once per call on the same grid and read by
index.  Continuous instances are evaluated at the pairs' own states.

A dataset from ``sample_dataset`` keeps the pairs it was drawn as, linked to
the instance object that drew it: an estimator scoring it against that same
object reuses them, and against any other instance locates the pairs again.
``dataclasses.replace`` and pickling drop the link.

Evaluable fields (propensity, weight_fn, outcome_mean, outcome_sd) must be
vectorized over numpy arrays with standard broadcasting.  Action identifiers
are distinct real numbers; state values are real numbers as well, which keeps
datasets CSV-serializable.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Union

import numpy as np

from .quadrature import adaptive_simpson
from .rng import make_generator

PROBE_GRID_SIZE = 64
# from this many states on, ``_pair_grid`` copies its action-major values into
# the (n, K) layout one action at a time: numpy's transposing copy runs its
# inner loop over the K actions (at n = 8000 and K = 2 it took 30-60 us
# against 10 us, while one Python step per action costs 1 us; 2-core machine)
COLUMN_COPY_MIN = 256
NORMALIZATION_TOL = 1e-10


class PropensityError(ValueError):
    """Invalid propensity weights at a concrete state.

    Attributes:
        state: the offending state value.
    """

    def __init__(self, message: str, state: float):
        super().__init__(message)
        self.state = state

    def __reduce__(self):
        return type(self), (self.args[0], self.state)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class _SortedKeys:
    """Distinct real values and their sort order, for index lookups."""

    def __init__(self, values: np.ndarray):
        self.order = np.argsort(values)
        self.sorted = values[self.order]

    def find(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the queries among the values, and the mask of queries
        that are not among them (their indices are meaningless)."""
        pos = np.searchsorted(self.sorted, queries)
        miss = self.sorted.take(pos, mode="clip") != queries
        return self.order.take(pos, mode="clip"), miss


@dataclass(frozen=True)
class ActionSpace:
    """Finite action set with a positive base measure lambda."""

    labels: np.ndarray
    base_weights: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=float)
        weights = np.asarray(self.base_weights, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "base_weights", weights)
        if labels.size == 0:
            raise ValueError("action space must be non-empty")
        if len(np.unique(labels)) != labels.size:
            raise ValueError("action identifiers must be distinct")
        if weights.shape != labels.shape:
            raise ValueError("base_weights must match labels in length")
        if not (weights > 0).all():
            raise ValueError("all base weights must be positive")
        object.__setattr__(self, "_keys", _SortedKeys(labels))

    @classmethod
    def counting(cls, labels) -> "ActionSpace":
        labels = np.asarray(labels, dtype=float)
        return cls(labels=labels, base_weights=np.ones_like(labels))

    @property
    def n_actions(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class FiniteStates:
    """Finite state distribution given by atoms and probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.size == 0:
            raise ValueError("finite state space must be non-empty")
        if len(np.unique(values)) != values.size:
            raise ValueError("state values must be distinct")
        if probs.shape != values.shape:
            raise ValueError("probs must match state values in length")
        ok = probs >= 0
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValueError(
                f"state probability of state {values[bad]} is {probs[bad]}, "
                f"not a non-negative number"
            )
        if not abs(float(probs.sum()) - 1.0) <= 1e-12:
            raise ValueError(
                f"state probabilities sum to {probs.sum()}, not 1 within 1e-12"
            )
        object.__setattr__(self, "_keys", _SortedKeys(values))
        # Generator.choice(size, p=probs) draws by this cdf; built once here
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)


@dataclass(frozen=True)
class Continuous1D:
    """Continuous state distribution on [0, 1] with density and sampler.

    ``density`` is vectorized; ``sampler(rng, n)`` returns n draws.
    """

    density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        grid = np.linspace(0.0, 1.0, PROBE_GRID_SIZE)
        dens = np.asarray(self.density(grid), dtype=float)
        if np.any(dens < 0):
            raise ValueError("density must be non-negative on [0, 1]")
        mass = adaptive_simpson(self.density, 0.0, 1.0)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {mass!r}, not 1 within 1e-8")

    @classmethod
    def uniform(cls) -> "Continuous1D":
        return cls(
            density=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            sampler=lambda rng, n: rng.random(n),
        )


StateDistribution = Union[FiniteStates, Continuous1D]


class Pairs(NamedTuple):
    """(state, action) pairs located in an instance: ``ai`` indexes the
    action space, ``si`` a finite instance's states (None on a continuous
    instance, whose functions are evaluated at the states ``x``), and ``p``
    holds the propensity rows pi(x_i, .), shape (n, K)."""

    x: np.ndarray
    a: np.ndarray
    ai: np.ndarray
    si: np.ndarray | None
    p: np.ndarray


@dataclass(frozen=True)
class ProblemInstance:
    """Sampling model plus known (propensity, weight) pair.

    ``propensity(x)`` maps a state vector of shape (n,) to an (n, K) array of
    conditional action densities with respect to the base measure; for every
    state, sum_a lambda(a) * pi(x, a) must equal 1.  ``weight_fn``,
    ``outcome_mean`` and ``outcome_sd`` map broadcastable (x, a) arrays to
    values.  Only Gaussian outcome noise is supported.
    """

    states: StateDistribution
    actions: ActionSpace
    propensity: Callable[[np.ndarray], np.ndarray]
    weight_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    outcome_mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    outcome_sd: Callable[[np.ndarray, np.ndarray], np.ndarray]
    instance_id: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        probe = self.probe_states()
        pmat = np.asarray(self.propensity(probe), dtype=float)
        if pmat.shape != (probe.size, self.actions.n_actions):
            raise ValueError(
                f"propensity(x) must return shape (n, {self.actions.n_actions})"
            )
        positive = pmat > 0
        if not positive.all():
            bad = int(np.argwhere(~positive)[0][0])
            raise PropensityError(
                f"propensity not strictly positive at state {probe[bad]}",
                state=float(probe[bad]),
            )
        norms = pmat @ self.actions.base_weights
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if not abs(norms[worst] - 1.0) <= NORMALIZATION_TOL:
            raise PropensityError(
                f"propensity at state {probe[worst]} has lambda-mass "
                f"{norms[worst]}, not 1 within {NORMALIZATION_TOL}",
                state=float(probe[worst]),
            )
        sd = self._pair_grid(self.outcome_sd, probe)
        if not (sd >= 0).all():
            raise ValueError("outcome_sd must be non-negative")
        weight = self._pair_grid(self.weight_fn, probe)
        mean = self._pair_grid(self.outcome_mean, probe)
        # the checks above already reject a NaN or inf propensity
        for name, grid in (("weight_fn", weight), ("outcome_mean", mean), ("outcome_sd", sd)):
            _require_finite_cells(name, grid, probe, self.actions.labels)
        grids = ()
        if isinstance(self.states, FiniteStates):
            grids = (
                (self.propensity, pmat),
                (self.weight_fn, weight),
                (self.outcome_mean, mean),
                (self.outcome_sd, sd),
            )
        object.__setattr__(self, "_grids", grids)

    # -- evaluation helpers -------------------------------------------------

    def probe_states(self) -> np.ndarray:
        """All states (finite) or 64 equispaced points of [0, 1]."""
        if isinstance(self.states, FiniteStates):
            return self.states.values
        return np.linspace(0.0, 1.0, PROBE_GRID_SIZE)

    def _pair_grid(self, fn, x: np.ndarray) -> np.ndarray:
        """Evaluate fn on the (state grid) x (action) product, as a
        C-contiguous (n, K) array.

        fn runs on the action-major (K, n) grid, so that a broadcast inside
        it loops over the states, not over the few actions.
        """
        x = np.asarray(x, dtype=float)
        shape = (self.actions.n_actions, x.size)
        vals = np.asarray(fn(x[None, :], self.actions.labels[:, None]), dtype=float)
        if vals.shape != shape:
            vals = vals * np.ones(shape)
        if x.size < COLUMN_COPY_MIN:
            return vals.T.copy()
        out = np.empty(shape[::-1])
        for k, row in enumerate(vals):
            out[:, k] = row
        return out

    def propensity_at(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """pi(x_i, a_i) for paired state and action vectors."""
        return _pair_values(self, self.propensity, self.locate(np.atleast_1d(x), np.atleast_1d(a)))

    def action_index(self, a: np.ndarray) -> np.ndarray:
        """Map action labels to their indices in the action space."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        idx, miss = self.actions._keys.find(a)
        if miss.any():
            raise ValueError(f"action {a[miss][0]} not in the instance action space")
        return idx

    def locate(self, x: np.ndarray, a: np.ndarray) -> Pairs:
        """The pairs (x_i, a_i) with their action indices, the propensity
        rows at their states (one evaluation) and, on a finite instance,
        their state indices into its grids.

        An unknown action or state raises as a table lookup does.
        """
        x, a = np.asarray(x, dtype=float), np.asarray(a, dtype=float)
        ai = self.action_index(a)
        if isinstance(self.states, FiniteStates):
            si = _lookup_index(self.states._keys, x)
            return Pairs(x, a, ai, si, self._grid(self.propensity)[si])
        return Pairs(x, a, ai, None, np.asarray(self.propensity(x), dtype=float))

    def _grid(self, fn) -> np.ndarray:
        """fn on every (state, action) pair of a finite instance, shape (S, K):
        the grid kept at construction for a field of the instance, one
        evaluation for any other function."""
        for own, grid in self._grids:
            if fn is own:
                return grid
        return self._pair_grid(fn, self.states.values)

    def lam_inner(self, fn, x: np.ndarray) -> np.ndarray:
        """<fn(x, .), lambda> = sum_a lambda(a) fn(x, a), vectorized in x."""
        return self._pair_grid(fn, x) @ self.actions.base_weights

    def conditional_mean(self, fn, x: np.ndarray) -> np.ndarray:
        """<fn(x, .), pi(x, .)> = sum_a lambda(a) pi(x, a) fn(x, a)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pmat = np.asarray(self.propensity(x), dtype=float)
        vals = self._pair_grid(fn, x)
        return (pmat * vals) @ self.actions.base_weights

    def state_expectation(self, fn) -> float | np.ndarray:
        """E_X[fn(X)] for a vectorized state function: a float when ``fn``
        maps m states to m values, an array of shape (...) when it returns
        shape (m, ...), with every component on one quadrature mesh to the
        absolute tolerance ``quadrature.DEFAULT_TOL``."""
        if isinstance(self.states, FiniteStates):
            vals = np.asarray(fn(self.states.values), dtype=float)
            value = np.tensordot(self.states.probs, vals, axes=1)
            return float(value) if value.ndim == 0 else value
        dens = self.states.density
        # the density scales axis 0, the states' axis
        return adaptive_simpson(
            lambda x: (dens(x) * np.asarray(fn(x), dtype=float).T).T, 0.0, 1.0
        )

    # -- construction from tables -------------------------------------------

    @classmethod
    def from_tables(
        cls,
        states,
        probs,
        actions,
        propensity_table,
        weight_table,
        outcome_mean_table,
        outcome_sd_table,
        base_weights=None,
        instance_id: str = "finite",
    ) -> "ProblemInstance":
        """Finite instance from per-(state, action) tables.

        Tables are (n_states, n_actions) arrays aligned with the given state
        values and action labels.  A non-finite entry raises naming the table
        and its (state, action) cell.
        """
        states = np.asarray(states, dtype=float)
        action_space = (
            ActionSpace.counting(actions)
            if base_weights is None
            else ActionSpace(np.asarray(actions, dtype=float), np.asarray(base_weights, dtype=float))
        )
        finite = FiniteStates(states, np.asarray(probs, dtype=float))
        labels = action_space.labels
        tables = {}
        for name, table in (
            ("propensity", propensity_table),
            ("weight", weight_table),
            ("outcome_mean", outcome_mean_table),
            ("outcome_sd", outcome_sd_table),
        ):
            table = np.array(table, dtype=float)
            if table.shape != (states.size, labels.size):
                raise ValueError(
                    f"{name} table has shape {table.shape}, "
                    f"expected ({states.size}, {labels.size})"
                )
            _require_finite_cells(f"{name} table", table, states, labels)
            tables[name] = table

        keys = (finite._keys, action_space._keys)
        return cls(
            states=finite,
            actions=action_space,
            propensity=_TablePropensity(finite._keys, tables["propensity"]),
            weight_fn=_TablePairFn(keys, tables["weight"]),
            outcome_mean=_TablePairFn(keys, tables["outcome_mean"]),
            outcome_sd=_TablePairFn(keys, tables["outcome_sd"]),
            instance_id=instance_id,
            meta={
                "kind": "finite",
                "tables": {
                    "states": states.tolist(),
                    "probs": finite.probs.tolist(),
                    "actions": labels.tolist(),
                    "base_weights": action_space.base_weights.tolist(),
                    **{name: table.tolist() for name, table in tables.items()},
                },
            },
        )


def _require_finite_cells(name: str, grid: np.ndarray, states, labels) -> None:
    """Reject a NaN or inf entry of a (state, action) grid, naming its cell."""
    finite = np.isfinite(grid)
    if not finite.all():
        i, k = np.argwhere(~finite)[0]
        raise ValueError(
            f"{name} is not finite at (state {states[i]}, action {labels[k]}): {grid[i, k]}"
        )


def _lookup_index(keys: _SortedKeys, queries: np.ndarray) -> np.ndarray:
    idx, miss = keys.find(queries)
    if miss.any():
        raise KeyError(f"value {queries[miss][0]} not found in table")
    return idx


class _TablePairFn:
    """Broadcasting (x, a) -> table[x, a] lookup for finite instances."""

    def __init__(self, keys: tuple[_SortedKeys, _SortedKeys], table: np.ndarray):
        self.keys = keys
        self.table = table

    def __call__(self, x, a):
        x, a = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(a, dtype=float))
        si = _lookup_index(self.keys[0], x.ravel()).reshape(x.shape)
        ai = _lookup_index(self.keys[1], a.ravel()).reshape(a.shape)
        return self.table[si, ai]


class _TablePropensity:
    """x -> full propensity row, preserving the action-space column order."""

    def __init__(self, states: _SortedKeys, table: np.ndarray):
        self.states = states
        self.table = table

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.table[_lookup_index(self.states, x)]


@dataclass(frozen=True)
class Dataset:
    """Observed (state, action, outcome) triples with provenance.

    A sampled dataset also holds the instance object that drew it and the
    ``Pairs`` it was drawn as (see ``_located``); that link is not a field,
    so it is not compared, shown or copied by ``dataclasses.replace``, and
    pickling drops it.  Its arrays are not to be written in place.
    """

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    seed: int
    instance_id: str

    # (instance, pairs) of a sampled dataset
    _drawn = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        a = np.asarray(self.a, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        if not (x.shape == a.shape == y.shape) or x.ndim != 1:
            raise ValueError("x, a, y must be equal-length vectors")
        if x.size < 1:
            raise ValueError("dataset must contain at least one triple")
        finite = np.isfinite(x) & np.isfinite(a) & np.isfinite(y)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(
                f"dataset row {row} is not finite: "
                f"(x, a, y) = ({x[row]}, {a[row]}, {y[row]})"
            )

    def __len__(self) -> int:
        return int(self.x.size)

    def __getstate__(self):
        # builtin instances hold closures, which do not pickle
        state = dict(self.__dict__)
        state.pop("_drawn", None)
        return state


def _located(instance: ProblemInstance, data: Dataset) -> Pairs:
    """The dataset's pairs in the instance: the pairs it was drawn as when
    ``instance`` is the object that sampled it, else located afresh."""
    drawn = data._drawn
    if drawn is not None and drawn[0] is instance:
        return drawn[1]
    return instance.locate(data.x, data.a)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _draw_pairs(instance: ProblemInstance, n: int, rng: np.random.Generator) -> Pairs:
    """Draw n states from the state law, then an action from pi(X, .) each,
    as located pairs.

    The generator is advanced by one ``rng.random(n)`` searched in the state
    cdf (the steps of ``rng.choice(size, p=probs)``, finite states) or by the
    state sampler, then by one ``rng.random(n)``.
    """
    if isinstance(instance.states, FiniteStates):
        si = instance.states._cdf.searchsorted(rng.random(n), side="right")
        x = instance.states.values[si]
        pmat = instance._grid(instance.propensity)[si]
    else:
        si = None
        x = np.asarray(instance.states.sampler(rng, n), dtype=float)
        pmat = np.asarray(instance.propensity(x), dtype=float)
    weights = instance.actions.base_weights
    # lambda(a) pi(x, a), one column per action
    joint = [pmat[:, k] * weights[k] for k in range(weights.size)]
    if not all(col.min() >= 0 for col in joint):
        bad = int(np.argmin(np.logical_and.reduce([col >= 0 for col in joint])))
        raise PropensityError(
            f"negative action probability at sampled state {x[bad]}",
            state=float(x[bad]),
        )
    # the action is the number of partial sums below u, except the last one;
    # adding the columns in order gives np.cumsum's partial sums bit for bit
    u = rng.random(n)
    acc = joint[0]  # summed into in place; joint is not read again
    ai = np.zeros(n, dtype=np.intp)
    for col in joint[1:]:
        ai += acc < u
        acc += col
    deviation = np.abs(acc - 1.0)
    worst = int(np.argmax(deviation))
    if not deviation[worst] <= NORMALIZATION_TOL:
        raise PropensityError(
            f"propensity at sampled state {x[worst]} has mass {acc[worst]}",
            state=float(x[worst]),
        )
    return Pairs(x, instance.actions.labels[ai], ai, si, pmat)


def sample_dataset(instance: ProblemInstance, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. triples: X from the state law, A from pi(X, .), then
    Y = mu(X, A) + sd(X, A) * Z with standard normal Z.

    Deterministic given (instance, n, seed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = make_generator(seed)
    pairs = _draw_pairs(instance, n, rng)
    mu = _pair_values(instance, instance.outcome_mean, pairs)
    sd = _pair_values(instance, instance.outcome_sd, pairs)
    y = mu + sd * rng.standard_normal(n)
    data = Dataset(x=pairs.x, a=pairs.a, y=y, seed=int(seed), instance_id=instance.instance_id)
    object.__setattr__(data, "_drawn", (instance, pairs))
    return data


def _pair_values(instance: ProblemInstance, fn, pairs: Pairs) -> np.ndarray:
    """fn(x_i, a_i) for every pair; ``fn`` may be the propensity, read from
    the pairs' rows.  A finite instance reads its grid by index, a
    continuous one evaluates fn at the pairs."""
    if fn is instance.propensity:
        return pairs.p[np.arange(pairs.x.size), pairs.ai]
    if pairs.si is not None:
        return instance._grid(fn)[pairs.si, pairs.ai]
    vals = np.asarray(fn(pairs.x, pairs.a), dtype=float)
    return vals if vals.shape == pairs.x.shape else vals * np.ones(pairs.x.size)


def _pair_rows(instance: ProblemInstance, fn, pairs: Pairs) -> np.ndarray:
    """fn(x_i, a) for every pair's state and every action a, shape (n, K);
    the pairs' propensity rows when fn is ``instance.propensity``."""
    if fn is instance.propensity:
        return pairs.p
    if pairs.si is not None:
        return instance._grid(fn)[pairs.si]
    return instance._pair_grid(fn, pairs.x)


def _values_and_rows(instance: ProblemInstance, fn, pairs: Pairs):
    """``_pair_values`` and ``_pair_rows`` of fn from one evaluation of fn:
    the values are picked from the rows."""
    rows = _pair_rows(instance, fn, pairs)
    return rows[np.arange(pairs.x.size), pairs.ai], rows


def _likelihood_ratio(instance: ProblemInstance, pairs: Pairs, g_vals=None) -> np.ndarray:
    """g/pi at located pairs, from g's values there when given; zero
    propensity raises naming the pair."""
    pi_vals = _pair_values(instance, instance.propensity, pairs)
    if g_vals is None:
        g_vals = _pair_values(instance, instance.weight_fn, pairs)
    positive = pi_vals > 0
    if not positive.all():
        bad = int(np.argmin(positive))
        raise ValueError(
            f"propensity is not positive at observed pair "
            f"(x={pairs.x[bad]}, a={pairs.a[bad]})"
        )
    return g_vals / pi_vals


# ---------------------------------------------------------------------------
# Exact functionals
# ---------------------------------------------------------------------------


def weight_inner(instance: ProblemInstance, mu, x: np.ndarray) -> np.ndarray:
    """<g(x, .), mu(x, .)>_lambda = sum_a lambda(a) g(x, a) mu(x, a), vectorized in x."""
    g = instance.weight_fn
    return instance.lam_inner(
        lambda xs, a: np.asarray(g(xs, a)) * np.asarray(mu(xs, a)), x
    )


def true_functional(instance: ProblemInstance) -> float:
    """tau = sum_a lambda(a) E_X[g(X, a) mu(X, a)], computed exactly."""
    return instance.state_expectation(lambda x: weight_inner(instance, instance.outcome_mean, x))


def weighted_norm(instance: ProblemInstance, h) -> float:
    """||h||_w = sqrt( sum_a lambda(a) E_X[g^2/pi * h^2] )."""

    def integrand(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pmat = np.asarray(instance.propensity(x), dtype=float)
        gvals = instance._pair_grid(instance.weight_fn, x)
        hvals = instance._pair_grid(h, x)
        return (gvals**2 / pmat * hvals**2) @ instance.actions.base_weights

    val = instance.state_expectation(integrand)
    return float(np.sqrt(max(val, 0.0)))


def efficient_variance(instance: ProblemInstance) -> float:
    """Semiparametric variance floor: Var_X(<g, mu>) + ||sd||_w^2."""
    ip = lambda x: weight_inner(instance, instance.outcome_mean, x)
    mean = instance.state_expectation(ip)
    second = instance.state_expectation(lambda x: ip(x) ** 2)
    between = max(second - mean**2, 0.0)
    return float(between + weighted_norm(instance, instance.outcome_sd) ** 2)


def optimal_auxiliary(instance: ProblemInstance) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Variance-minimizing auxiliary (x, a) -> g*mu/pi minus its action inner
    product, which has zero conditional mean under the propensity."""
    g, mu = instance.weight_fn, instance.outcome_mean

    def fn(x, a):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        xb, ab = np.broadcast_arrays(x, a)
        flat_x = xb.ravel()
        flat_a = ab.ravel()
        pi_vals = instance.propensity_at(flat_x, flat_a)
        lead = (
            np.asarray(g(flat_x, flat_a), dtype=float)
            * np.asarray(mu(flat_x, flat_a), dtype=float)
            / pi_vals
        )
        ip = weight_inner(instance, mu, flat_x)
        return (lead - ip).reshape(xb.shape)

    return fn


class ExcessVariance(NamedTuple):
    value: float
    gap: float


def excess_variance(instance: ProblemInstance, mubar) -> ExcessVariance:
    """Mean conditional variance of (g/pi)(mu - mubar) given the state.

    Returns the pair (value, gap) where gap = ||mubar - mu||_w^2 - value
    = E_X[ <g(X, .), (mu - mubar)(X, .)>^2 ], both computed exactly.
    """
    mu = instance.outcome_mean

    def diff(x, a):
        return np.asarray(mu(x, a), dtype=float) - np.asarray(mubar(x, a), dtype=float)

    norm_sq = weighted_norm(instance, diff) ** 2
    gap = instance.state_expectation(lambda x: weight_inner(instance, diff, x) ** 2)
    gap = max(float(gap), 0.0)
    return ExcessVariance(value=max(norm_sq - gap, 0.0), gap=gap)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def instance_to_json(instance: ProblemInstance) -> dict:
    """Structured description: finite tables, or a named builtin with params."""
    meta = instance.meta or {}
    if meta.get("kind") == "finite":
        out: dict[str, Any] = {"kind": "finite", "instance_id": instance.instance_id}
        out.update(meta["tables"])
        return out
    if meta.get("kind") == "builtin":
        return {
            "kind": "builtin",
            "name": meta["name"],
            "params": dict(meta["params"]),
            "instance_id": instance.instance_id,
        }
    raise ValueError(
        "only table-backed finite instances and named builtins are serializable"
    )


def finite_instance_from_json(doc: dict) -> ProblemInstance:
    if doc.get("kind") != "finite":
        raise ValueError(f"expected kind 'finite', got {doc.get('kind')!r}")
    return ProblemInstance.from_tables(
        states=doc["states"],
        probs=doc["probs"],
        actions=doc["actions"],
        base_weights=doc.get("base_weights"),
        propensity_table=doc["propensity"],
        weight_table=doc["weight"],
        outcome_mean_table=doc["outcome_mean"],
        outcome_sd_table=doc["outcome_sd"],
        instance_id=doc.get("instance_id", "finite"),
    )


def write_dataset_csv(data: Dataset, path) -> None:
    """CSV with columns x,a,y and a header comment carrying provenance."""
    with open(path, "w", newline="\n") as fh:
        _write_dataset(data, fh)


def dataset_to_csv(data: Dataset) -> str:
    buf = io.StringIO()
    _write_dataset(data, buf)
    return buf.getvalue()


def _write_dataset(data: Dataset, fh) -> None:
    fh.write(f"# seed={data.seed} instance_id={data.instance_id}\n")
    fh.write("x,a,y\n")
    for xi, ai, yi in zip(data.x, data.a, data.y):
        fh.write(f"{float(xi)!r},{float(ai)!r},{float(yi)!r}\n")


def read_dataset_csv(path) -> Dataset:
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    seed, instance_id = 0, "unknown"
    rows = []
    for ln in lines:
        if not ln:
            continue
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if tok.startswith("seed="):
                    seed = int(tok[5:])
                elif tok.startswith("instance_id="):
                    instance_id = tok[len("instance_id="):]
            continue
        if ln.startswith("x,"):
            continue
        rows.append([float(v) for v in ln.split(",")])
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        raise ValueError(f"no data rows in {path}")
    return Dataset(
        x=arr[:, 0], a=arr[:, 1], y=arr[:, 2], seed=seed, instance_id=instance_id
    )


def save_instance(instance: ProblemInstance, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(instance_to_json(instance), fh, indent=2)
        fh.write("\n")
