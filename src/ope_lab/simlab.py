"""Experiment harness reproducing the missing-data simulation study.

The built-in instance family models a missing-data problem on [0, 1]:
binary action a in {0, 1} flags whether the outcome is observed, the weight
function is g(x, a) = a, the outcome mean is the tent function on the
observed arm, and the noise scale is sigma0 * pi(x, 1)^(gamma/2).  Two
propensity shapes are provided: "pi1" dips to pi_min at x = 1/2 where the
tent peaks (hard), "pi2" dips at x = 1 where the tent vanishes (easy).

``run_experiment`` runs a (estimator x sample size) grid of seeded Monte
Carlo cells and reports the n-rescaled mean squared error per cell.  IPW
and the oracle fit no first stage: each is the mean of one influence vector,
so a run draws and scores their replications in blocks, R datasets laid end
to end as one array program (``BLOCK_DRAWS``).  ``threads`` is a budget:
when some estimator fits a first stage, or the cells draw at least
``POOL_MIN_DRAWS`` samples in all, the replications run in that many forked
worker processes, which inherit the caller's instance at fork; otherwise
they run in the caller, where a pool would cost more than the work.  The
contiguous chunks of every cell's seeds form one task list in config order,
and results are read back in that order.  Results are byte-deterministic
for a fixed master seed regardless of the worker count and the blocks:
replication r of a cell always uses the substream addressed by
(master_seed, estimator, n, r), and cells reduce over replications in index
order.
"""

from __future__ import annotations

import contextlib
import functools
import json
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (patched by benchmarks/tracing.py)
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import core, estimators
from .core import Continuous1D, Dataset, ProblemInstance, sample_dataset
from .regression import DEFAULT_LAMBDA_GRID, _require_ridge_levels
from .rng import mix_seed

PI_MIN_DEFAULT = 0.005
SIGMA0_DEFAULT = 1.0
RESULTS_HEADER = "instance_id,estimator,n,reps,normalized_mse,mc_stderr,master_seed"
# each cell's replications go to the workers in this many chunks per worker
CHUNKS_PER_WORKER = 4
# IPW and the oracle draw and score a chunk's replications in blocks of at
# most this many samples (at least one replication): at n = 8000, blocks of
# 25 replications slowed the hard study's baseline from 396 to 569 ms at
# threads 1, and blocks of 2048 or 8192 samples were neutral (2-core machine)
BLOCK_DRAWS = 8192
# with threads > 1, cells without a first stage fork workers only from this
# many samples drawn in all: the 64,000 of the small finite benchmark's
# simulate took 47-74 ms in blocks in a pool of two, and 25-43 ms in the
# caller (2-core machine)
POOL_MIN_DRAWS = 1 << 18
# mallopt parameters from glibc's malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


class CellError(RuntimeError):
    """A Monte Carlo cell failed; carries the (estimator, n) identity."""

    def __init__(self, message: str, estimator: str, n: int):
        super().__init__(message)
        self.estimator = estimator
        self.n = n

    def __reduce__(self):
        return type(self), (self.args[0], self.estimator, self.n)


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------


def _tent(x):
    x = np.asarray(x, dtype=float)
    return 0.5 - np.abs(x - 0.5)


def _propensity_curve(name: str, pi_min: float) -> Callable[[np.ndarray], np.ndarray]:
    if name == "pi1":
        return lambda x: 0.5 - (0.5 - pi_min) * np.sin(np.pi * np.asarray(x, dtype=float))
    if name == "pi2":
        return lambda x: 0.5 - (0.5 - pi_min) * np.sin(np.pi * np.asarray(x, dtype=float) / 2.0)
    raise ValueError(f"unknown propensity {name!r}; use 'pi1' or 'pi2'")


def build_builtin_instance(
    propensity: str = "pi1",
    gamma: float = 0.0,
    sigma0: float = SIGMA0_DEFAULT,
    pi_min: float = PI_MIN_DEFAULT,
) -> ProblemInstance:
    """Missing-data instance: uniform states, g(x, a) = a, tent outcome mean.

    The unobserved arm carries mean and noise 0; the weight function
    annihilates it everywhere it could matter.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    # the curve's floor: 0 would make the propensity vanish, above 0.5 it is the maximum
    if not 0.0 < pi_min <= 0.5:
        raise ValueError(f"pi_min must lie in (0, 0.5], got {pi_min}")
    curve = _propensity_curve(propensity, pi_min)

    def prop_matrix(x):
        p1 = curve(np.atleast_1d(np.asarray(x, dtype=float)))
        return np.stack([1.0 - p1, p1], axis=-1)

    def outcome_mean(x, a):
        return np.asarray(a, dtype=float) * _tent(x)

    def outcome_sd(x, a):
        x = np.asarray(x, dtype=float)
        if gamma == 0.0:  # pi ** 0.0 is exactly 1: the curve is not needed
            return np.asarray(a, dtype=float) * sigma0 * np.ones_like(x)
        return np.asarray(a, dtype=float) * sigma0 * curve(x) ** (gamma / 2.0)

    instance_id = f"missing-data-{propensity}-gamma{gamma:g}-sigma{sigma0:g}"
    return ProblemInstance(
        states=Continuous1D.uniform(),
        actions=core.ActionSpace.counting([0.0, 1.0]),
        propensity=prop_matrix,
        weight_fn=lambda x, a: np.asarray(a, dtype=float) * np.ones_like(np.asarray(x, dtype=float)),
        outcome_mean=outcome_mean,
        outcome_sd=outcome_sd,
        instance_id=instance_id,
        meta={
            "kind": "builtin",
            "name": "missing-data",
            "params": {
                "propensity": propensity,
                "gamma": gamma,
                "sigma0": sigma0,
                "pi_min": pi_min,
            },
        },
    )


def load_instance(path) -> ProblemInstance:
    """Load an instance description (finite tables or named builtin)."""
    with open(path) as fh:
        doc = json.load(fh)
    return instance_from_json(doc)


def instance_from_json(doc: dict) -> ProblemInstance:
    kind = doc.get("kind")
    if kind == "finite":
        return core.finite_instance_from_json(doc)
    if kind == "finite-custom":
        return load_instance(doc["path"])
    if kind == "builtin":
        if doc.get("name") != "missing-data":
            raise ValueError(f"unknown builtin {doc.get('name')!r}")
        return build_builtin_instance(**doc.get("params", {}))
    raise ValueError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


def _whole_number(name: str, value) -> int:
    """``value`` as an int; a fractional, non-finite or non-numeric value
    raises naming the field."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not number.is_integer():
        raise ValueError(f"{name} is {value}, not a whole number")
    return int(number)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of (estimator, sample size) Monte Carlo cells on one instance.

    ``threads`` is a budget of worker processes; 1 runs in the caller, and
    so does a config whose estimators fit no first stage and whose cells
    draw fewer than ``POOL_MIN_DRAWS`` samples in all (reps x estimators x
    the sum of n_grid).
    """

    instance: dict
    estimators: tuple = ("oracle",)
    n_grid: tuple = (500, 1000, 2000, 4000, 8000)
    reps: int = 200
    folds: int = 5
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    master_seed: int = 0
    output: str | None = None
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        n_grid = tuple(_whole_number(f"n_grid[{i}]", n) for i, n in enumerate(self.n_grid))
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        for name in ("reps", "folds", "master_seed", "threads"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        _require_ridge_levels("lambda_grid", self.lambda_grid)
        for name in ("estimators", "n_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for i, n in enumerate(self.n_grid):
            if n < 1 or (i and n <= self.n_grid[i - 1]):
                raise ValueError(f"n_grid[{i}] is {n}; n_grid must increase strictly from 1 or more")
        for i, est in enumerate(self.estimators):
            if est not in estimators.ESTIMATOR_IDS:
                known = estimators.ESTIMATOR_IDS
                raise ValueError(f"unknown estimator {est!r}; known: {known}")
            if est in self.estimators[:i]:
                raise ValueError(f"estimators[{i}] repeats {est!r}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON document gives; a key that names no field raises."""
        names = [f.name for f in fields(cls)]
        unknown = [key for key in doc if key not in names]
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; known: {names}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ResultRow:
    instance_id: str
    estimator: str
    n: int
    reps: int
    normalized_mse: float
    mc_stderr: float
    master_seed: int

    def __post_init__(self):
        for name in ("normalized_mse", "mc_stderr"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value} "
                    f"(estimator={self.estimator}, n={self.n})"
                )

    def csv_row(self) -> str:
        return (
            f"{self.instance_id},{self.estimator},{self.n},{self.reps},"
            f"{self.normalized_mse:.10g},{self.mc_stderr:.10g},{self.master_seed}"
        )


@dataclass
class ResultsTable:
    rows: list = field(default_factory=list)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: (r.estimator, r.n))

    def to_csv(self) -> str:
        lines = [RESULTS_HEADER]
        lines.extend(row.csv_row() for row in self.sorted_rows())
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultsTable):
            return NotImplemented
        return self.to_csv() == other.to_csv()


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _run_rep(
    estimator: str,
    instance: ProblemInstance,
    n: int,
    rep_seed: int,
    tau_star: float,
    first_stage: tuple | None,
) -> float:
    """Squared error of one replication; ``first_stage`` is (lambda_grid,
    folds) for an estimator that fits a first stage, None for the others."""
    data: Dataset = sample_dataset(instance, n, seed=rep_seed)
    # only a first stage reads the fold seed: IPW and the oracle skip its hash
    extra = () if first_stage is None else (mix_seed(rep_seed, "two-stage"), *first_stage)
    report = estimators.estimate(estimator, data, instance, *extra)
    return (report.tau_hat - tau_star) ** 2


def _run_reps(instance, task) -> list:
    """Squared errors of one task's replications, in seed order; a task is
    (estimator, n, seeds, tau_star, first_stage) as ``_run_rep`` reads them.

    An estimator without a first stage draws and scores the replications in
    blocks of ``BLOCK_DRAWS`` samples, bit for bit as ``_run_rep`` would; each
    block makes its replications' checks, and raises the first that fails.
    """
    estimator, n, seeds, tau_star, first_stage = task
    if first_stage is not None:
        return [_run_rep(estimator, instance, n, seed, tau_star, first_stage) for seed in seeds]
    per_block = max(1, BLOCK_DRAWS // n)
    sq = []
    for lo in range(0, len(seeds), per_block):
        rngs = [core.make_generator(seed) for seed in seeds[lo:lo + per_block]]
        pairs, y = core._draw(instance, n, *rngs)
        core._require_finite_rows(pairs.x, pairs.a, y, n)
        tau_hat = estimators.block_estimates(estimator, instance, pairs, y, n)
        # squared as Python floats, as ``_run_rep`` squares them
        sq.extend(d**2 for d in (tau_hat - tau_star).tolist())
    return sq


# the instance of a worker process, set by ``_start_worker`` in workers only
_worker_instance: ProblemInstance | None = None


def _start_worker(instance: ProblemInstance) -> None:
    """Pool initializer: a forked worker inherits the caller's instance
    without pickling it (builtin instances hold closures), so it is only
    stored.  The worker also keeps its heap: by default glibc returns a
    free heap top past 128 KB, so a worker could fault each replication's
    arrays in afresh (43k against 6k page faults per round of the hard
    study at n up to 8000, about 5% of the workers' CPU, 2-core machine).
    """
    import ctypes

    global _worker_instance
    _worker_instance = instance
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, 16 << 20)  # blocks below 16 MB come from the heap
        libc.mallopt(M_TRIM_THRESHOLD, 32 << 20)  # up to 32 MB stays free at its top
    except (OSError, AttributeError):  # no glibc malloc
        pass


def _run_chunk(task) -> list:
    """One task of a worker process: ``_run_reps`` on its own instance."""
    return _run_reps(_worker_instance, task)


@contextlib.contextmanager
def _process_pool(instance: ProblemInstance, workers: int):
    """``workers`` forked processes, each holding ``instance``.

    Fork, not spawn: a forked worker inherits every module the caller has
    loaded, while a spawned one imports numpy afresh (a pool of two took
    0.8 s to start against 0.02 s forked, 2-core machine) and would need the
    instance pickled.  A module the caller has not loaded is imported again
    in every worker of every pool, so ``run_experiment`` loads
    ``scipy.linalg`` (0.25 s, 27 MB) before a pool that runs first-stage
    cells.  Forking is unsafe while the caller runs other threads.
    """
    # imported on first use (``futures.ProcessPoolExecutor`` is lazy too):
    # the process machinery adds 0.3 MB and 10 ms that runs in the caller
    # need not pay
    import multiprocessing

    pool = futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(instance,),
    )
    try:
        yield pool
    finally:
        # after a failed cell, the chunks still queued are not wanted
        pool.shutdown(cancel_futures=True)


def _chunks(seeds: list, parts: int) -> list:
    """``seeds`` cut into at most ``parts`` contiguous non-empty runs."""
    parts = min(parts, len(seeds))
    bounds = [len(seeds) * i // parts for i in range(parts + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _workers(config: ExperimentConfig) -> int:
    """The worker processes the config pays for: its ``threads`` when some
    estimator fits a first stage or the cells draw at least
    ``POOL_MIN_DRAWS`` samples in all, else 1, the caller."""
    first_stage = any(estimators.NAMED_ESTIMATORS[e] for e in config.estimators)
    draws = config.reps * len(config.estimators) * sum(config.n_grid)
    return config.threads if first_stage or draws >= POOL_MIN_DRAWS else 1


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Run every (estimator, n) cell of the config.

    normalized_mse is n times the Monte Carlo mean of the squared error;
    mc_stderr is n times the standard deviation of the squared errors over
    sqrt(reps) (zero for a single replication).  A failed cell aborts the
    run, naming the cell; with several failed cells, the first in config
    order is named.
    """
    instance = instance_from_json(config.instance)
    tau_star = core.true_functional(instance)
    workers = _workers(config)
    cells = [
        (
            estimator,
            n,
            _chunks(
                [mix_seed(config.master_seed, estimator, n, rep) for rep in range(config.reps)],
                CHUNKS_PER_WORKER * workers if workers > 1 else 1,
            ),
            (config.lambda_grid, config.folds) if estimators.NAMED_ESTIMATORS[estimator] else None,
        )
        for estimator in config.estimators
        for n in config.n_grid
    ]
    tasks = [
        (estimator, n, chunk, tau_star, first_stage)
        for estimator, n, chunks, first_stage in cells
        for chunk in chunks
    ]
    # loaded once here for the first stage's solve: forked workers inherit it
    if workers > 1 and any(estimators.NAMED_ESTIMATORS[e] for e in config.estimators):
        import scipy.linalg  # noqa: F401
    table = ResultsTable()
    # one pool serves every cell; a single worker runs in the caller
    with (
        _process_pool(instance, workers) if workers > 1 else contextlib.nullcontext()
    ) as pool:
        # the chunks' results in task order; ``pool.map`` queues every chunk
        # at once and cancels those still queued when one raises
        results = (
            map(functools.partial(_run_reps, instance), tasks)
            if pool is None
            else pool.map(_run_chunk, tasks)
        )
        for estimator, n, chunks, _ in cells:
            try:
                sq = np.asarray([v for _ in chunks for v in next(results)])
            except Exception as exc:
                raise CellError(
                    f"cell (estimator={estimator}, n={n}) failed: {exc}",
                    estimator=estimator,
                    n=n,
                ) from exc
            mean, var = core._mean_and_variance(sq)
            table.rows.append(
                ResultRow(
                    instance_id=instance.instance_id,
                    estimator=estimator,
                    n=n,
                    reps=config.reps,
                    normalized_mse=n * mean,
                    mc_stderr=float(n * np.sqrt(var) / np.sqrt(config.reps)),
                    master_seed=config.master_seed,
                )
            )
    return table


# ---------------------------------------------------------------------------
# Results I/O
# ---------------------------------------------------------------------------


def write_results_csv(table: ResultsTable, path) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(table.to_csv())
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results_csv(path) -> ResultsTable:
    """The table in a ``write_results_csv`` file.  A row that is not seven
    fields, or a field that does not parse, raises ``ValueError`` naming the
    path and the 1-based line."""
    with open(path) as fh:
        lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != RESULTS_HEADER:
        raise ValueError(f"{path} does not carry the results header")
    table = ResultsTable()
    for line_no, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != 7:
                raise ValueError(f"{len(parts)} fields, not the 7 of the results header")
            table.rows.append(
                ResultRow(
                    instance_id=parts[0],
                    estimator=parts[1],
                    n=int(parts[2]),
                    reps=int(parts[3]),
                    normalized_mse=float(parts[4]),
                    mc_stderr=float(parts[5]),
                    master_seed=int(parts[6]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from exc
    return table
