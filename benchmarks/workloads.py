"""The benchmark's workloads.

Each workload has a ``setup`` (import-time objects, instances and configs:
what ``setup_s`` measures) and a ``run_round`` that makes one fixed set of
calls into the public functions of ``ope_lab``.  Every round of a run repeats
the same calls on the same inputs, so rounds can be compared byte for byte
and every run attempts whole rounds.  ``verify_round`` makes the calls that
only the checks need, once per run and outside the timed rounds.
``extract`` turns a round's raw results into plain data, outside the timed
part, for the checks in ``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ope_lab import cli, complexity, core, estimators, lowerbounds, regression, simlab
from references import crit02_tables

HARD_INSTANCE = {
    "kind": "builtin",
    "name": "missing-data",
    "params": {"propensity": "pi1", "gamma": 0.0, "sigma0": 0.15},
}
# the acceptance suite's widened cross-validation grid, logspace(-1, 6)
WIDE_GRID = [float(v) for v in np.logspace(-1.0, 6.0, 15)]
THREADS = 2

# study-hard: the four estimators of the hard study.  The baselines are cheap,
# so they run with enough replications for their MSE checks to have power;
# the two-stage estimators carry the cost.  A second two-stage call at
# n = 2000, under its own master seed, gives the two-stage-below-IPW check
# enough replications to have power; it runs once per run, untimed.
STUDY_N_GRID = [500, 2000, 8000]
BASELINE_REPS = 200
TWO_STAGE_REPS = 3
POWER_N, POWER_REPS = 2000, 12

# smalln-finite
SMALLN_N_GRID = [16, 64]
SMALLN_REPS = 400
CRIT02_N, CRIT02_REPS = 16, 1000
CRIT07_N, CRIT07_REPS = 50, 400

# theory-diag
RADIUS_M = 2000
RADIUS_REPS = 100
SHATTER_HADAMARD_P = 16
SHATTER_SPARSE = (8, 2)
TILT_N = 64
PAIR_N = 100
MIXTURE_S, MIXTURE_DELTA, MIXTURE_REPS = 0.25, 1.0, 1000
CHECK_PATTERNS = 64


def finite_tables(sd: float) -> dict:
    """The acceptance suite's two-state instance with noise scale ``sd``."""
    return {
        "kind": "finite",
        "instance_id": f"d1-sigma{sd:g}",
        "states": [0.0, 1.0],
        "probs": [0.5, 0.5],
        "actions": [0.0, 1.0],
        "base_weights": [1.0, 1.0],
        "propensity": [[0.8, 0.2], [0.4, 0.6]],
        "weight": [[-1.0, 1.0], [-1.0, 1.0]],
        "outcome_mean": [[1.0, 2.0], [0.0, 3.0]],
        "outcome_sd": [[sd, sd], [sd, sd]],
    }


def data_seed(seed: int, stream: int, rep: int) -> int:
    """Dataset seed for replication ``rep`` of a benchmark loop."""
    return (seed * 8 + stream) * 10**7 + rep


@dataclass
class Round:
    """Raw results of one round, and its operation accounting."""

    raw: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def call(self, key: str, fn, count: int = 1, numeric: bool = False):
        """Run one operation.  A raise counts ``count`` operations as failed,
        and so does a non-finite result when the result is ``numeric``."""
        self.attempted += count
        try:
            value = fn()
        except Exception as exc:  # accounted as failed, reported in the summary
            self.failed += count
            self.raw[key] = exc
            return
        if numeric and not _finite(value):
            self.failed += count
        self.raw[key] = value

    def ok(self, key: str) -> bool:
        return key in self.raw and not isinstance(self.raw[key], Exception)


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


class _Simulate:
    """``ope-lab simulate`` run in process through the command-line entry."""

    def __init__(self, workdir, name: str, config: dict, seed: int):
        self.path = workdir / f"{name}.json"
        self.out = workdir / f"{name}.csv"
        self.path.write_text(json.dumps(config))
        self.seed = seed
        self.threads = config["threads"]
        self.replications = config["reps"] * len(config["estimators"]) * len(config["n_grid"])

    def __call__(self) -> str:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(
                [
                    "simulate", "--config", str(self.path), "--seed", str(self.seed),
                    "--out", str(self.out), "--threads", str(self.threads),
                ]
            )
        if code != 0:
            raise RuntimeError(f"simulate exited {code}: {err.getvalue().strip()}")
        return self.out.read_text()

    def run_into(self, rnd: Round, key: str) -> None:
        """One call; a failed call fails all its replications, a row with a
        non-finite value fails that cell's replications."""
        rnd.call(key, self, count=self.replications)
        text = rnd.raw[key]
        if isinstance(text, str):
            for line in text.splitlines()[1:]:
                parts = line.split(",")
                if not (_finite(float(parts[4])) and _finite(float(parts[5]))):
                    rnd.failed += int(parts[3])


class StudyHard:
    """The hard missing-data study, through ``ope-lab simulate``."""

    name = "study-hard"
    check_config = {
        "n_grid": STUDY_N_GRID, "baseline_reps": BASELINE_REPS,
        "power_n": POWER_N, "power_reps": POWER_REPS,
    }

    def setup(self, seed: int, workdir, threads: int = THREADS) -> None:
        self.instance = simlab.instance_from_json(HARD_INSTANCE)
        common = {
            "instance": HARD_INSTANCE,
            "n_grid": STUDY_N_GRID,
            "folds": 5,
            "lambda_grid": WIDE_GRID,
            "threads": threads,
        }
        self.baseline = _Simulate(
            workdir, "study-baseline",
            dict(common, estimators=["ipw", "oracle"], reps=BASELINE_REPS), seed,
        )
        self.two_stage = _Simulate(
            workdir, "study-two-stage",
            dict(
                common,
                estimators=["two-stage-weighted-krr", "two-stage-unweighted-krr"],
                reps=TWO_STAGE_REPS,
            ),
            seed,
        )
        self.power = _Simulate(
            workdir, "study-two-stage-power",
            dict(
                common,
                estimators=["two-stage-weighted-krr", "two-stage-unweighted-krr"],
                n_grid=[POWER_N],
                reps=POWER_REPS,
            ),
            data_seed(seed, 1, 0),
        )

    def simulations(self) -> dict:
        return {
            "baseline_csv": self.baseline,
            "two_stage_csv": self.two_stage,
            "two_stage_power_csv": self.power,
        }

    def run_round(self) -> Round:
        rnd = Round()
        rnd.call("tau", lambda: core.true_functional(self.instance), numeric=True)
        rnd.call(
            "efficient_variance", lambda: core.efficient_variance(self.instance), numeric=True
        )
        self.baseline.run_into(rnd, "baseline_csv")
        self.two_stage.run_into(rnd, "two_stage_csv")
        return rnd

    def verify_round(self) -> Round:
        rnd = Round()
        self.power.run_into(rnd, "two_stage_power_csv")
        return rnd

    def extract(self, rnd: Round) -> dict:
        return {key: value for key, value in rnd.raw.items() if rnd.ok(key)}


def _table_fn(table):
    arr = np.asarray(table, dtype=float)
    return lambda x, a: arr[np.asarray(x, dtype=int), np.asarray(a, dtype=int)]


class SmallnFinite:
    """Per-call overhead at small n on the two-state finite instance."""

    name = "smalln-finite"
    check_config = {
        "n_grid": SMALLN_N_GRID, "reps": SMALLN_REPS,
        "crit02_n": CRIT02_N, "crit02_reps": CRIT02_REPS,
        "crit07_n": CRIT07_N, "crit07_reps": CRIT07_REPS,
    }

    def setup(self, seed: int, workdir, threads: int = THREADS) -> None:
        self.seed = seed
        doc = finite_tables(1.0)
        self.instance = core.finite_instance_from_json(doc)
        self.simulate = _Simulate(
            workdir, "smalln",
            {
                "instance": doc,
                "estimators": ["ipw", "oracle"],
                "n_grid": SMALLN_N_GRID,
                "reps": SMALLN_REPS,
                "threads": threads,
            },
            seed,
        )
        self.auxiliaries = [_table_fn(t) for t in crit02_tables()]
        zero = _table_fn([[0.0, 0.0], [0.0, 0.0]])
        self.frozen = estimators.FirstStageSpec(regressor_id="frozen", frozen_fn=zero)

    def simulations(self) -> dict:
        return {"simulate_csv": self.simulate}

    def verify_round(self) -> Round:
        return Round()

    def _crit02_rep(self, rep: int) -> list:
        data = core.sample_dataset(self.instance, CRIT02_N, seed=data_seed(self.seed, 2, rep))
        return [
            estimators.generic_estimate(data, self.instance, f).tau_hat
            for f in self.auxiliaries
        ]

    def _crit07_rep(self, rep: int) -> float:
        data = core.sample_dataset(self.instance, CRIT07_N, seed=data_seed(self.seed, 7, rep))
        return estimators.two_stage_estimate(data, self.instance, self.frozen, seed=0).tau_hat

    def run_round(self) -> Round:
        rnd = Round()
        self.simulate.run_into(rnd, "simulate_csv")
        for rep in range(CRIT02_REPS):
            rnd.call(f"crit02/{rep}", lambda: self._crit02_rep(rep), numeric=True)
        for rep in range(CRIT07_REPS):
            rnd.call(f"crit07/{rep}", lambda: self._crit07_rep(rep), numeric=True)
        return rnd

    def extract(self, rnd: Round) -> dict:
        out = {"simulate_csv": rnd.raw["simulate_csv"]} if rnd.ok("simulate_csv") else {}
        for prefix, reps in (("crit02", CRIT02_REPS), ("crit07", CRIT07_REPS)):
            values = [rnd.raw[f"{prefix}/{rep}"] for rep in range(reps) if rnd.ok(f"{prefix}/{rep}")]
            kept = [v for v in values if _finite(v)]
            out[f"{prefix}_tau_hat"] = np.asarray(kept, dtype=float)
        out["crit02_tau_hat"] = out["crit02_tau_hat"].reshape(-1, len(self.auxiliaries)).T
        return out


class TheoryDiag:
    """Complexity diagnostics, certificates and lower-bound constructions.

    Each call is the public function behind one ``diagnose`` or
    ``lowerbound`` subcommand, with that subcommand's arguments.  The moment
    matrices are computed once per round and shared by both critical-radius
    calls.
    """

    name = "theory-diag"
    check_config = {
        "radius_m": RADIUS_M, "sparse": SHATTER_SPARSE, "tilt_n": TILT_N, "pair_n": PAIR_N,
        "mixture_delta": MIXTURE_DELTA, "mixture_s": MIXTURE_S,
    }

    def setup(self, seed: int, workdir, threads: int = THREADS) -> None:
        """``threads`` is unused: every call here is single-threaded."""
        self.seed = seed
        self.hard = simlab.instance_from_json(HARD_INSTANCE)
        self.finite = core.finite_instance_from_json(finite_tables(1.0))
        self.features = regression.resolve_feature_map("state-linear")
        self.delta = lambda x, a: np.full(np.broadcast(x, a).shape, MIXTURE_DELTA)

    def simulations(self) -> dict:
        return {}

    def verify_round(self) -> Round:
        return Round()

    def _radius(self, source: str, moments) -> float:
        sigma, gamma = moments
        spec = complexity.LocalizedClassSpec(
            class_id="linear-ellipsoid", radius=1.0, feature_map=self.features, sigma_matrix=sigma
        )
        return complexity.critical_radius(
            self.hard, spec, m=RADIUS_M, kind="s", source=source, alpha1=1.0, alpha2=1.0,
            reps=RADIUS_REPS, seed=self.seed, gamma_matrix=gamma,
        )

    @staticmethod
    def _shatter(build):
        cert = build()
        return cert, cert.verify()

    def run_round(self) -> Round:
        rnd = Round()
        rnd.call(
            "moments", lambda: complexity.moment_matrices(self.hard, self.features), numeric=True
        )
        for source in ("mc", "closed-form-linear"):
            rnd.call(
                f"radius_{source}", lambda: self._radius(source, rnd.raw["moments"]), numeric=True
            )
        rnd.call("hadamard", lambda: self._shatter(
            lambda: complexity.hadamard_glm_shatter(SHATTER_HADAMARD_P)))
        rnd.call("sparse", lambda: self._shatter(
            lambda: complexity.sparse_packing_shatter(*SHATTER_SPARSE)))
        rnd.call("tilt", lambda: lowerbounds.tilted_instance(self.finite, n=TILT_N))
        rnd.call("pair", lambda: lowerbounds.sigma_perturbed_pair(self.finite, n=PAIR_N))
        rnd.call("mixture", lambda: lowerbounds.delta_mixture(
            self.finite, delta=self.delta, s=MIXTURE_S, reps=MIXTURE_REPS, seed=self.seed))
        return rnd

    def extract(self, rnd: Round) -> dict:
        raw = rnd.raw
        out = {}
        if rnd.ok("moments"):
            out["sigma"], out["gamma"] = (np.asarray(m, dtype=float) for m in raw["moments"])
        for source in ("mc", "closed-form-linear"):
            if rnd.ok(f"radius_{source}"):
                out[f"radius_{source}"] = float(raw[f"radius_{source}"])
        rng = np.random.default_rng(self.seed)
        for key in ("hadamard", "sparse"):
            if not rnd.ok(key):
                continue
            cert, verified = raw[key]
            patterns = rng.integers(0, 2, size=(CHECK_PATTERNS, cert.n_points)) * 2.0 - 1.0
            out[key] = {
                "points": np.asarray(cert.points, dtype=float),
                "thresholds": np.asarray(cert.thresholds, dtype=float),
                "scale": float(cert.scale),
                "verified": bool(verified),
                "patterns": patterns,
                "witnesses": np.stack([cert.witness(z) for z in patterns]),
            }
        for key in ("tilt", "pair", "mixture"):
            if not rnd.ok(key):
                continue
            report = raw[key]
            out[key] = {
                "tweak": float(report.tweak),
                "gap": float(report.gap),
                "divergences": {k: float(v) for k, v in report.divergences.items()},
                "checks": {k: bool(v) for k, v in report.checks.items()},
            }
        return out


WORKLOADS = {w.name: w for w in (StudyHard, SmallnFinite, TheoryDiag)}


def fingerprint(outputs) -> str:
    """Canonical text of extracted outputs, for byte-for-byte comparison."""

    def encode(value):
        if isinstance(value, dict):
            return {k: encode(v) for k, v in sorted(value.items())}
        if isinstance(value, np.ndarray):
            return {"shape": list(value.shape), "hex": value.astype(float).tobytes().hex()}
        if isinstance(value, float):
            return value.hex() if math.isfinite(value) else repr(value)
        return value

    return json.dumps(encode(outputs), sort_keys=True)
