"""Tests of the benchmark itself: every check passes on correct outputs and
fails on perturbed ones, and tracing changes no result.

    python3 -m pytest benchmarks/selftest.py

The correct outputs are built here from the references, so no workload has
to run.  The file name keeps these tests out of the repository's own suite.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402

HEADER = "instance_id,estimator,n,reps,normalized_mse,mc_stderr,master_seed"


def _csv(rows) -> str:
    lines = [HEADER]
    for est, n, reps, mse, se in rows:
        lines.append(f"inst,{est},{n},{reps},{mse:.10g},{se:.10g},1")
    return "\n".join(lines) + "\n"


def _exact_sample(mean: float, sd: float, size: int, seed: int) -> np.ndarray:
    """Draws standardized to the given sample mean and sd exactly."""
    z = np.random.default_rng(seed).standard_normal(size)
    z = (z - z.mean()) / z.std(ddof=1)
    return mean + sd * z


# -- correct outputs ----------------------------------------------------------


def study_outputs() -> dict:
    ref = references.hard_references(m=1)
    cfg = workloads.StudyHard.check_config
    reps = cfg["baseline_reps"]
    base = []
    for est, nvar in (("ipw", ref["ipw_nvar"]), ("oracle", ref["efficient_variance"])):
        base += [(est, n, reps, nvar, nvar * np.sqrt(2.0 / reps)) for n in cfg["n_grid"]]
    two_stage = ("two-stage-weighted-krr", "two-stage-unweighted-krr")
    two = [(est, n, workloads.TWO_STAGE_REPS, 1.0, 0.3) for est in two_stage for n in cfg["n_grid"]]
    power = [(est, cfg["power_n"], cfg["power_reps"], 1.2, 0.4) for est in two_stage]
    return {
        "tau": ref["tau"],
        "efficient_variance": ref["efficient_variance"],
        "baseline_csv": _csv(base),
        "two_stage_csv": _csv(two),
        "two_stage_power_csv": _csv(power),
    }


def smalln_outputs() -> dict:
    ref = references.finite_references(sd=1.0)
    cfg = workloads.SmallnFinite.check_config
    rows = [
        (est, n, cfg["reps"], nvar, nvar * np.sqrt(2.0 / cfg["reps"]))
        for est, nvar in (("ipw", ref["ipw_nvar"]), ("oracle", ref["efficient_variance"]))
        for n in cfg["n_grid"]
    ]
    crit02 = np.stack(
        [
            _exact_sample(ref["tau"], np.sqrt(v / cfg["crit02_n"]), cfg["crit02_reps"], j)
            for j, v in enumerate(ref["crit02_nvar"])
        ]
    )
    crit07 = _exact_sample(ref["tau"], np.sqrt(ref["ipw_nvar"] / cfg["crit07_n"]), cfg["crit07_reps"], 7)
    return {"simulate_csv": _csv(rows), "crit02_tau_hat": crit02, "crit07_tau_hat": crit07}


def _hadamard_cert(p: int) -> dict:
    points = scipy.linalg.hadamard(p).astype(float)
    patterns = np.random.default_rng(0).integers(0, 2, size=(8, p)) * 2.0 - 1.0
    return {
        "points": points,
        "thresholds": np.zeros(p),
        "scale": 1.0,
        "verified": True,
        "patterns": patterns,
        "witnesses": patterns @ points / p,
    }


def _sparse_cert() -> dict:
    # p = 8, s = 2: k = 2 bits per block of 4, points kron(bits row, e_j)
    bits = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=float)
    eye = np.eye(2)
    points = np.stack([np.kron(bits[i], eye[j]) for i in range(2) for j in range(2)])
    patterns = np.random.default_rng(1).integers(0, 2, size=(8, 4)) * 2.0 - 1.0
    witnesses = []
    for z in patterns:
        binary = ((z + 1.0) / 2.0).reshape(2, 2)
        beta = np.zeros(8)
        for j in range(2):
            col = int(2 * binary[0, j] + binary[1, j])
            beta += np.kron(np.eye(4)[col], eye[j])
        witnesses.append(beta)
    return {
        "points": points,
        "thresholds": np.full(4, 0.5),
        "scale": 0.5,
        "verified": True,
        "patterns": patterns,
        "witnesses": np.stack(witnesses),
    }


def theory_outputs() -> dict:
    cfg = workloads.TheoryDiag.check_config
    ref = references.hard_references(m=cfg["radius_m"])
    tilt = references.tilt_reference(cfg["tilt_n"])
    pair = references.sigma_pair_reference(1.0, cfg["pair_n"])
    mix = references.mixture_reference(cfg["mixture_delta"], cfg["mixture_s"])
    return {
        "sigma": ref["sigma"].copy(),
        "gamma": ref["gamma"].copy(),
        "radius_mc": ref["closed_form_radius"] * 0.99,
        "radius_closed-form-linear": ref["closed_form_radius"] + 5e-5,
        "hadamard": _hadamard_cert(workloads.SHATTER_HADAMARD_P),
        "sparse": _sparse_cert(),
        "tilt": {
            "tweak": tilt["tweak"], "gap": tilt["gap"],
            "divergences": {"chi2": tilt["chi2"]}, "checks": {"chi2_within_budget": True},
        },
        "pair": {
            "tweak": pair["tweak"], "gap": pair["gap"],
            "divergences": {"kl_n_bound": pair["kl_n_bound"], "kl_n_exact": pair["kl_n_exact"]},
            "checks": {"gap_identity": True},
        },
        "mixture": {
            "tweak": cfg["mixture_s"], "gap": mix["gap"],
            "divergences": {"mc_gap": mix["gap"] + 0.01, "mc_se": 0.04},
            "checks": {"gap_above_floor": True},
        },
    }


CASES = {
    "study-hard": study_outputs,
    "smalln-finite": smalln_outputs,
    "theory-diag": theory_outputs,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_correct_outputs_pass(name):
    config = workloads.WORKLOADS[name].check_config
    assert checks.CHECKS[name](CASES[name](), config) == []


# -- perturbations -------------------------------------------------------------


def _set(path, fn):
    """Perturbation applying ``fn`` to the value at a key path."""

    def apply(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])

    return apply


def _csv_edit(key, est, n, column, fn):
    """Perturbation of one column of the rows of ``est`` at ``n`` (every n
    when ``n`` is None)."""

    def apply(out):
        lines = out[key].splitlines()
        for i, line in enumerate(lines):
            parts = line.split(",")
            if parts[1] == est and (n is None or parts[2] == str(n)):
                parts[column] = repr(fn(float(parts[column])))
                lines[i] = ",".join(parts)
        out[key] = "\n".join(lines) + "\n"

    return apply


def _compose(*perturbations):
    def apply(out):
        for perturb in perturbations:
            perturb(out)

    return apply


IPW_NVAR = references.hard_references(m=1)["ipw_nvar"]


def _flip_pattern(cert):
    def apply(out):
        out[cert]["patterns"][3, 0] *= -1.0

    return apply


def _inflate_spread(key, factor, row=None):
    def apply(out):
        values = out[key] if row is None else out[key][row]
        values[:] = values.mean() + factor * (values - values.mean())

    return apply


PERTURBATIONS = [
    ("study-hard", "tau shifted", _set(("tau",), lambda v: v + 1e-9)),
    ("study-hard", "efficient variance inflated", _set(("efficient_variance",), lambda v: v * (1 + 1e-8))),
    ("study-hard", "efficient variance NaN", _set(("efficient_variance",), lambda v: float("nan"))),
    ("study-hard", "IPW MSE inflated", _csv_edit("baseline_csv", "ipw", 8000, 4, lambda v: 2.0 * v)),
    ("study-hard", "oracle MSE deflated", _csv_edit("baseline_csv", "oracle", 500, 4, lambda v: 0.3 * v)),
    ("study-hard", "oracle replications short", _csv_edit("baseline_csv", "oracle", 2000, 3, lambda v: int(v) - 1)),
    ("study-hard", "two-stage above IPW", _csv_edit("two_stage_csv", "two-stage-weighted-krr", 8000, 4, lambda v: 20.0)),
    ("study-hard", "IPW MSE 1.5x at every n", _csv_edit("baseline_csv", "ipw", None, 4, lambda v: 1.5 * v)),
    ("study-hard", "oracle MSE 1.5x at every n", _csv_edit("baseline_csv", "oracle", None, 4, lambda v: 1.5 * v)),
    ("study-hard", "oracle MSE 0.6x at every n", _csv_edit("baseline_csv", "oracle", None, 4, lambda v: 0.6 * v)),
    ("study-hard", "two-stage as IPW", _compose(
        _csv_edit("two_stage_csv", "two-stage-unweighted-krr", None, 4, lambda v: IPW_NVAR),
        _csv_edit("two_stage_power_csv", "two-stage-unweighted-krr", None, 4, lambda v: IPW_NVAR),
    )),
    ("study-hard", "two-stage power call as IPW", _csv_edit(
        "two_stage_power_csv", "two-stage-weighted-krr", None, 4, lambda v: IPW_NVAR)),
    ("study-hard", "two-stage power row missing", _set(
        ("two_stage_power_csv",), lambda v: v.splitlines()[0] + "\n")),
    ("smalln-finite", "IPW MSE inflated", _csv_edit("simulate_csv", "ipw", 16, 4, lambda v: 1.5 * v)),
    ("smalln-finite", "oracle MSE 1.4x at every n", _csv_edit("simulate_csv", "oracle", None, 4, lambda v: 1.4 * v)),
    ("smalln-finite", "IPW MSE 0.65x at every n", _csv_edit("simulate_csv", "ipw", None, 4, lambda v: 0.65 * v)),
    ("smalln-finite", "criterion 02 biased", _set(("crit02_tau_hat",), lambda v: v + np.array([[0.0], [0.5], [0.0]]))),
    ("smalln-finite", "criterion 02 variance inflated", _inflate_spread("crit02_tau_hat", 1.3, row=0)),
    ("smalln-finite", "criterion 07 tau_hat shifted", _set(("crit07_tau_hat",), lambda v: v + 0.5)),
    ("smalln-finite", "criterion 07 above risk bound", _inflate_spread("crit07_tau_hat", 2.0)),
    ("theory-diag", "sigma perturbed", _set(("sigma",), lambda v: v * (1 + 1e-8))),
    ("theory-diag", "gamma entry perturbed", _set(("gamma",), lambda v: v + np.array([[0.0, 1e-4], [1e-4, 0.0]]))),
    ("theory-diag", "closed-form radius doubled", _set(("radius_closed-form-linear",), lambda v: 2.0 * v)),
    ("theory-diag", "Monte Carlo radius tripled", _set(("radius_mc",), lambda v: 3.0 * v)),
    ("theory-diag", "hadamard pattern flipped", _flip_pattern("hadamard")),
    ("theory-diag", "sparse pattern flipped", _flip_pattern("sparse")),
    ("theory-diag", "hadamard not verified", _set(("hadamard", "verified"), lambda v: False)),
    ("theory-diag", "tilt gap shifted", _set(("tilt", "gap"), lambda v: v + 1e-9)),
    ("theory-diag", "tilt flag false", _set(("tilt", "checks", "chi2_within_budget"), lambda v: False)),
    ("theory-diag", "sigma-pair gap halved", _set(("pair", "gap"), lambda v: v / 2)),
    ("theory-diag", "sigma-pair KL inflated", _set(("pair", "divergences", "kl_n_bound"), lambda v: v * 1.01)),
    ("theory-diag", "mixture gap shifted", _set(("mixture", "gap"), lambda v: v + 1e-6)),
    ("theory-diag", "mixture MC gap far", _set(("mixture", "divergences", "mc_gap"), lambda v: v + 0.5)),
]


@pytest.mark.parametrize("name,label,perturb", PERTURBATIONS, ids=[p[1] for p in PERTURBATIONS])
def test_perturbed_outputs_fail(name, label, perturb):
    out = copy.deepcopy(CASES[name]())
    perturb(out)
    assert checks.CHECKS[name](out, workloads.WORKLOADS[name].check_config), label


# -- tracing ---------------------------------------------------------------------


def test_tracing_changes_no_result_and_restores_the_program(tmp_path):
    import tracing
    from ope_lab import core, simlab

    config = simlab.ExperimentConfig(
        instance=workloads.HARD_INSTANCE,
        estimators=("ipw", "two-stage-weighted-krr"),
        n_grid=(200, 400),
        reps=3,
        folds=3,
        lambda_grid=(1.0, 10.0, 100.0),
        master_seed=5,
        threads=2,
    )
    before = simlab.run_experiment(config).to_csv()
    originals = (simlab.run_experiment, core.ProblemInstance.action_index, simlab.ThreadPoolExecutor)
    tracer = tracing.Tracer()
    tracer.install(tracing.program_modules())
    try:
        traced = simlab.run_experiment(config).to_csv()
    finally:
        tracer.uninstall()
    assert traced == before
    assert (simlab.run_experiment, core.ProblemInstance.action_index, simlab.ThreadPoolExecutor) == originals
    metrics = tracer.layer_metrics()
    assert metrics["simlab.pools_created"] == 4  # one per (estimator, n) cell
    assert metrics["core.sample_dataset.calls"] == 12
    assert metrics["estimators.two_stage_estimate.calls"] == 6
    assert metrics["regression.cross_validate_lambda.calls"] == 12
    assert metrics["regression.fits_per_cv"] == 9  # 3 ridge levels x 3 folds
    assert metrics["regression.fit_weighted_krr.calls"] == 12 * 9 + 12
    assert all(metrics[name] >= 0 for name in tracing.LAYER_METRICS if name in metrics)
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import tracing

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "estimates_per_s", "peak_rss_mb",
    ]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
