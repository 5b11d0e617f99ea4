import concurrent.futures
import dataclasses
import hashlib
import json
import pickle
import re

import numpy as np
import pytest

import ope_lab as ol
from ope_lab import cli, complexity, core, estimators, lowerbounds, simlab
from ope_lab.core import PropensityError, save_instance, write_dataset_csv
from ope_lab.estimators import ESTIMATOR_IDS, FirstStageError
from ope_lab.lowerbounds import SupportError
from ope_lab.quadrature import QuadratureError
from ope_lab.simlab import (
    CellError,
    ExperimentConfig,
    ResultRow,
    ResultsTable,
    build_builtin_instance,
    read_results_csv,
    run_experiment,
    write_results_csv,
)

from conftest import make_d1

TENT_VARIANCE = 1.0 / 48.0


# ---------------------------------------------------------------------------
# built-in instance
# ---------------------------------------------------------------------------


def test_builtin_propensity_values():
    inst = build_builtin_instance("pi1")
    assert abs(inst.propensity(np.array([0.5]))[0, 1] - 0.005) < 1e-12
    inst2 = build_builtin_instance("pi2")
    assert abs(inst2.propensity(np.array([0.0]))[0, 1] - 0.5) < 1e-12
    assert abs(inst2.propensity(np.array([1.0]))[0, 1] - 0.005) < 1e-12


def test_builtin_flat_noise_at_gamma_zero():
    inst = build_builtin_instance("pi1", gamma=0.0, sigma0=0.7)
    xs = np.linspace(0.0, 1.0, 11)
    sd = inst.outcome_sd(xs, np.ones_like(xs))
    assert np.max(np.abs(sd - 0.7)) < 1e-12


def test_builtin_noise_scales_with_propensity():
    inst = build_builtin_instance("pi2", gamma=1.0, sigma0=1.0)
    xs = np.array([0.2, 0.8])
    sd = inst.outcome_sd(xs, np.ones_like(xs))
    want = np.sqrt(inst.propensity(xs)[:, 1])
    assert np.max(np.abs(sd - want)) < 1e-12


def test_builtin_rejects_bad_params():
    with pytest.raises(ValueError):
        build_builtin_instance("pi3")
    with pytest.raises(ValueError):
        build_builtin_instance("pi1", gamma=1.5)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "builtin", "name": "tent"}, r"^unknown builtin 'tent'$"),
    ({"kind": "tables"}, r"^unknown instance kind 'tables'$"),
], ids=["unknown-builtin", "unknown-kind"])
def test_instance_from_json_names_an_unknown_builtin_or_kind(doc, message):
    with pytest.raises(ValueError, match=message):
        simlab.instance_from_json(doc)


def test_instance_round_trip_through_json(tmp_path):
    inst = build_builtin_instance("pi2", gamma=0.5, sigma0=0.3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = simlab.load_instance(path)
    assert back.instance_id == inst.instance_id
    xs = np.linspace(0, 1, 7)
    assert np.allclose(back.propensity(xs), inst.propensity(xs))


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def builtin_doc(**params):
    defaults = {"propensity": "pi2", "gamma": 1.0, "sigma0": 0.0}
    defaults.update(params)
    return {"kind": "builtin", "name": "missing-data", "params": defaults}


def test_oracle_noiseless_mse_matches_tent_variance():
    config = ExperimentConfig(
        instance=builtin_doc(sigma0=0.0),
        estimators=("oracle",),
        n_grid=(200, 400),
        reps=300,
        master_seed=7,
    )
    table = run_experiment(config)
    for row in table.rows:
        assert abs(row.normalized_mse - TENT_VARIANCE) < 3 * row.mc_stderr


def test_single_rep_convention():
    config = ExperimentConfig(
        instance=builtin_doc(sigma0=0.2),
        estimators=("ipw",),
        n_grid=(100,),
        reps=1,
        master_seed=3,
    )
    table = run_experiment(config)
    assert table.rows[0].mc_stderr == 0.0
    assert table.rows[0].reps == 1


def test_thread_budget_leaves_bytes_unchanged():
    base = ExperimentConfig(
        instance=builtin_doc(sigma0=0.3),
        estimators=("oracle", "two-stage-weighted-krr"),
        n_grid=(60, 120),
        reps=6,
        folds=3,
        lambda_grid=(1.0, 10.0),
        master_seed=11,
    )
    csv_single = run_experiment(base).to_csv()
    csv_threaded = run_experiment(base.with_overrides(threads=4)).to_csv()
    assert csv_single == csv_threaded
    # and a fresh run with the same seed reproduces the bytes
    assert run_experiment(base).to_csv() == csv_single


def test_run_experiment_opens_one_pool(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    config = ExperimentConfig(
        instance=builtin_doc(sigma0=0.3),
        estimators=("ipw", "oracle"),
        n_grid=(20, 40),
        reps=4,
        master_seed=3,
    )
    run_experiment(config)
    assert pools == []
    run_experiment(config.with_overrides(threads=2))
    assert pools == [1]


def test_failed_cell_names_itself():
    config = ExperimentConfig(
        instance=builtin_doc(sigma0=0.1),
        estimators=("two-stage-weighted-krr",),
        n_grid=(8,),  # too small for the folds
        reps=2,
        master_seed=1,
    )
    with pytest.raises(CellError) as err:
        run_experiment(config)
    assert err.value.estimator == "two-stage-weighted-krr"
    assert err.value.n == 8


@pytest.mark.parametrize("kind, reps", [("finite", 7), ("finite-custom", 7), ("finite", 29)])
def test_worker_count_leaves_bytes_unchanged(tmp_path, kind, reps):
    # replications split unevenly over 2 and 3 workers; at 29 the chunks
    # hold several replications each
    inst = make_d1(0.5)
    inst_path = tmp_path / "d1.json"
    save_instance(inst, inst_path)
    doc = (
        json.loads(inst_path.read_text())
        if kind == "finite"
        else {"kind": "finite-custom", "path": str(inst_path)}
    )
    base = ExperimentConfig(
        instance=doc,
        estimators=("ipw", "oracle", "two-stage-unweighted-krr"),
        n_grid=(30, 60),
        reps=reps,
        folds=3,
        lambda_grid=(0.1, 1.0, 10.0),
        master_seed=5,
    )
    tables = [run_experiment(base.with_overrides(threads=t)) for t in (1, 2, 3)]
    assert len(tables[0].rows) == 6
    # the bytes of the CSV, and the floats behind its ten printed digits
    assert tables[1].to_csv() == tables[0].to_csv() and tables[2].to_csv() == tables[0].to_csv()
    assert tables[1].rows == tables[0].rows and tables[2].rows == tables[0].rows


def test_failed_replication_in_a_worker_names_its_cell(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise RuntimeError("no fit today")

    # the forked workers inherit the patched first stage
    monkeypatch.setattr(simlab.estimators, "_fit_first_stage", broken_fit)
    config = ExperimentConfig(
        instance=builtin_doc(sigma0=0.1),
        estimators=("oracle", "two-stage-weighted-krr"),
        n_grid=(20, 40),
        reps=3,
        master_seed=1,
        threads=2,
    )
    with pytest.raises(CellError) as err:
        run_experiment(config)
    assert (err.value.estimator, err.value.n) == ("two-stage-weighted-krr", 20)
    message = str(err.value)
    assert "cell (estimator=two-stage-weighted-krr, n=20) failed" in message
    assert "first-stage fit failed on half 1: no fit today" in message
    assert isinstance(err.value.__cause__, FirstStageError)
    assert err.value.__cause__.fold == 1


def test_failure_in_a_later_chunk_names_its_cell(monkeypatch):
    # 2 workers cut each cell's 9 seeds into 8 chunks: the last replication
    # of (oracle, 40) fails in that cell's eighth chunk, and the first
    # replication of the later cell (ipw, 20) fails as well
    master, reps = 4, 9
    doomed = {
        simlab.mix_seed(master, "oracle", 40, reps - 1): "last oracle replication",
        simlab.mix_seed(master, "ipw", 20, 0): "first ipw replication",
    }
    run_rep = simlab._run_rep

    def failing_rep(estimator, instance, n, rep_seed, tau_star, first_stage):
        if rep_seed in doomed:
            raise ValueError(f"{doomed[rep_seed]} failed")
        return run_rep(estimator, instance, n, rep_seed, tau_star, first_stage)

    # the forked workers inherit the patched replication
    monkeypatch.setattr(simlab, "_run_rep", failing_rep)
    config = ExperimentConfig(
        instance=builtin_doc(sigma0=0.1),
        estimators=("oracle", "ipw"),
        n_grid=(20, 40),
        reps=reps,
        master_seed=master,
        threads=2,
    )
    with pytest.raises(CellError) as err:
        run_experiment(config)
    assert (err.value.estimator, err.value.n) == ("oracle", 40)
    assert str(err.value) == "cell (estimator=oracle, n=40) failed: last oracle replication failed"
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "error",
    [
        PropensityError("negative action probability at sampled state 0.5", state=0.5),
        FirstStageError("first-stage fit failed on half 2: singular", fold=2),
        QuadratureError("subdivision budget exhausted", achieved_tol=1e-3),
        SupportError("support violation at atom (0, 1)", atom=(0.0, 1.0)),
        CellError("cell (estimator=ipw, n=10) failed: boom", estimator="ipw", n=10),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(instance=builtin_doc(), n_grid=(100, 50))
    with pytest.raises(ValueError):
        ExperimentConfig(instance=builtin_doc(), reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(instance=builtin_doc(), estimators=("mystery",))


@pytest.mark.parametrize("key, value, message", [
    ("n_grid", (50, 50), r"^n_grid\[1\] is 50; n_grid must increase strictly"),
    ("n_grid", (0, 50), r"^n_grid\[0\] is 0; n_grid must increase strictly from 1"),
    ("estimators", ("ipw", "oracle", "ipw"), r"^estimators\[2\] repeats 'ipw'$"),
    ("n_grid", (), r"^n_grid must be non-empty$"),
    ("estimators", (), r"^estimators must be non-empty$"),
    ("folds", 1, r"^folds must be at least 2$"),
    ("lambda_grid", (np.nan,), r"^lambda_grid\[0\] is nan, not a positive finite ridge level$"),
    ("lambda_grid", (), r"^lambda_grid must be non-empty$"),
    ("threads", 0, r"^threads must be at least 1$"),
], ids=[
    "repeated-n", "zero-n", "repeated-estimator", "empty-n-grid", "empty-estimators",
    "one-fold", "nan-ridge-level", "empty-lambda-grid", "no-thread",
])
def test_config_rejects_a_repeated_cell_or_an_empty_sample(key, value, message):
    # a repeated estimator or sample size would run and write the same cell
    # twice; a bad fold count or ridge grid is rejected even when no estimator
    # of the config fits a first stage
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(instance=builtin_doc(), reps=2, **{key: value})


def test_config_from_json_rejects_an_unknown_key_by_name():
    with pytest.raises(ValueError, match=r"unknown config key 'rep'"):
        ExperimentConfig.from_json({"instance": builtin_doc(), "rep": 5, "thread": 4})
    config = ExperimentConfig.from_json({"instance": builtin_doc(), "reps": 5.0, "threads": "4"})
    assert config == ExperimentConfig(instance=builtin_doc(), reps=5, threads=4)
    assert type(config.reps) is int and type(config.threads) is int


@pytest.mark.parametrize("key, value, name", [
    ("reps", 2.5, "reps"),
    ("reps", "two", "reps"),
    ("threads", 1.9, "threads"),
    ("folds", float("inf"), "folds"),
    ("master_seed", float("nan"), "master_seed"),
    ("n_grid", [50, 100.7], r"n_grid\[1\]"),
    ("n_grid", [float("nan")], r"n_grid\[0\]"),
])
def test_config_rejects_counts_that_are_not_whole_numbers(key, value, name):
    with pytest.raises(ValueError, match=rf"^{name} is .+, not a whole number$"):
        ExperimentConfig.from_json({"instance": builtin_doc(), key: value})


# three unequal base weights, and a weight function that annihilates action 0
THREE_ACTIONS = {
    "kind": "finite",
    "instance_id": "three-actions",
    "states": [0.0, 0.5, 1.0],
    "probs": [0.3, 0.3, 0.4],
    "actions": [0.0, 1.0, 2.0],
    "base_weights": [1.0, 0.5, 2.0],
    "propensity": [[0.4, 0.4, 0.2], [0.2, 0.8, 0.2], [0.5, 0.2, 0.2]],
    "weight": [[0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [0.0, 2.0, 1.0]],
    "outcome_mean": [[1.0, 2.0, 0.5], [0.0, 3.0, -1.0], [2.0, 1.0, 0.0]],
    "outcome_sd": [[0.5, 1.0, 0.2], [0.3, 0.3, 0.3], [1.0, 0.1, 0.7]],
}


# a change to any estimate or to the CSV layout changes these digests
@pytest.mark.parametrize("instance, grid, pinned", [
    pytest.param(
        builtin_doc(propensity="pi1", gamma=0.0, sigma0=1.0, pi_min=0.005), {"n_grid": (100, 200)},
        "ea25a1be1ba4d6fe853ce8da03d74039dc6efa7a36b4b04c0432a48a1f8b93eb", id="pi1-gamma0",
    ),
    pytest.param(
        builtin_doc(propensity="pi2", gamma=0.5, sigma0=1.0, pi_min=0.005), {"n_grid": (100, 200)},
        "4b217839eb260f6b0ea65c1e0877f829a675f1b23c922f9e8c2b23fc7478a8b0", id="pi2-gamma0.5",
    ),
    pytest.param(
        THREE_ACTIONS, {"n_grid": (30, 60), "folds": 3, "lambda_grid": (0.1, 1.0, 10.0)},
        "54fd0553e3d4a207cc04fcb9af6ea0aaf32b427600d5c554a2cc4271d54a5555", id="finite",
    ),
    pytest.param(
        builtin_doc(propensity="pi1", gamma=0.0, sigma0=0.15, pi_min=0.005),
        {"n_grid": (100, 200), "folds": 5, "lambda_grid": tuple(np.logspace(-1.0, 6.0, 15))},
        "a9466b68fa2414f239c2cc98ea2fbfa69e02176aa554d60c2b066b48ef85efad", id="study-grid",
    ),
])
def test_results_csv_bytes_are_pinned(instance, grid, pinned):
    config = ExperimentConfig(
        instance=instance, estimators=ESTIMATOR_IDS, reps=4, master_seed=1, threads=1,
        **grid,
    )
    csv = run_experiment(config).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == pinned


def test_a_half_sample_without_observed_outcomes_leaves_the_grid_running():
    # at n = 50 one half-sample of a two-stage-unweighted-krr replication
    # observes no outcome; its first stage fits f = 0
    config = ExperimentConfig(
        instance=builtin_doc(propensity="pi1", gamma=0.0, sigma0=1.0),
        estimators=ESTIMATOR_IDS, n_grid=(50, 100), reps=4, master_seed=7,
    )
    table = run_experiment(config)
    assert len(table.rows) == 8


class _Counted:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _counted_fields(inst):
    """``inst`` with every evaluable field counted, and the counters."""
    names = ("propensity", "weight_fn", "outcome_mean", "outcome_sd")
    counted = {name: _Counted(getattr(inst, name)) for name in names}
    kwargs = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    return ol.ProblemInstance(**{**kwargs, **counted}), counted


# squared errors of one replication, recorded before samples carried their pairs
ONE_REP_PINS = {
    ("builtin", "ipw"): "0x1.204c0befe16ebp-6",
    ("builtin", "oracle"): "0x1.bf7e7b68fe145p-12",
    ("builtin", "two-stage-weighted-krr"): "0x1.335c805a736b6p-11",
    ("finite", "ipw"): "0x1.15808903be769p-6",
    ("finite", "oracle"): "0x1.2bdf0377eca63p-8",
    ("finite", "two-stage-weighted-krr"): "0x1.62751bdd364f2p-4",
}


@pytest.mark.parametrize("kind", ["builtin", "finite"])
@pytest.mark.parametrize("estimator", ["ipw", "oracle", "two-stage-weighted-krr"])
def test_a_replication_evaluates_the_propensity_once_and_locates_nothing(
    monkeypatch, kind, estimator
):
    base = (
        build_builtin_instance("pi1", gamma=0.5, sigma0=1.0)
        if kind == "builtin"
        else core.finite_instance_from_json(THREE_ACTIONS)
    )
    inst, counted = _counted_fields(base)
    tau_star = core.true_functional(inst)
    first_stage = ((0.1, 1.0, 10.0), 3)  # (lambda_grid, folds)
    lookups = []
    for name in ("action_index", "locate"):
        method = getattr(core.ProblemInstance, name)
        monkeypatch.setattr(
            core.ProblemInstance, name,
            lambda self, *args, _name=name, _method=method: lookups.append(_name) or _method(self, *args),
        )
    counted["propensity"].calls = 0
    counted["weight_fn"].calls = 0
    sq = simlab._run_rep(estimator, inst, 200, 1234, tau_star, first_stage)
    assert counted["propensity"].calls <= 1
    assert counted["weight_fn"].calls <= 1
    assert lookups == []
    assert sq.hex() == ONE_REP_PINS[kind, estimator]


def test_a_replication_without_a_first_stage_derives_no_fold_seed(monkeypatch):
    inst = build_builtin_instance("pi1", gamma=0.5, sigma0=1.0)
    tau_star = core.true_functional(inst)
    expected = {e: simlab._run_rep(e, inst, 50, 1234, tau_star, None) for e in ("ipw", "oracle")}

    def no_fold_seed(*args):
        raise AssertionError(f"fold seed derived: mix_seed{args}")

    monkeypatch.setattr(simlab, "mix_seed", no_fold_seed)
    for estimator, sq in expected.items():
        assert simlab._run_rep(estimator, inst, 50, 1234, tau_star, None) == sq


# ---------------------------------------------------------------------------
# results table I/O
# ---------------------------------------------------------------------------


def sample_table():
    return ResultsTable(
        rows=[
            ResultRow("inst", "oracle", 200, 5, 0.5, 0.01, 7),
            ResultRow("inst", "ipw", 100, 5, 1.25, 0.125, 7),
        ]
    )


def test_results_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_results_csv(sample_table(), path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "instance_id,estimator,n,reps,normalized_mse,mc_stderr,master_seed"
    assert lines[1].startswith("inst,ipw,100,")  # sorted by (estimator, n)
    assert text.endswith("\n") and "\r" not in text


def test_results_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_results_csv(ResultsTable(), path)
    assert path.read_text() == "instance_id,estimator,n,reps,normalized_mse,mc_stderr,master_seed\n"


def test_results_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    table = sample_table()
    write_results_csv(table, path)
    assert read_results_csv(path) == table


@pytest.mark.parametrize("field", ["normalized_mse", "mc_stderr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_result_row_rejects_non_finite_or_negative(field, bad):
    values = {"normalized_mse": 0.5, "mc_stderr": 0.01, field: bad}
    with pytest.raises(ValueError, match=f"{field}.*estimator=ipw, n=200"):
        ResultRow("inst", "ipw", 200, 5, values["normalized_mse"], values["mc_stderr"], 7)


def test_read_results_csv_needs_its_header(tmp_path):
    path = str(tmp_path / "no-header.csv")
    with open(path, "w") as fh:
        fh.write("inst,ipw,100,5,1.25,0.125,7\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(path))} does not carry the results header$"):
        read_results_csv(path)


def test_results_write_failure_carries_path():
    with pytest.raises(OSError) as err:
        write_results_csv(sample_table(), "/nonexistent-dir/file.csv")
    assert "/nonexistent-dir/file.csv" in str(err.value)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_simulate_round_trip(tmp_path, capsys):
    config = {
        "instance": builtin_doc(sigma0=0.1),
        "estimators": ["oracle"],
        "n_grid": [50, 100],
        "reps": 3,
        "master_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "results.csv"
    code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    table = read_results_csv(out_path)
    assert len(table.rows) == 2


def test_cli_simulate_without_out_writes_the_table_to_stdout(tmp_path, capsys):
    config = {"instance": builtin_doc(sigma0=0.1), "estimators": ["oracle", "ipw"], "n_grid": [50],
              "reps": 3, "master_seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == run_experiment(ExperimentConfig.from_json(config)).to_csv()


def test_cli_seed_and_reps_overrides(tmp_path):
    config = {
        "instance": builtin_doc(sigma0=0.1),
        "estimators": ["oracle"],
        "n_grid": [50],
        "reps": 2,
        "master_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "r.csv"
    assert cli.main([
        "simulate", "--config", str(cfg_path), "--seed", "42", "--reps", "4",
        "--out", str(out),
    ]) == 0
    row = read_results_csv(out).rows[0]
    assert row.master_seed == 42
    assert row.reps == 4


def _estimate_files(tmp_path):
    """The d1 instance and a 50-row dataset of it (seed 9), written for the CLI."""
    inst = make_d1(1.0)
    data_path = tmp_path / "data.csv"
    write_dataset_csv(ol.sample_dataset(inst, 50, seed=9), data_path)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    return inst, data_path, inst_path


# two-stage rows recorded when the CLI held its own estimator dispatch
CLI_TWO_STAGE_ROWS = {
    "two-stage-weighted-krr": "two-stage-weighted-krr,50,9,3.083501754,22.97054583",
    "two-stage-unweighted-krr": "two-stage-unweighted-krr,50,9,2.915154494,24.10316787",
}


def test_cli_estimate(tmp_path, capsys):
    # every named estimator prints the row of its own library function
    inst, data_path, inst_path = _estimate_files(tmp_path)
    data = core.read_dataset_csv(data_path)
    library = {
        "ipw": estimators.ipw_estimate(data, inst),
        "oracle": estimators.oracle_estimate(data, inst),
        **{
            estimator: estimators.two_stage_estimate(
                data, inst, ol.FirstStageSpec(regressor_id=regressor), seed=3
            )
            for estimator, regressor in estimators.NAMED_ESTIMATORS.items()
            if regressor is not None
        },
    }
    assert set(library) == set(ESTIMATOR_IDS)
    printed = {}
    for estimator in ESTIMATOR_IDS:
        code = cli.main([
            "estimate", "--data", str(data_path), "--instance", str(inst_path),
            "--estimator", estimator, "--seed", "3",
        ])
        assert code == 0
        header, printed[estimator] = capsys.readouterr().out.strip().split("\n")
        assert header == "estimator_id,n,seed,tau_hat,plugin_variance"
        assert printed[estimator] == library[estimator].csv_row()
    assert {e: printed[e] for e in CLI_TWO_STAGE_ROWS} == CLI_TWO_STAGE_ROWS


def test_cli_estimate_names_an_unknown_estimator_and_the_known_ones(tmp_path, capsys):
    _, data_path, inst_path = _estimate_files(tmp_path)
    code = cli.main([
        "estimate", "--data", str(data_path), "--instance", str(inst_path),
        "--estimator", "two-stage-krr",
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": f"unknown estimator 'two-stage-krr'; known: {ESTIMATOR_IDS}",
    }


def test_cli_lowerbound_and_diagnose(tmp_path, capsys):
    inst = make_d1(1.0)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    assert cli.main(["lowerbound", "sigma-pair", "--instance", str(inst_path), "--n", "100"]) == 0
    text = capsys.readouterr().out
    assert '"kind": "sigma-pair"' in text
    assert cli.main([
        "diagnose", "small-ball", "--instance", str(inst_path), "--alpha1", "0.0",
        "--reps", "100",
    ]) == 0
    assert '"probability": 1.0' in capsys.readouterr().out


HALF_DELTA = lambda x, a: np.full(np.broadcast(x, a).shape, 0.5)


@pytest.mark.parametrize("command, options, construct", [
    ("tilt", ["--n", "64"], lambda inst: lowerbounds.tilted_instance(inst, n=64)),
    ("sigma-pair", ["--n", "64"], lambda inst: lowerbounds.sigma_perturbed_pair(inst, n=64)),
    (
        "mixture", ["--s", "0.1", "--delta", "0.5", "--reps", "20", "--seed", "3"],
        lambda inst: lowerbounds.delta_mixture(inst, HALF_DELTA, s=0.1, reps=20, seed=3),
    ),
])
def test_cli_lowerbound_prints_the_library_report(tmp_path, capsys, command, options, construct):
    inst = make_d1(1.0)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    assert cli.main(["lowerbound", command, "--instance", str(inst_path), *options]) == 0
    report = construct(inst)
    want = f"{report.to_text()}\n{lowerbounds.CSV_HEADER}\n{report.csv_row()}\n"
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("args, points, scale", [
    (["--family", "hadamard", "--p", "8"], 8, 1.0),
    (["--family", "sparse", "--p", "8", "--s", "2"], 4, 0.5),
])
def test_cli_diagnose_shatter_verifies_once(monkeypatch, capsys, args, points, scale):
    calls = []
    verify = complexity.ShatteringCertificate.verify

    def counting_verify(self, *a, **kw):
        calls.append(1)
        return verify(self, *a, **kw)

    monkeypatch.setattr(complexity.ShatteringCertificate, "verify", counting_verify)
    assert cli.main(["diagnose", "shatter", *args]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "family": args[1], "points": points, "scale": scale, "verified": True,
    }
    assert len(calls) == 1  # the constructor's check


def test_cli_error_is_machine_readable(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    doc = json.loads(err)
    assert "error" in doc and "message" in doc


def test_cli_small_ball_rejects_zero_reps(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(make_d1(1.0), inst_path)
    code = cli.main([
        "diagnose", "small-ball", "--instance", str(inst_path), "--alpha1", "0.5", "--reps", "0",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "ValueError", "message": "reps must be at least 1, got 0"}


def test_cli_critical_radius_names_a_singular_feature_map(tmp_path, capsys):
    # g = a zeroes the a = 0 arm, where alone (1, x, a, xa) differs from (1, x, 1, x)
    inst_path = tmp_path / "builtin.json"
    inst_path.write_text(json.dumps(builtin_doc(propensity="pi1", sigma0=0.15)))
    code = cli.main(["diagnose", "critical-radius", "--instance", str(inst_path), "--m", "100"])
    assert code == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError"
    assert doc["message"].startswith("feature map 'bilinear-xa' on this instance: ")
    assert "smallest eigenvalue" in doc["message"]
    assert doc["message"].endswith("; try --features state-linear")


def test_cli_closed_form_radius_names_a_numerically_singular_feature_map(tmp_path, capsys):
    # at gamma 0.5 the singular Sigma's smallest eigenvalue rounds to +2.9e-16
    inst_path = tmp_path / "builtin.json"
    inst_path.write_text(json.dumps(builtin_doc(propensity="pi1", gamma=0.5, sigma0=0.15)))
    code = cli.main([
        "diagnose", "critical-radius", "--instance", str(inst_path), "--m", "100",
        "--source", "closed-form-linear",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError"
    assert doc["message"].startswith("feature map 'bilinear-xa' on this instance: ")
    assert "smallest eigenvalue" in doc["message"]
    assert doc["message"].endswith("; try --features state-linear")


@pytest.mark.parametrize("command", ["critical-radius", "rademacher-profile"])
def test_cli_features_are_the_named_maps(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        cli.main(["diagnose", command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "the builtin missing-data family needs state-linear" in help_text
    with pytest.raises(SystemExit) as exc:
        cli.main(["diagnose", command, "--instance", str(tmp_path / "inst.json"),
                  "--m", "10", "--features", "quadratic"])
    assert exc.value.code == 2
    assert "invalid choice: 'quadratic'" in capsys.readouterr().err


def test_cli_diagnose_critical_radius_and_profile(tmp_path, capsys):
    inst = make_d1(1.0)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    assert cli.main([
        "diagnose", "critical-radius", "--instance", str(inst_path),
        "--m", "5000", "--kind", "r", "--source", "closed-form-linear",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["radius"] == 0.0  # d=4 features, m past the threshold
    assert cli.main([
        "diagnose", "critical-radius", "--instance", str(inst_path),
        "--m", "50", "--kind", "s", "--source", "mc", "--reps", "20",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "mc" and 0.0 < doc["radius"] < np.inf
    out = tmp_path / "profile.csv"
    assert cli.main([
        "diagnose", "rademacher-profile", "--instance", str(inst_path),
        "--m", "20", "--reps", "100", "--radii", "0.5", "1.0", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,estimate,stderr" and len(lines) == 3


def test_cli_rademacher_profile_without_out_writes_to_stdout(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(make_d1(1.0), inst_path)
    args = ["diagnose", "rademacher-profile", "--instance", str(inst_path), "--m", "20",
            "--reps", "50", "--radii", "0.5", "2.0"]
    out = tmp_path / "profile.csv"
    assert cli.main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_cli_rademacher_profile_scales_one_estimate(tmp_path, monkeypatch):
    inst = make_d1(1.0)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    mc, write = complexity.rademacher_R_mc, complexity.profile_csv_rows
    calls, seen = [], []

    def counted_mc(*args, **kwargs):
        calls.append(args)
        return mc(*args, **kwargs)

    def recorded_rows(rows):
        seen.extend(rows)
        return write(rows)

    monkeypatch.setattr(complexity, "rademacher_R_mc", counted_mc)
    monkeypatch.setattr(complexity, "profile_csv_rows", recorded_rows)
    radii = (0.5, 1.0, 2.0, 3.0)
    assert cli.main([
        "diagnose", "rademacher-profile", "--instance", str(inst_path), "--m", "20",
        "--reps", "200", "--seed", "4", "--radii", *map(str, radii),
        "--out", str(tmp_path / "profile.csv"),
    ]) == 0
    assert len(calls) == 1
    spec, _ = cli._ellipsoid_spec(inst, "bilinear-xa", radius=1.0)
    assert [r for r, _ in seen] == list(radii)
    for r, est in seen:
        direct = mc(inst, spec.with_radius(r), m=20, reps=200, seed=4)
        assert est.value == pytest.approx(direct.value, rel=1e-12)
        assert est.stderr == pytest.approx(direct.stderr, rel=1e-12)


def test_finite_custom_instance_by_path(tmp_path):
    inst = make_d1(0.5)
    inst_path = tmp_path / "d1.json"
    save_instance(inst, inst_path)
    config = ExperimentConfig(
        instance={"kind": "finite-custom", "path": str(inst_path)},
        estimators=("oracle",),
        n_grid=(100,),
        reps=20,
        master_seed=2,
    )
    table = run_experiment(config)
    assert table.rows[0].instance_id == inst.instance_id
    assert abs(table.rows[0].normalized_mse - ol.efficient_variance(inst)) < 5 * table.rows[0].mc_stderr
