"""Import cost: ``scipy.linalg``, ``scipy.optimize`` and ``numpy.random`` are
loaded on first use, not at import, and the theory commands never load
``scipy.linalg``: only the first stage's banded solve needs it.

Each check runs in a fresh interpreter, since the test process has loaded
scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ope_lab
from ope_lab.simlab import ExperimentConfig, run_experiment

SRC = str(Path(ope_lab.__file__).resolve().parents[1])
INSTANCE = {
    "kind": "builtin",
    "name": "missing-data",
    "params": {"propensity": "pi1", "gamma": 0.5, "sigma0": 0.3},
}
FINITE_INSTANCE = {
    "kind": "finite",
    "instance_id": "d1",
    "states": [0.0, 1.0],
    "probs": [0.5, 0.5],
    "actions": [0.0, 1.0],
    "base_weights": [1.0, 1.0],
    "propensity": [[0.8, 0.2], [0.4, 0.6]],
    "weight": [[-1.0, 1.0], [-1.0, 1.0]],
    "outcome_mean": [[1.0, 2.0], [0.0, 3.0]],
    "outcome_sd": [[1.0, 1.0], [1.0, 1.0]],
}


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_fresh(estimators: tuple, threads: int) -> dict:
    return _fresh(
        "import json, sys\n"
        "from ope_lab.simlab import ExperimentConfig, run_experiment\n"
        f"config = ExperimentConfig(instance={INSTANCE!r}, estimators={estimators!r},\n"
        f"    n_grid=(40,), reps=2, master_seed=7, threads={threads})\n"
        "csv = run_experiment(config).to_csv()\n"
        "print(json.dumps({'linalg': 'scipy.linalg' in sys.modules, 'csv': csv}))\n"
    )


def test_importing_the_package_leaves_scipy_linalg_unloaded():
    out = _fresh(
        "import json, sys\n"
        "import ope_lab, ope_lab.cli, ope_lab.simlab, ope_lab.complexity, ope_lab.lowerbounds\n"
        "print(json.dumps({'linalg': 'scipy.linalg' in sys.modules,\n"
        "                  'optimize': 'scipy.optimize' in sys.modules}))\n"
    )
    assert out == {"linalg": False, "optimize": False}


def test_importing_the_package_leaves_numpy_random_unloaded():
    # make_generator imports it on the first draw
    out = _fresh(
        "import json, sys\n"
        "import ope_lab, ope_lab.cli, ope_lab.simlab, ope_lab.complexity, ope_lab.lowerbounds\n"
        "before = 'numpy.random' in sys.modules\n"
        "ope_lab.make_generator(1).random()\n"
        "print(json.dumps({'before': before, 'after': 'numpy.random' in sys.modules}))\n"
    )
    assert out == {"before": False, "after": True}


def test_a_first_stage_pool_loads_scipy_linalg_before_the_fork():
    estimators = ("two-stage-weighted-krr",)
    out = _run_fresh(estimators, threads=2)
    # loaded in the parent, so the forked workers inherit it
    assert out["linalg"]
    single = ExperimentConfig(
        instance=INSTANCE, estimators=estimators, n_grid=(40,), reps=2, master_seed=7
    )
    assert out["csv"] == run_experiment(single).to_csv()


def test_a_pool_without_a_first_stage_leaves_scipy_linalg_unloaded():
    assert not _run_fresh(("ipw", "oracle"), threads=2)["linalg"]


def test_the_theory_commands_leave_scipy_linalg_unloaded(tmp_path):
    builtin, finite = tmp_path / "builtin.json", tmp_path / "finite.json"
    builtin.write_text(json.dumps(INSTANCE))
    finite.write_text(json.dumps(FINITE_INSTANCE))
    radius = ["diagnose", "critical-radius", "--instance", str(builtin), "--m", "50",
              "--features", "state-linear", "--reps", "20"]
    commands = {
        "critical-radius mc": radius + ["--source", "mc"],
        "critical-radius closed-form-linear": radius + ["--source", "closed-form-linear"],
        "rademacher-profile": ["diagnose", "rademacher-profile", "--instance", str(builtin),
                               "--m", "50", "--features", "state-linear", "--reps", "20"],
        "small-ball": ["diagnose", "small-ball", "--instance", str(builtin), "--alpha1", "0.5",
                       "--reps", "100"],
        "shatter hadamard": ["diagnose", "shatter", "--family", "hadamard", "--p", "16"],
        "shatter sparse": ["diagnose", "shatter", "--family", "sparse", "--p", "8", "--s", "2"],
        "lowerbound tilt": ["lowerbound", "tilt", "--instance", str(finite), "--n", "64"],
        "lowerbound sigma-pair": ["lowerbound", "sigma-pair", "--instance", str(finite),
                                  "--n", "64"],
        "lowerbound mixture": ["lowerbound", "mixture", "--instance", str(finite),
                               "--s", "0.25", "--reps", "50"],
    }
    # in one interpreter, in order: the first command to load it is the culprit
    out = _fresh(
        "import contextlib, io, json, sys\n"
        "from ope_lab import cli\n"
        "loaded = {}\n"
        f"for name, argv in {commands!r}.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, name\n"
        "    loaded[name] = 'scipy.linalg' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    assert out == {name: False for name in commands}
