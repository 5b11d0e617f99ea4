"""Import cost: ``scipy.linalg``, ``scipy.optimize`` and ``numpy.random`` are
loaded on first use, not at import.

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
