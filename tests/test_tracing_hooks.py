"""The names that the benchmark tracer patches must stay module attributes.

``benchmarks/tracing.py`` replaces functions where they are looked up; a
refactor that drops or moves one of them breaks ``--trace 1`` runs.  This
test loads the tracer by path and resolves every hook, without patching.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ope_lab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_is_an_attribute_of_its_owner():
    tracing = _load_tracing()
    modules = tracing.program_modules()
    paths = [path for _, span_paths in tracing.SPANS for path in span_paths]
    paths += ["simlab.ThreadPoolExecutor", "complexity.substream"]
    missing = []
    for path in paths:
        owner, attr = tracing._resolve(modules, path)
        if attr not in owner.__dict__:
            missing.append(path)
    assert missing == []
