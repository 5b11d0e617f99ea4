"""Span tracing installed from outside the program.

``Tracer.install`` replaces public functions of ``ope_lab`` modules with
wrappers that record a span per call: name, start, end, parent span and
thread.  Names a module imported by value are wrapped where they are looked
up (``simlab.sample_dataset``, ``core.adaptive_simpson``, ...), so every call
path is seen.  ``uninstall`` restores the originals.  Spans stay in memory
until ``write`` is called at the end of the run.

The per-layer metrics are derived from the spans: ``<name>.calls`` counts
spans and ``<name>.self_s`` sums each span's duration minus the time its
child spans cover.  Children are tracked per thread, so in a thread-pool run
the pool's waiting time counts as ``simlab.run_experiment`` self time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter

# (span name, module attribute paths that must all point at the wrapper)
SPANS = (
    ("regression.cross_validate_lambda", ("regression.cross_validate_lambda",)),
    ("regression.fit_weighted_krr", ("regression.fit_weighted_krr",)),
    ("regression.predict", ("regression.KernelRidgeModel.predict",)),
    ("estimators.two_stage_estimate", ("estimators.two_stage_estimate",)),
    ("estimators.ipw_estimate", ("estimators.ipw_estimate",)),
    ("estimators.oracle_estimate", ("estimators.oracle_estimate",)),
    ("estimators.generic_estimate", ("estimators.generic_estimate",)),
    ("core.sample_dataset", ("core.sample_dataset", "simlab.sample_dataset")),
    ("core.action_index", ("core.ProblemInstance.action_index",)),
    (
        "rng.make_generator",
        (
            "rng.make_generator",
            "core.make_generator",
            "regression.make_generator",
            "complexity.make_generator",
        ),
    ),
    ("simlab.run_experiment", ("simlab.run_experiment",)),
    (
        "quadrature.adaptive_simpson",
        ("quadrature.adaptive_simpson", "core.adaptive_simpson", "complexity.adaptive_simpson"),
    ),
    ("complexity.moment_matrices", ("complexity.moment_matrices",)),
    ("complexity.rademacher_S_mc", ("complexity.rademacher_S_mc",)),
    ("complexity.critical_radius", ("complexity.critical_radius",)),
    ("complexity.hadamard_glm_shatter", ("complexity.hadamard_glm_shatter",)),
    ("lowerbounds.delta_mixture", ("lowerbounds.delta_mixture",)),
    ("lowerbounds.tilted_instance", ("lowerbounds.tilted_instance",)),
    ("lowerbounds.sigma_perturbed_pair", ("lowerbounds.sigma_perturbed_pair",)),
)

# per-layer metrics reported from a traced run, in BENCHMARK.json order
LAYER_METRICS = (
    "regression.cross_validate_lambda.calls",
    "regression.cross_validate_lambda.self_s",
    "regression.fit_weighted_krr.calls",
    "regression.fit_weighted_krr.self_s",
    "regression.predict.calls",
    "regression.predict.self_s",
    "regression.fits_per_cv",
    "estimators.two_stage_estimate.calls",
    "estimators.two_stage_estimate.self_s",
    "estimators.ipw_estimate.self_s",
    "estimators.oracle_estimate.self_s",
    "estimators.generic_estimate.self_s",
    "core.sample_dataset.calls",
    "core.sample_dataset.self_s",
    "core.action_index.calls",
    "rng.make_generator.calls",
    "rng.make_generator.self_s",
    "simlab.run_experiment.self_s",
    "simlab.pools_created",
    "quadrature.adaptive_simpson.calls",
    "quadrature.adaptive_simpson.self_s",
    "quadrature.integrand_evals",
    "complexity.moment_matrices.self_s",
    "complexity.rademacher_S_mc.calls",
    "complexity.rademacher_S_mc.self_s",
    "complexity.mc_draws",
    "complexity.critical_radius.self_s",
    "complexity.hadamard_glm_shatter.self_s",
    "lowerbounds.delta_mixture.self_s",
    "lowerbounds.tilted_instance.self_s",
    "lowerbounds.sigma_perturbed_pair.self_s",
    "trace.overhead_s",
)


def program_modules() -> dict:
    """The ``ope_lab`` modules the tracer patches, by short name."""
    from ope_lab import complexity, core, estimators, lowerbounds, quadrature, regression, rng, simlab

    return {
        "complexity": complexity, "core": core, "estimators": estimators,
        "lowerbounds": lowerbounds, "quadrature": quadrature, "regression": regression,
        "rng": rng, "simlab": simlab,
    }


def _resolve(modules: dict, path: str):
    """Split ``mod.Attr.name`` into (owner object, attribute name)."""
    head, *rest = path.split(".")
    owner = modules[head]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, thread id)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, threading.get_ident())

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced function; ``modules`` maps short names to modules."""
        for name, paths in SPANS:
            owner, attr = _resolve(modules, paths[0])
            original = getattr(owner, attr)
            if name == "quadrature.adaptive_simpson":
                original = self._counting_integrand(original)
            wrapper = self._span(name, original)
            for path in paths:
                owner, attr = _resolve(modules, path)
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

        tracer = self
        simlab = modules["simlab"]
        base_pool = simlab.ThreadPoolExecutor

        class CountingPool(base_pool):
            def __init__(self, *args, **kwargs):
                tracer._count("simlab.pools_created")
                super().__init__(*args, **kwargs)

        complexity = modules["complexity"]
        substream = complexity.substream

        def counting_substream(*args, **kwargs):
            tracer._count("complexity.mc_draws")
            return substream(*args, **kwargs)

        for owner, attr, value in (
            (simlab, "ThreadPoolExecutor", CountingPool),
            (complexity, "substream", counting_substream),
        ):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _counting_integrand(self, simpson):
        tracer = self

        def adaptive_simpson(fn, *args, **kwargs):
            def counted(x):
                tracer._count("quadrature.integrand_evals", len(x))
                return fn(x)

            return simpson(counted, *args, **kwargs)

        return adaptive_simpson

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = {name: 0.0 for name, _ in SPANS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        fits_in_cv = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "regression.fit_weighted_krr"
            and parent >= 0
            and self.spans[parent][0] == "regression.cross_validate_lambda"
        )
        cv_calls = calls["regression.cross_validate_lambda"]
        values = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[base]
            elif kind == "self_s":
                values[metric] = self_s[base]
        values["regression.fits_per_cv"] = fits_in_cv / cv_calls if cv_calls else 0.0
        for key in ("simlab.pools_created", "quadrature.integrand_evals", "complexity.mc_draws"):
            values[key] = self.counts[key]
        return values

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "thread": thread}
                    )
                    + "\n"
                )
