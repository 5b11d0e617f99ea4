import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ope_lab as ol
from ope_lab import core, estimators, simlab
from ope_lab import rng as rng_module
from ope_lab._philox import PhiloxKey
from ope_lab.core import (
    dataset_to_csv,
    finite_instance_from_json,
    instance_to_json,
    read_dataset_csv,
    write_dataset_csv,
)
from ope_lab.quadrature import QuadratureError, adaptive_simpson
from ope_lab.rng import make_generator, mix_seed

from conftest import instance_from_random_tables, make_d1, random_finite_tables
from oracles import (
    brute_efficient_variance,
    brute_excess_variance,
    brute_true_functional,
    brute_weighted_norm_sq,
)


def const_fn(c):
    return lambda x, a: np.full(np.broadcast(np.asarray(x), np.asarray(a)).shape, float(c))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_simpson_polynomial_exact():
    val = adaptive_simpson(lambda x: 3 * x**2, 0.0, 1.0)
    assert abs(val - 1.0) < 1e-12
    assert adaptive_simpson(lambda x: 3 * x**2, 0.3, 0.3) == 0.0


def test_simpson_kinked_integrand():
    tent = lambda x: 0.5 - np.abs(x - 0.5)
    assert abs(adaptive_simpson(lambda x: tent(x) ** 2) - 1.0 / 12.0) < 1e-9


def test_simpson_array_integrand_matches_scalar_calls():
    parts = (
        lambda x: np.sin(10.0 * x),
        lambda x: np.abs(x - 0.3),
        lambda x: 1.0 / (0.01 + (x - 0.5) ** 2),
    )
    tol = 1e-8
    # shape (m, 3, 1): every component on one mesh
    joint = adaptive_simpson(lambda x: np.stack([f(x) for f in parts], axis=1)[:, :, None], tol=tol)
    assert joint.shape == (3, 1)
    for value, f in zip(joint[:, 0], parts):
        scalar = adaptive_simpson(f, tol=tol)
        assert type(scalar) is float
        assert abs(value - scalar) <= tol


def test_simpson_budget_error_carries_tolerance():
    # high-frequency integrand with a tiny budget
    with pytest.raises(QuadratureError) as err:
        adaptive_simpson(lambda x: np.sin(1000 * x), 0.0, 1.0, tol=1e-14, max_subdivisions=4)
    assert err.value.achieved_tol > 0


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------


def test_action_space_validation():
    with pytest.raises(ValueError):
        ol.ActionSpace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ol.ActionSpace(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ol.ActionSpace(np.array([]), np.array([]))


def test_finite_states_validation():
    with pytest.raises(ValueError):
        ol.FiniteStates(np.array([0.0, 1.0]), np.array([0.6, 0.5]))
    with pytest.raises(ValueError):
        ol.FiniteStates(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))


def test_instance_rejects_unnormalized_propensity():
    with pytest.raises(ol.PropensityError) as err:
        ol.ProblemInstance.from_tables(
            states=[0.0],
            probs=[1.0],
            actions=[0.0, 1.0],
            propensity_table=[[0.5, 0.4]],
            weight_table=[[0.0, 1.0]],
            outcome_mean_table=[[0.0, 0.0]],
            outcome_sd_table=[[0.0, 0.0]],
        )
    assert err.value.state == 0.0


def test_instance_rejects_zero_overlap():
    with pytest.raises(ol.PropensityError):
        ol.ProblemInstance.from_tables(
            states=[0.0],
            probs=[1.0],
            actions=[0.0, 1.0],
            propensity_table=[[1.0, 0.0]],
            weight_table=[[0.0, 1.0]],
            outcome_mean_table=[[0.0, 0.0]],
            outcome_sd_table=[[0.0, 0.0]],
        )


def _d1_table_args(sigma=1.0):
    return dict(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[-1.0, 1.0], [-1.0, 1.0]],
        outcome_mean_table=[[1.0, 2.0], [0.0, 3.0]],
        outcome_sd_table=[[sigma, sigma], [sigma, sigma]],
    )


@pytest.mark.parametrize("table", ["propensity", "weight", "outcome_mean", "outcome_sd"])
def test_from_tables_rejects_a_non_finite_cell_naming_it(table):
    args = _d1_table_args()
    cells = [list(row) for row in args[f"{table}_table"]]
    cells[1][0] = np.nan
    args[f"{table}_table"] = cells
    cell = r"\(state 1\.0, action 0\.0\)"
    with pytest.raises(ValueError, match=rf"{table} table is not finite at {cell}"):
        ol.ProblemInstance.from_tables(**args)


def test_from_tables_rejects_a_misshapen_table():
    args = _d1_table_args()
    args["weight_table"] = [[-1.0, 1.0]]
    with pytest.raises(ValueError, match=r"weight table has shape \(1, 2\), expected \(2, 2\)"):
        ol.ProblemInstance.from_tables(**args)


def test_finite_states_reject_a_nan_probability():
    args = _d1_table_args()
    args["probs"] = [np.nan, 0.5]
    with pytest.raises(ValueError, match=r"state probability of state 0\.0 is nan"):
        ol.ProblemInstance.from_tables(**args)


def test_instance_checks_reject_nan_from_callables():
    base = simlab.build_builtin_instance("pi1")

    def nan_propensity(x):
        p = base.propensity(x)
        p[np.asarray(x) == 0.0] = np.nan
        return p

    with pytest.raises(ol.PropensityError) as err:
        dataclasses.replace(base, propensity=nan_propensity)
    assert err.value.state == 0.0
    with pytest.raises(ValueError, match="outcome_sd must be non-negative"):
        dataclasses.replace(base, outcome_sd=lambda x, a: np.full(np.shape(x), np.nan))


@pytest.mark.parametrize("kind, state", [("finite", "1.0"), ("builtin", "0.0")])
@pytest.mark.parametrize("field, bad", [
    ("weight_fn", np.nan), ("weight_fn", -np.inf), ("outcome_mean", np.nan),
    ("outcome_mean", np.inf), ("outcome_sd", np.inf),
])
def test_instance_rejects_a_non_finite_field_naming_the_cell(kind, state, field, bad):
    base = make_d1(1.0) if kind == "finite" else simlab.build_builtin_instance("pi1")
    own = getattr(base, field)

    def faulty(x, a):
        values = np.asarray(own(x, a), dtype=float) * np.ones(np.broadcast(x, a).shape)
        return np.where((x == float(state)) & (a == 0.0), bad, values)

    cell = rf"\(state {state}, action 0\.0\): {bad}"
    with pytest.raises(ValueError, match=rf"^{field} is not finite at {cell}"):
        dataclasses.replace(base, **{field: faulty})


@pytest.mark.parametrize("fault", ["negative", "mass"])
def test_sampling_names_the_offending_sampled_state(fault):
    # the propensity passes the probe grid and fails off it above 1/2
    base = simlab.build_builtin_instance("pi1")
    grid = base.probe_states()

    def propensity(x):
        p = base.propensity(x)
        off = ~np.isin(x, grid) & (x > 0.5)
        if fault == "negative":
            p[off, 1] = -p[off, 1]
        else:
            p[off] *= 1.0 + x[off, None]
        return p

    inst = dataclasses.replace(base, propensity=propensity)
    x = make_generator(11).random(40)  # the uniform state draw of seed 11
    with pytest.raises(ol.PropensityError) as err:
        ol.sample_dataset(inst, 40, seed=11)
    # the first offending row (row 7), or the row with the largest mass error
    want = x[np.argmax(x > 0.5)] if fault == "negative" else x.max()
    message = "negative action probability" if fault == "negative" else "has mass"
    assert err.value.state == want
    assert f"at sampled state {want}" in str(err.value) and message in str(err.value)


def _faulty_above_half(fault: str):
    """The hard builtin instance with the propensity of
    ``test_sampling_names_the_offending_sampled_state``: it passes the probe
    grid and, off it above 1/2, is negative or has mass 1 + x."""
    base = simlab.build_builtin_instance("pi1")
    grid = base.probe_states()

    def propensity(x):
        p = base.propensity(x)
        off = ~np.isin(x, grid) & (x > 0.5)
        if fault == "negative":
            p[off, 1] = -p[off, 1]
        else:
            p[off] *= 1.0 + x[off, None]
        return p

    return dataclasses.replace(base, propensity=propensity)


@pytest.mark.parametrize("fault", ["negative", "mass"])
def test_a_draw_of_many_generators_names_the_state_of_its_first_failing_replication(fault):
    inst = _faulty_above_half(fault)
    seeds = [s for s in range(40) if make_generator(s).random(3).max() <= 0.5][:1]
    seeds += [s for s in range(40) if make_generator(s).random(3).min() > 0.5][:2]
    states = [make_generator(s).random(3) for s in seeds]
    # the first replication passes; the third has a worse mass than the second
    assert len(seeds) == 3 and states[2].max() > states[1].max()
    with pytest.raises(ol.PropensityError) as one:
        ol.sample_dataset(inst, 3, seed=seeds[1])
    with pytest.raises(ol.PropensityError) as block:
        core._draw(inst, 3, *(make_generator(s) for s in seeds))
    assert (str(block.value), block.value.state) == (str(one.value), one.value.state)


def test_normalization_holds_on_probe_grid(d1):
    probe = d1.probe_states()
    mass = d1.propensity(probe) @ d1.actions.base_weights
    assert np.max(np.abs(mass - 1.0)) <= 1e-10
    inst = simlab.build_builtin_instance("pi1")
    probe = inst.probe_states()
    mass = inst.propensity(probe) @ inst.actions.base_weights
    assert np.max(np.abs(mass - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_noiseless_outcomes_equal_mean(d1):
    data = ol.sample_dataset(d1, 3, seed=7)
    mu = d1.outcome_mean(data.x, data.a)
    assert np.array_equal(data.y, mu)


def test_sampling_deterministic(d1):
    d_a = ol.sample_dataset(d1, 50, seed=12345)
    d_b = ol.sample_dataset(d1, 50, seed=12345)
    assert np.array_equal(d_a.x, d_b.x)
    assert np.array_equal(d_a.a, d_b.a)
    assert np.array_equal(d_a.y, d_b.y)
    assert dataset_to_csv(d_a) == dataset_to_csv(d_b)


def test_state_frequencies_match_distribution(d1):
    n = 10**5
    data = ol.sample_dataset(d1, n, seed=1)
    freq = np.mean(data.x == 0.0)
    band = 3.0 * np.sqrt(0.25 / n)
    assert abs(freq - 0.5) < band


def test_action_frequencies_follow_propensity(d1):
    n = 10**5
    data = ol.sample_dataset(d1, n, seed=3)
    at0 = data.a[data.x == 0.0]
    assert abs(np.mean(at0 == 1.0) - 0.2) < 3.0 * np.sqrt(0.2 * 0.8 / at0.size)


def test_sample_requires_positive_n(d1):
    with pytest.raises(ValueError):
        ol.sample_dataset(d1, 0, seed=0)


def test_sample_dataset_draw_is_pinned():
    # recorded before sampling drew by index: rng.choice, rng.random and
    # standard_normal must keep their order and their number of draws
    data = ol.sample_dataset(make_d1(1.0), 16, seed=2024)
    assert data.x.tolist() == [1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1]
    assert data.a.tolist() == [0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0]
    assert [v.hex() for v in data.y] == [
        "0x1.f50012d28c072p-4", "0x1.4bcbd9b01ca90p-3", "0x1.4a55c85c74db9p+0",
        "0x1.422dcd02fff06p+1", "0x1.ffcecfbe81fd4p+0", "0x1.586aa3c9b3d08p+1",
        "-0x1.0a5c58df6540dp-1", "-0x1.d9442122a27efp-2", "0x1.acc97cc7a3f43p+1",
        "-0x1.27dd887d02645p-1", "0x1.bbae1c09b9590p+0", "0x1.9c174ec7885f9p+1",
        "0x1.32a2d14b8f9acp+1", "0x1.96a028f04d3fep+0", "0x1.245371490cff0p+0",
        "-0x1.0f21d3b3764b9p+0",
    ]


def test_pair_draw_is_rng_choice_then_a_cumulative_sum():
    # five states, four actions with unequal base weights
    inst = instance_from_random_tables(random_finite_tables(np.random.default_rng(3), 5, 4))
    _, _, ai, si, _ = core._draw_pairs(inst, 4000, make_generator(11))
    rng = make_generator(11)
    si_want = rng.choice(5, size=4000, p=inst.states.probs)
    joint = inst.propensity.table[si_want] * inst.actions.base_weights
    ai_want = np.minimum((np.cumsum(joint, axis=1) < rng.random(4000)[:, None]).sum(axis=1), 3)
    assert np.array_equal(si, si_want) and np.array_equal(ai, ai_want)
    assert set(ai.tolist()) == {0, 1, 2, 3}


class _Counted:
    """A function that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.mark.parametrize("n_actions", [1, 9])
def test_pair_draw_reads_tables_built_at_construction(n_actions):
    # unequal base weights; after construction a draw evaluates no field
    base = instance_from_random_tables(random_finite_tables(np.random.default_rng(7), 6, n_actions))
    fields = ("propensity", "weight_fn", "outcome_mean", "outcome_sd")
    inst = dataclasses.replace(base, **{name: _Counted(getattr(base, name)) for name in fields})
    for name in fields:
        getattr(inst, name).calls = 0
    drawn = make_generator(11)
    _, _, ai, si, _ = core._draw_pairs(inst, 4000, drawn)
    ol.sample_dataset(inst, 50, seed=3)
    assert [getattr(inst, name).calls for name in fields] == [0, 0, 0, 0]
    rng = make_generator(11)
    si_want = rng.choice(6, size=4000, p=inst.states.probs)
    joint = inst.propensity.fn.table[si_want] * inst.actions.base_weights
    cum = np.cumsum(joint, axis=1)
    ai_want = np.minimum((cum < rng.random(4000)[:, None]).sum(axis=1), n_actions - 1)
    assert np.array_equal(si, si_want) and np.array_equal(ai, ai_want)
    assert set(ai.tolist()) == set(range(n_actions))
    # the draw advanced the generator as far as the reference
    assert np.array_equal(drawn.random(8), rng.random(8))


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, mix_seed(5, "cell", 2)])
def test_make_generator_is_philox_keyed_by_the_seed_and_the_pad(seed):
    got = make_generator(seed)
    key = np.array([seed & (2**64 - 1), rng_module._KEY_PAD], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key))
    assert np.array_equal(got.random(64), want.random(64))
    assert np.array_equal(got.standard_normal(64), want.standard_normal(64))


def test_the_philox_key_hands_out_two_uint64_words_only():
    words = np.array([3, rng_module._KEY_PAD], dtype=np.uint64)
    key = PhiloxKey(words)
    assert key.generate_state(2, np.uint64) is words
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError, match="a Philox key is 2 uint64 words"):
            key.generate_state(n_words, dtype)
    # as with Philox(key=...), the generator has no seed sequence to spawn from
    with pytest.raises(TypeError, match="does not implement spawning"):
        make_generator(3).spawn(1)


def _three_action_instance():
    # three actions with unequal base weights: lambda-mass 1 in every row
    return ol.ProblemInstance.from_tables(
        states=[0.0, 0.5, 1.0],
        probs=[0.3, 0.3, 0.4],
        actions=[0.0, 1.0, 2.0],
        base_weights=[1.0, 0.5, 2.0],
        propensity_table=[[0.4, 0.4, 0.2], [0.2, 0.8, 0.2], [0.5, 0.2, 0.2]],
        weight_table=[[0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [0.0, 2.0, 1.0]],
        outcome_mean_table=[[1.0, 2.0, 0.5], [0.0, 3.0, -1.0], [2.0, 1.0, 0.0]],
        outcome_sd_table=[[0.5, 1.0, 0.2], [0.3, 0.3, 0.3], [1.0, 0.1, 0.7]],
    )


def test_pairs_carry_the_propensity_rows_of_their_states():
    for inst in (_three_action_instance(), simlab.build_builtin_instance("pi2", gamma=0.5)):
        drawn = core._draw_pairs(inst, 300, make_generator(4))
        located = inst.locate(drawn.x, drawn.a)
        want = np.asarray(inst.propensity(drawn.x), dtype=float)
        assert np.array_equal(drawn.p, want) and np.array_equal(located.p, want)
        assert np.array_equal(located.ai, drawn.ai)


@pytest.mark.parametrize("case", ["gamma0", "gamma0.5", "gamma1", "three-actions"])
def test_pair_grid_is_the_state_major_broadcast_bit_for_bit(case):
    # sizes on both sides of core.COLUMN_COPY_MIN
    if case == "three-actions":
        inst = _three_action_instance()
        x = make_generator(5).choice(inst.states.values, size=1001)
    else:
        inst = simlab.build_builtin_instance("pi1", gamma=float(case[5:]), sigma0=0.7)
        x = np.concatenate([[0.0, 0.5, 1.0], make_generator(5).random(998)])
    labels = inst.actions.labels
    rng = make_generator(6)
    xs = rng.random(60)
    linear = ol.FirstStageSpec(regressor_id="weighted-linear", feature_map="bilinear-xa")
    kernel = ol.FirstStageSpec(regressor_id="weighted-krr", lambda_grid=(0.5,))
    fits = [
        estimators._fit_first_stage(spec, xs, rng.choice(labels, 60), rng.normal(size=60),
                                    rng.uniform(0.5, 2.0, 60), seed=0)
        for spec in (linear, kernel)
    ]
    for fn in (inst.weight_fn, inst.outcome_mean, inst.outcome_sd, const_fn(2.0), *fits):
        for pts in (x[:3], x[:core.COLUMN_COPY_MIN - 1], x):
            got = inst._pair_grid(fn, pts)
            want = np.asarray(fn(pts[:, None], labels[None, :]), dtype=float) * np.ones((pts.size, labels.size))
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def test_table_index_follows_the_given_state_and_action_order():
    inst = ol.ProblemInstance.from_tables(
        states=[1.0, 0.0],
        probs=[0.5, 0.5],
        actions=[1.0, 0.0],
        propensity_table=[[0.6, 0.4], [0.2, 0.8]],
        weight_table=[[1.0, -1.0], [1.0, -1.0]],
        outcome_mean_table=[[3.0, 0.0], [2.0, 1.0]],
        outcome_sd_table=[[0.5, 0.5], [0.5, 0.5]],
    )
    pairs = inst.locate(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    assert pairs.si.tolist() == [1, 0, 0] and pairs.ai.tolist() == [1, 1, 0]
    assert inst.outcome_mean(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0])).tolist() == [1.0, 0.0, 3.0]
    assert simlab.build_builtin_instance("pi1").locate(np.zeros(1), np.zeros(1)).si is None


def test_table_lookup_of_unknown_state_names_it(d1):
    with pytest.raises(KeyError, match=r"value 0\.5 not found"):
        d1.outcome_mean(np.array([0.0, 0.5]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# exact functionals against independent enumeration
# ---------------------------------------------------------------------------


def test_d1_reference_values(d1, d1_noisy):
    assert abs(ol.true_functional(d1) - 2.0) < 1e-12
    norm_sq = ol.weighted_norm(d1, const_fn(1.0)) ** 2
    assert abs(norm_sq - 5.208333333333333) < 1e-12
    assert abs(ol.efficient_variance(d1) - 1.0) < 1e-12
    assert abs(ol.efficient_variance(d1_noisy) - 6.208333333333333) < 1e-12


def test_zero_weight_gives_zero_functional():
    inst = ol.ProblemInstance.from_tables(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[0.0, 0.0], [0.0, 0.0]],
        outcome_mean_table=[[1.0, 2.0], [0.0, 3.0]],
        outcome_sd_table=[[0.0, 0.0], [0.0, 0.0]],
    )
    assert ol.true_functional(inst) == 0.0
    fstar = ol.optimal_auxiliary(inst)
    probe = np.array([0.0, 1.0])
    assert np.max(np.abs(fstar(probe[:, None], np.array([[0.0, 1.0]])))) == 0.0


def test_tent_instance_functional():
    inst = simlab.build_builtin_instance("pi1", gamma=0.0)
    assert abs(ol.true_functional(inst) - 0.25) < 1e-8


@pytest.mark.parametrize(
    "propensity, pinned",
    [
        (
            "pi1",
            ("0x1.0000000000000p-2", "0x1.03286166b2116p+2",
             "0x1.7d01099b3bf06p-2", "0x1.596de8ca11bfcp-5"),
        ),
        (
            "pi2",
            ("0x1.0000000000000p-2", "0x1.03286166b2116p+2",
             "0x1.c70a283951f80p+1", "0x1.596de8ca11bfcp-5"),
        ),
    ],
)
def test_builtin_functionals_are_pinned(propensity, pinned):
    # the quadrature's bits: tau, the efficient variance, and the excess
    # variance (value, gap) of one fixed first stage
    inst = simlab.build_builtin_instance(propensity, gamma=0.5)
    mubar = lambda x, a: np.asarray(a, dtype=float) * (0.3 + 0.2 * np.asarray(x, dtype=float) ** 2)
    ev = ol.excess_variance(inst, mubar)
    values = (ol.true_functional(inst), ol.efficient_variance(inst), ev.value, ev.gap)
    assert all(type(v) is float for v in values)
    assert tuple(v.hex() for v in values) == pinned


def test_oracle_equivalence_random_finite_instances():
    rng = np.random.default_rng(202)
    for _ in range(12):
        n_states = int(rng.integers(1, 9))
        n_actions = int(rng.integers(1, 5))
        tables = random_finite_tables(rng, n_states, n_actions)
        inst = instance_from_random_tables(tables)
        probs, lam = tables["probs"].tolist(), tables["lam"].tolist()
        pi, g = tables["pi"].tolist(), tables["g"].tolist()
        mu, sd = tables["mu"].tolist(), tables["sd"].tolist()

        assert abs(
            ol.true_functional(inst) - brute_true_functional(probs, lam, g, mu)
        ) < 1e-12
        ones = [[1.0] * n_actions for _ in range(n_states)]
        assert abs(
            ol.weighted_norm(inst, const_fn(1.0)) ** 2
            - brute_weighted_norm_sq(probs, lam, pi, g, ones)
        ) < 1e-12
        assert abs(
            ol.efficient_variance(inst)
            - brute_efficient_variance(probs, lam, pi, g, mu, sd)
        ) < 1e-11


def test_weighted_norm_scaling(d1):
    h = const_fn(1.0)
    h3 = lambda x, a: -3.0 * h(x, a)
    assert abs(ol.weighted_norm(d1, h3) - 3.0 * ol.weighted_norm(d1, h)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    c=st.floats(-10, 10, allow_nan=False),
    vals=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_weighted_norm_homogeneity_and_triangle(c, vals):
    inst = make_d1(0.0)
    table_h = [[vals[0], vals[1]], [vals[2], vals[3]]]
    h = lambda x, a: np.asarray(table_h)[
        np.asarray(x, dtype=int), np.asarray(a, dtype=int)
    ]
    ch = lambda x, a: c * h(x, a)
    one = const_fn(1.0)
    plus = lambda x, a: h(x, a) + one(x, a)
    nh, none_, nplus = (
        ol.weighted_norm(inst, h),
        ol.weighted_norm(inst, one),
        ol.weighted_norm(inst, plus),
    )
    assert abs(ol.weighted_norm(inst, ch) - abs(c) * nh) < 1e-9 * max(1.0, abs(c))
    assert nplus <= nh + none_ + 1e-9


def test_constant_outcome_with_contrast_weight_has_zero_variance():
    inst = ol.ProblemInstance.from_tables(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[-1.0, 1.0], [-1.0, 1.0]],
        outcome_mean_table=[[2.5, 2.5], [2.5, 2.5]],
        outcome_sd_table=[[0.0, 0.0], [0.0, 0.0]],
    )
    assert abs(ol.efficient_variance(inst)) < 1e-12


# ---------------------------------------------------------------------------
# optimal auxiliary
# ---------------------------------------------------------------------------


def test_optimal_auxiliary_d1_value(d1):
    fstar = ol.optimal_auxiliary(d1)
    val = fstar(np.array([0.0]), np.array([1.0]))[0]
    assert abs(val - 9.0) < 1e-12


def test_optimal_auxiliary_constant_outcome():
    c = 2.5
    inst = ol.ProblemInstance.from_tables(
        states=[0.0, 1.0],
        probs=[0.5, 0.5],
        actions=[0.0, 1.0],
        propensity_table=[[0.8, 0.2], [0.4, 0.6]],
        weight_table=[[-1.0, 1.0], [-1.0, 1.0]],
        outcome_mean_table=[[c, c], [c, c]],
        outcome_sd_table=[[0.0, 0.0], [0.0, 0.0]],
    )
    fstar = ol.optimal_auxiliary(inst)
    pi = np.array([[0.8, 0.2], [0.4, 0.6]])
    g = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    for i, xval in enumerate([0.0, 1.0]):
        for k, aval in enumerate([0.0, 1.0]):
            want = g[i, k] * c / pi[i, k]
            got = fstar(np.array([xval]), np.array([aval]))[0]
            assert abs(got - want) < 1e-12


def test_optimal_auxiliary_minimizes_exact_variance():
    # any zero-mean perturbation of the ideal auxiliary can only add variance
    rng = np.random.default_rng(7)
    from oracles import brute_exact_estimator_variance

    tables = random_finite_tables(rng, 4, 3)
    inst = instance_from_random_tables(tables)
    probs, lam = tables["probs"].tolist(), tables["lam"].tolist()
    pi, g = tables["pi"].tolist(), tables["g"].tolist()
    mu, sd = tables["mu"].tolist(), tables["sd"].tolist()
    inner = [
        sum(lam[k] * g[i][k] * mu[i][k] for k in range(3)) for i in range(4)
    ]
    fstar = [[g[i][k] * mu[i][k] / pi[i][k] - inner[i] for k in range(3)] for i in range(4)]
    v_at_star = brute_exact_estimator_variance(probs, lam, pi, g, mu, sd, fstar)
    for _ in range(25):
        raw = rng.normal(size=(4, 3))
        # project each state row onto the zero-conditional-mean subspace
        f = [
            [
                fstar[i][k]
                + raw[i, k]
                - sum(lam[j] * pi[i][j] * raw[i, j] for j in range(3))
                for k in range(3)
            ]
            for i in range(4)
        ]
        v_at_f = brute_exact_estimator_variance(probs, lam, pi, g, mu, sd, f)
        assert v_at_f - v_at_star >= -1e-12


def test_zero_mean_flag_verification(d1):
    fstar = ol.optimal_auxiliary(d1)
    assert np.max(np.abs(d1.conditional_mean(fstar, d1.probe_states()))) <= 1e-8


# ---------------------------------------------------------------------------
# excess variance
# ---------------------------------------------------------------------------


def test_excess_variance_at_truth_is_zero(d1):
    ev = ol.excess_variance(d1, d1.outcome_mean)
    assert abs(ev.value) < 1e-12 and abs(ev.gap) < 1e-12


def test_excess_variance_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(8):
        tables = random_finite_tables(rng, 3, 2)
        inst = instance_from_random_tables(tables)
        ev = ol.excess_variance(inst, const_fn(0.0))
        zeros = [[0.0, 0.0]] * 3
        brute = brute_excess_variance(
            tables["probs"].tolist(),
            tables["lam"].tolist(),
            tables["pi"].tolist(),
            tables["g"].tolist(),
            tables["mu"].tolist(),
            zeros,
        )
        assert abs(ev.value - brute) < 1e-11
        norm_sq = ol.weighted_norm(inst, inst.outcome_mean) ** 2
        assert abs(ev.value + ev.gap - norm_sq) < 1e-10


def test_excess_variance_constant_shift_for_contrast_weight(d1):
    c = 0.7
    shifted = lambda x, a: d1.outcome_mean(x, a) + c
    ev = ol.excess_variance(d1, shifted)
    # constants cancel inside the action contrast: the gap stays at the
    # truth's value (zero), while the conditional variance picks up the shift
    assert abs(ev.gap) < 1e-12
    norm_c_sq = ol.weighted_norm(d1, const_fn(c)) ** 2
    assert abs(ev.value - norm_c_sq) < 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_instance_json_round_trip(d1_noisy):
    doc = instance_to_json(d1_noisy)
    back = finite_instance_from_json(doc)
    assert abs(ol.true_functional(back) - 2.0) < 1e-12
    assert abs(ol.efficient_variance(back) - ol.efficient_variance(d1_noisy)) < 1e-12


def test_dataset_csv_round_trip(tmp_path, d1_noisy):
    data = ol.sample_dataset(d1_noisy, 25, seed=99)
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    assert back.seed == 99
    assert back.instance_id == data.instance_id
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.a, data.a)
    assert np.array_equal(back.y, data.y)


@pytest.mark.parametrize("column", ["x", "a", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_naming_row(column, bad):
    cols = {"x": np.array([0.0, 1.0, 1.0]), "a": np.array([1.0, 0.0, 1.0]),
            "y": np.array([2.0, 0.0, 1.0])}
    cols[column][1] = bad
    with pytest.raises(ValueError, match="row 1 is not finite"):
        ol.Dataset(**cols, seed=0, instance_id="d1")


def test_read_dataset_csv_skips_blank_lines_and_needs_a_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# seed=3 instance_id=d1\n\nx,a,y\n0,1,2.0\n\n1,0,0.5\n")
    back = read_dataset_csv(path)
    assert (back.seed, back.instance_id) == (3, "d1")
    assert np.array_equal(np.column_stack([back.x, back.a, back.y]), [[0.0, 1.0, 2.0], [1.0, 0.0, 0.5]])
    path.write_text("# seed=3 instance_id=d1\nx,a,y\n\n")
    with pytest.raises(ValueError, match=rf"^no data rows in {re.escape(str(path))}$"):
        read_dataset_csv(path)


def test_read_dataset_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# seed=3 instance_id=d1\nx,a,y\n0,1,2.0\n1,0,0.5\n1,1,nan\n")
    with pytest.raises(ValueError, match="row 2 is not finite"):
        read_dataset_csv(path)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


UNIFORM_SAMPLER = lambda rng, n: rng.random(n)


def _read_dataset_text(text: str):
    """``read_dataset_csv`` on a file ``data.csv`` that holds ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.csv")
        path.write_text(text)
        return read_dataset_csv(path)


# what ``read_dataset_csv`` (and so ``ope-lab estimate``) says of a bad line
CSV_LINE = r"^.+[/\\]data\.csv line "
INPUT_CHECKS = {
    "csv-short-row": (
        lambda: _read_dataset_text("# seed=3\nx,a,y\n0,1,2.0\n1,0\n1,1,0.5\n"),
        ValueError, CSV_LINE + r"4: 2 fields, not the 3 of x,a,y$",
    ),
    "csv-every-row-short": (
        lambda: _read_dataset_text("x,a,y\n0,1\n1,0\n"),
        ValueError, CSV_LINE + r"2: 2 fields, not the 3 of x,a,y$",
    ),
    "csv-bad-cell": (
        lambda: _read_dataset_text("x,a,y\n0,1,2.0\n1,abc,0.5\n"),
        ValueError, CSV_LINE + r"3: could not convert string to float: 'abc'$",
    ),
    "csv-non-finite-cell": (
        lambda: _read_dataset_text("x,a,y\n0,1,2\n1,0,nan\n"),
        ValueError, CSV_LINE + r"3: dataset row 1 is not finite: \(x, a, y\) = \(1\.0, 0\.0, nan\)$",
    ),
    "csv-inf-after-a-blank-line": (
        lambda: _read_dataset_text("# seed=3\nx,a,y\n0,1,2\n\n-inf,0,1\n"),
        ValueError, CSV_LINE + r"5: dataset row 1 is not finite: \(x, a, y\) = \(-inf, 0\.0, 1\.0\)$",
    ),
    "builtin-pi-min-zero": (
        lambda: simlab.build_builtin_instance("pi1", pi_min=0.0),
        ValueError, r"^pi_min must lie in \(0, 0\.5\], got 0\.0$",
    ),
    "builtin-pi-min-above-half": (
        lambda: simlab.build_builtin_instance("pi2", pi_min=0.7),
        ValueError, r"^pi_min must lie in \(0, 0\.5\], got 0\.7$",
    ),
    "builtin-pi-min-nan": (
        lambda: simlab.build_builtin_instance("pi1", pi_min=float("nan")),
        ValueError, r"^pi_min must lie in \(0, 0\.5\], got nan$",
    ),
    "csv-bad-seed": (
        lambda: _read_dataset_text("# seed=x instance_id=d1\nx,a,y\n0,1,2.0\n"),
        ValueError, CSV_LINE + r"1: invalid literal for int\(\) with base 10: 'x'$",
    ),
    "action-label-nan": (
        lambda: ol.ActionSpace([0.0, np.nan], [1.0, 1.0]), ValueError, r"^action label 1 is nan$",
    ),
    "action-weight-inf": (
        lambda: ol.ActionSpace([0.0, 1.0], [1.0, np.inf]), ValueError, r"^base_weights\[1\] is inf$",
    ),
    "states-inf": (
        lambda: ol.FiniteStates([-np.inf, 0.0], [0.5, 0.5]), ValueError, r"^state value 0 is -inf$",
    ),
    "tables-state-nan": (
        lambda: ol.ProblemInstance.from_tables(**{**_d1_table_args(), "states": [0.0, np.nan]}),
        ValueError, r"^state value 1 is nan$",
    ),
    "action-weights-length": (
        lambda: ol.ActionSpace([0.0, 1.0], [1.0]),
        ValueError, r"^base_weights must match labels in length$",
    ),
    "states-empty": (lambda: ol.FiniteStates([], []), ValueError, r"^finite state space must be non-empty$"),
    "states-repeated": (
        lambda: ol.FiniteStates([0.0, 0.0], [0.5, 0.5]), ValueError, r"^state values must be distinct$",
    ),
    "states-probs-length": (
        lambda: ol.FiniteStates([0.0, 1.0], [1.0]), ValueError, r"^probs must match state values in length$",
    ),
    "density-negative": (
        lambda: ol.Continuous1D(density=lambda x: 4.0 * x - 1.0, sampler=UNIFORM_SAMPLER),
        ValueError, r"^density must be non-negative on \[0, 1\]$",
    ),
    "density-mass": (
        lambda: ol.Continuous1D(density=lambda x: np.full(np.shape(x), 2.0), sampler=UNIFORM_SAMPLER),
        ValueError, r"^density integrates to 2\.0, not 1 within 1e-8$",
    ),
    "propensity-shape": (
        lambda: dataclasses.replace(make_d1(1.0), propensity=lambda x: np.ones((np.size(x), 1))),
        ValueError, r"^propensity\(x\) must return shape \(n, 2\)$",
    ),
    "dataset-lengths": (
        lambda: ol.Dataset(x=[0.0, 1.0], a=[1.0], y=[2.0, 0.5], seed=0, instance_id="d1"),
        ValueError, r"^x, a, y must be equal-length vectors$",
    ),
    "dataset-empty": (
        lambda: ol.Dataset(x=[], a=[], y=[], seed=0, instance_id="d1"),
        ValueError, r"^dataset must contain at least one triple$",
    ),
    "to-json-custom": (
        lambda: instance_to_json(dataclasses.replace(make_d1(1.0), meta={})),
        ValueError, r"^only table-backed finite instances and named builtins are serializable$",
    ),
    "from-json-kind": (
        lambda: finite_instance_from_json({"kind": "builtin"}),
        ValueError, r"^expected kind 'finite', got 'builtin'$",
    ),
    "simpson-reversed": (lambda: adaptive_simpson(np.exp, 1.0, 0.0), ValueError, r"^requires a <= b$"),
    "simpson-first-mesh": (
        lambda: adaptive_simpson(lambda x: np.where(x == 0.5, np.nan, 1.0)),
        QuadratureError, r"^integrand not finite$",
    ),
    "simpson-inside": (
        lambda: adaptive_simpson(lambda x: np.where(x == 0.25, np.inf, 1.0)),
        QuadratureError, r"^integrand not finite on \[0\.0, 1\.0\]$",
    ),
    "mix-seed-float": (
        lambda: mix_seed(1, 0.5), TypeError, r"^seed parts must be int or str, got <class 'float'>$",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_an_input_check_raises_its_message(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=message):
        call()
