import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from scipy import integrate

import ope_lab as ol
from ope_lab import complexity, simlab
from ope_lab.complexity import (
    EXHAUSTIVE_PATTERN_LIMIT,
    IDENTITY_LINK,
    PATTERN_BLOCK,
    RANDOM_PATTERN_COUNT,
    VERIFY_TOL,
    Link,
    LocalizedClassSpec,
    ShatteringCertificate,
    critical_radius,
    hadamard_glm_shatter,
    moment_matrices,
    profile_csv_rows,
    rademacher_R_mc,
    rademacher_S_mc,
    small_ball_estimate,
    sparse_packing_shatter,
)
from ope_lab.regression import (
    fit_l1_constrained,
    fit_weighted_linear,
    project_l1_ball,
    resolve_feature_map,
)
from ope_lab.rng import make_generator, mix_seed

from conftest import make_d1


def scalar_feature(x, a):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    return 1.0 + x + a


D1_ATOMS = {  # (x, a) -> (prob, g, pi)
    (0.0, 0.0): (0.4, -1.0, 0.8),
    (0.0, 1.0): (0.1, 1.0, 0.2),
    (1.0, 0.0): (0.2, -1.0, 0.4),
    (1.0, 1.0): (0.3, 1.0, 0.6),
}


def d1_scalar_moments(sigma):
    """Brute enumeration of the weighted second moments for the scalar feature."""
    sig = 0.0
    gam = 0.0
    for (x, a), (p, g, pi) in D1_ATOMS.items():
        phi = 1.0 + x + a
        sig += p * (g / pi) ** 2 * phi**2
        gam += p * (g / pi) ** 4 * sigma**2 * phi**2
    return sig, gam


def ellipsoid_spec(instance, radius=1.0):
    sigma, _ = moment_matrices(instance, scalar_feature)
    return LocalizedClassSpec(
        class_id="linear-ellipsoid",
        radius=radius,
        feature_map=scalar_feature,
        sigma_matrix=sigma,
    )


# ---------------------------------------------------------------------------
# moment matrices
# ---------------------------------------------------------------------------


def test_moment_matrices_match_enumeration():
    inst = make_d1(1.0)
    sigma, gamma = moment_matrices(inst, scalar_feature)
    sig_brute, gam_brute = d1_scalar_moments(1.0)
    assert abs(sigma[0, 0] - sig_brute) < 1e-12
    assert abs(gamma[0, 0] - gam_brute) < 1e-12


@pytest.mark.parametrize(
    "features, phi",
    [
        ("state-linear", lambda x: (1.0, x)),
        # g = a: only the a = 1 arm carries weight, where (1, x, a, xa) = (1, x, 1, x)
        ("bilinear-xa", lambda x: (1.0, x, 1.0, x)),
    ],
)
def test_moment_matrices_match_quad_on_the_hard_instance(features, phi):
    sigma0, gamma_exp = 0.15, 0.5
    inst = simlab.build_builtin_instance("pi1", gamma=gamma_exp, sigma0=sigma0)
    sigma, gamma = moment_matrices(inst, resolve_feature_map(features))
    pi1 = lambda x: 0.5 - (0.5 - 0.005) * np.sin(np.pi * x)

    def quad(fn):
        value, _ = integrate.quad(fn, 0.0, 1.0, points=[0.5], epsabs=1e-14, epsrel=1e-13, limit=400)
        return value

    # Sigma = E[phi phi' / pi], Gamma = E[sd^2 phi phi' / pi^3] with sd = sigma0 pi^(gamma/2)
    d = len(phi(0.0))
    assert sigma.shape == gamma.shape == (d, d)
    for i in range(d):
        for j in range(d):
            want_s = quad(lambda x: phi(x)[i] * phi(x)[j] / pi1(x))
            want_g = quad(
                lambda x: sigma0**2 * pi1(x) ** gamma_exp * phi(x)[i] * phi(x)[j] / pi1(x) ** 3
            )
            assert sigma[i, j] == pytest.approx(want_s, rel=1e-9)
            assert gamma[i, j] == pytest.approx(want_g, rel=1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        LocalizedClassSpec(class_id="mystery", radius=1.0)
    with pytest.raises(ValueError):
        LocalizedClassSpec(class_id="linear-ellipsoid", radius=-1.0)
    with pytest.raises(ValueError):
        LocalizedClassSpec(
            class_id="linear-ellipsoid",
            radius=1.0,
            feature_map=scalar_feature,
            sigma_matrix=np.array([[-1.0]]),
        )


def test_singular_sigma_names_its_smallest_eigenvalue():
    with pytest.raises(ValueError, match=r"positive definite; its smallest eigenvalue is 0\b"):
        LocalizedClassSpec(
            class_id="linear-ellipsoid",
            radius=1.0,
            feature_map=scalar_feature,
            sigma_matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )


def test_numerically_singular_sigma_is_rejected():
    # (1, x, 1, x) on g = a has rank 2; rounding leaves its smallest
    # eigenvalue a few ulps above zero here, which a sign test accepts
    inst = simlab.build_builtin_instance("pi1", gamma=0.5, sigma0=0.15)
    feature_map = resolve_feature_map("bilinear-xa")
    sigma, _ = moment_matrices(inst, feature_map)
    with pytest.raises(ValueError, match=r"positive definite; its smallest eigenvalue is "):
        LocalizedClassSpec(
            class_id="linear-ellipsoid", radius=1.0, feature_map=feature_map, sigma_matrix=sigma
        )


# ---------------------------------------------------------------------------
# Rademacher complexities
# ---------------------------------------------------------------------------


def test_singleton_class_is_zero():
    inst = make_d1(1.0)
    spec = LocalizedClassSpec(class_id="singleton-zero", radius=3.0)
    assert rademacher_S_mc(inst, spec, m=20, reps=10).value == 0.0
    assert rademacher_R_mc(inst, spec, m=20, reps=10).value == 0.0


def test_noiseless_squared_complexity_is_zero():
    inst = make_d1(0.0)
    est = rademacher_S_mc(inst, ellipsoid_spec(inst), m=50, reps=200, seed=1)
    assert est.value == 0.0


def test_squared_complexity_matches_enumeration():
    # independent signs make the cross terms vanish, so the mean squared
    # supremum is exactly r^2/Sigma * E[(g/pi)^4 sigma^2 phi^2] / m
    inst = make_d1(1.0)
    m, reps = 100, 4000
    spec = ellipsoid_spec(inst, radius=1.0)
    sig, gam = d1_scalar_moments(1.0)
    exact = np.sqrt(gam / (sig * m))
    est = rademacher_S_mc(inst, spec, m=m, reps=reps, seed=2)
    assert abs(est.value - exact) < 3 * max(est.stderr, 1e-6)


def test_plain_complexity_matches_full_enumeration():
    # at m = 3, enumerate every (atom, sign) configuration exactly
    inst = make_d1(0.0)
    m, reps = 3, 60_000
    spec = ellipsoid_spec(inst, radius=1.0)
    sig, _ = d1_scalar_moments(0.0)
    atoms = list(D1_ATOMS.items())
    values = []
    weights = []
    for picks in itertools.product(range(4), repeat=m):
        for signs in itertools.product((-1.0, 1.0), repeat=m):
            v = 0.0
            w = 1.0
            for idx, sgn in zip(picks, signs):
                (x, a), (p, g, pi) = atoms[idx]
                v += sgn * (g / pi) * (1.0 + x + a)
                w *= p * 0.5
            values.append(abs(v) / m)
            weights.append(w)
    exact = float(np.dot(values, weights)) / np.sqrt(sig)
    est = rademacher_R_mc(inst, spec, m=m, reps=reps, seed=3)
    assert abs(est.value - exact) < 3 * est.stderr


def test_mc_complexities_are_pinned():
    # recorded before the Monte Carlo drew pairs by index: the draw order of
    # states, actions, noise and signs must not move
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    s_est = rademacher_S_mc(inst, spec, m=20, reps=50, seed=5)
    r_est = rademacher_R_mc(inst, spec, m=20, reps=50, seed=5)
    assert (s_est.value.hex(), s_est.stderr.hex()) == ("0x1.244937a0a8996p-1", "0x1.f6be3f22507d8p-5")
    assert (r_est.value.hex(), r_est.stderr.hex()) == ("0x1.4986aac5062fbp-3", "0x1.ec000f15f8d7dp-7")
    # recorded while each complexity ran its own replication loop
    for est, want in (
        (
            rademacher_S_mc(inst, spec, m=20, multiplier=inst.outcome_mean, reps=50, seed=5),
            ("0x1.6d1412f70bf3ap+0", "0x1.06b9c47801976p-3"),
        ),
        (rademacher_R_mc(inst, l1_spec(), m=20, reps=50, seed=5), ("0x1.8c28f5c28f5c3p+0", "0x1.27be81d09adfdp-3")),
        (rademacher_S_mc(inst, l1_spec(), m=20, reps=50, seed=5), ("0x1.5f63bcacbbcdep+2", "0x1.2e33a92572658p-1")),
    ):
        assert (est.value.hex(), est.stderr.hex()) == want


def test_each_replication_draws_one_substream(monkeypatch):
    # one stream per replication, none for the singleton: the benchmark
    # tracer counts complexity.mc_draws by wrapping complexity.substream
    calls = []
    counted = complexity.substream

    def counting(seed, r):
        calls.append(r)
        return counted(seed, r)

    monkeypatch.setattr(complexity, "substream", counting)
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    singleton = LocalizedClassSpec(class_id="singleton-zero", radius=1.0)
    for run, draws in (
        (lambda: rademacher_S_mc(inst, spec, m=10, reps=7), 7),
        (lambda: rademacher_R_mc(inst, spec, m=10, reps=5), 5),
        (lambda: rademacher_S_mc(inst, singleton, m=10, reps=5), 0),
        (lambda: rademacher_R_mc(inst, singleton, m=10, reps=5), 0),
        (lambda: critical_radius(inst, spec, m=10, kind="s", source="mc", reps=4), 4),
    ):
        calls.clear()
        run()
        assert calls == list(range(draws))


def test_custom_multiplier_matches_enumeration():
    # multiplier h = mu - mubar with mubar = 0: exact mean squared supremum
    inst = make_d1(0.0)
    m, reps = 50, 4000
    spec = ellipsoid_spec(inst)
    mu = {(0.0, 0.0): 1.0, (0.0, 1.0): 2.0, (1.0, 0.0): 0.0, (1.0, 1.0): 3.0}
    exact_sq = 0.0
    sig, _ = d1_scalar_moments(0.0)
    for (x, a), (p, g, pi) in D1_ATOMS.items():
        phi = 1.0 + x + a
        exact_sq += p * ((g / pi) ** 2 * mu[(x, a)] * phi) ** 2
    exact = np.sqrt(exact_sq / (sig * m))
    est = rademacher_S_mc(
        inst, spec, m=m, multiplier=inst.outcome_mean, reps=reps, seed=4
    )
    assert abs(est.value - exact) < 3 * max(est.stderr, 1e-6)


def test_l1_ball_scaling():
    inst = make_d1(1.0)
    spec = LocalizedClassSpec(
        class_id="l1-ball", radius=1.0, feature_map=scalar_feature, l1_radius=2.0
    )
    est1 = rademacher_R_mc(inst, spec, m=30, reps=500, seed=5)
    spec2 = LocalizedClassSpec(
        class_id="l1-ball", radius=1.0, feature_map=scalar_feature, l1_radius=4.0
    )
    est2 = rademacher_R_mc(inst, spec2, m=30, reps=500, seed=5)
    assert abs(est2.value - 2 * est1.value) < 1e-12


# ---------------------------------------------------------------------------
# critical radii
# ---------------------------------------------------------------------------


def l1_spec(radius=1.0):
    return LocalizedClassSpec(
        class_id="l1-ball", radius=radius, feature_map=scalar_feature, l1_radius=2.0
    )


@pytest.mark.parametrize("make_spec, scale", [
    (lambda inst, r: ellipsoid_spec(inst, radius=r), 3.0),
    (lambda inst, r: l1_spec(radius=r), 1.0),
])
def test_complexities_homogeneous_in_radius(make_spec, scale):
    # the critical radius is solved from the value at r = 1, which is exact
    # only because the ellipsoid scales with r and the l1 ball ignores it
    inst = make_d1(1.0)
    for estimate in (rademacher_S_mc, rademacher_R_mc):
        at1 = estimate(inst, make_spec(inst, 1.0), m=40, reps=200, seed=11).value
        at3 = estimate(inst, make_spec(inst, 3.0), m=40, reps=200, seed=11).value
        assert at1 > 0
        assert abs(at3 - scale * at1) <= 1e-12 * scale * at1


@pytest.mark.parametrize("kind", ["s", "r"])
@pytest.mark.parametrize("class_id", ["linear-ellipsoid", "l1-ball"])
def test_mc_critical_radius_solves_from_unit_radius(kind, class_id):
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst, radius=0.3) if class_id == "linear-ellipsoid" else l1_spec(0.3)
    m, reps, seed = 40, 200, 12
    unit = spec.with_radius(1.0)
    if kind == "s":
        c1 = rademacher_S_mc(inst, unit, m=m, reps=reps, seed=seed).value
        want = c1 if class_id == "linear-ellipsoid" else np.sqrt(c1)
        alphas = {}
    else:
        c1 = rademacher_R_mc(inst, unit, m=m, reps=reps, seed=seed).value
        # threshold 1/32 sits below c1 here, so the ellipsoid has no finite root
        assert c1 > 1.0 / 32.0
        want = np.inf if class_id == "linear-ellipsoid" else c1 * 32.0
        alphas = {"alpha1": 1.0, "alpha2": 1.0}
    got = critical_radius(inst, spec, m=m, kind=kind, source="mc", reps=reps, seed=seed, **alphas)
    assert got == want


def test_plain_radius_rejects_nonpositive_small_ball_constants():
    inst = make_d1(1.0)
    with pytest.raises(ValueError, match="positive small-ball"):
        critical_radius(inst, l1_spec(), m=10, kind="r", alpha1=0.0, alpha2=1.0)


PHI, Y, W = np.column_stack([np.ones(3), np.arange(3.0)]), np.array([10.0, 1.0, 20.0]), np.ones(3)
ONE = lambda x, a: np.ones(np.broadcast(x, a).shape)
SCALAR_CALLS = {
    "ridge": lambda v: fit_weighted_linear(PHI, Y, W, ridge=v),
    "max_norm": lambda v: fit_weighted_linear(PHI, Y, W, max_norm=v),
    "radius": lambda v: fit_l1_constrained(PHI, Y, W, radius=v),
    "radius-projection": lambda v: project_l1_ball(np.ones(2), v),
    "alpha1": lambda v: small_ball_estimate(make_d1(1.0), ONE, alpha1=v, reps=10),
    "alpha1-radius": lambda v: critical_radius(
        make_d1(1.0), l1_spec(), m=10, kind="r", alpha1=v, alpha2=1.0, reps=2
    ),
    "alpha2-radius": lambda v: critical_radius(
        make_d1(1.0), l1_spec(), m=10, kind="r", alpha1=1.0, alpha2=v, reps=2
    ),
    "radius-class": lambda v: LocalizedClassSpec("l1-ball", v, scalar_feature, l1_radius=2.0),
    "l1_radius-class": lambda v: LocalizedClassSpec("l1-ball", 1.0, scalar_feature, l1_radius=v),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("case", sorted(SCALAR_CALLS))
def test_scalar_arguments_reject_nan_and_inf_by_name(case, bad):
    name = case.split("-")[0]
    with pytest.raises(ValueError, match=rf"\b{name} is {bad}"):
        SCALAR_CALLS[case](bad)


def test_localized_class_rejects_a_negative_radius():
    # a negative l1 radius turned every supremum, and so the complexity, negative
    with pytest.raises(ValueError, match=r"^l1_radius is -2.0, not a non-negative finite number$"):
        LocalizedClassSpec("l1-ball", 1.0, scalar_feature, l1_radius=-2.0)
    with pytest.raises(ValueError, match=r"^radius is -1.0, not a non-negative finite number$"):
        LocalizedClassSpec("singleton-zero", -1.0)


INPUT_CHECKS = {
    "ellipsoid-without-sigma": (
        lambda: LocalizedClassSpec("linear-ellipsoid", 1.0, scalar_feature),
        r"^linear-ellipsoid needs feature_map and sigma_matrix$",
    ),
    "asymmetric-sigma": (
        lambda: LocalizedClassSpec(
            "linear-ellipsoid", 1.0, scalar_feature, sigma_matrix=np.array([[1.0, 0.5], [0.0, 1.0]])
        ),
        r"^sigma_matrix must be symmetric$",
    ),
    "l1-ball-without-radius": (
        lambda: LocalizedClassSpec("l1-ball", 1.0, scalar_feature),
        r"^l1-ball needs feature_map and l1_radius$",
    ),
    "unknown-multiplier": (
        lambda: rademacher_S_mc(make_d1(1.0), l1_spec(), m=5, multiplier="noise", reps=2),
        r"^unknown multiplier 'noise'$",
    ),
    "unknown-kind": (
        lambda: critical_radius(make_d1(1.0), l1_spec(), m=5, kind="t", reps=2),
        r"^kind must be 's' or 'r'$",
    ),
    "closed-form-on-l1-ball": (
        lambda: critical_radius(make_d1(1.0), l1_spec(), m=5, source="closed-form-linear"),
        r"^closed-form-linear applies to the linear class$",
    ),
    "unknown-source": (
        lambda: critical_radius(make_d1(1.0), l1_spec(), m=5, source="exact", reps=2),
        r"^unknown complexity source 'exact'$",
    ),
    "packing-block-not-power-of-two": (
        lambda: sparse_packing_shatter(12, 4), r"^p / s must be a power of two$",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_an_input_check_raises_its_message(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_closed_form_plain_radius_threshold():
    inst = make_d1(1.0)
    sigma = np.eye(4)
    spec = LocalizedClassSpec(
        class_id="linear-ellipsoid",
        radius=1.0,
        feature_map=lambda x, a: np.ones((np.broadcast(x, a).size, 4)),
        sigma_matrix=sigma,
    )
    # d = 4, alpha1 = alpha2 = 1: zero exactly once sqrt(d/m) <= 1/32,
    # i.e. from m = 4096 on; no finite radius below that
    val = critical_radius(
        inst, spec, m=4097, kind="r", source="closed-form-linear", alpha1=1.0, alpha2=1.0
    )
    assert val == 0.0
    val = critical_radius(
        inst, spec, m=4095, kind="r", source="closed-form-linear", alpha1=1.0, alpha2=1.0
    )
    assert val == np.inf


def test_closed_form_squared_radius_fixed_point():
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    m = 200
    sig, gam = d1_scalar_moments(1.0)
    want = np.sqrt(gam / sig / m)
    got = critical_radius(inst, spec, m=m, kind="s", source="closed-form-linear")
    assert abs(got - want) < 1e-3


def test_singleton_radius_zero():
    inst = make_d1(1.0)
    spec = LocalizedClassSpec(class_id="singleton-zero", radius=1.0)
    assert critical_radius(inst, spec, m=10, kind="s", source="mc") == 0.0
    assert critical_radius(
        inst, spec, m=10, kind="r", source="mc", alpha1=1.0, alpha2=1.0
    ) == 0.0


def test_mc_radius_within_factor_two_of_closed_form():
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    m = 200
    closed = critical_radius(inst, spec, m=m, kind="s", source="closed-form-linear")
    mc = critical_radius(inst, spec, m=m, kind="s", source="mc", reps=3000, seed=6)
    assert closed / 2 <= mc <= closed * 2
    # plain kind: both sides collapse to zero once m clears the threshold
    closed_r = critical_radius(
        inst, spec, m=2000, kind="r", source="closed-form-linear", alpha1=1.0, alpha2=1.0
    )
    mc_r = critical_radius(
        inst, spec, m=2000, kind="r", source="mc", alpha1=1.0, alpha2=1.0,
        reps=2000, seed=7,
    )
    assert closed_r == 0.0 and mc_r == 0.0


def test_ratio_profile_monotone():
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    radii = [0.25, 0.5, 1.0, 2.0, 4.0]
    ests = [
        rademacher_R_mc(inst, spec.with_radius(r), m=50, reps=2000, seed=8)
        for r in radii
    ]
    ratios = [e.value / r for e, r in zip(ests, radii)]
    ses = [e.stderr / r for e, r in zip(ests, radii)]
    for i in range(len(radii) - 1):
        assert ratios[i + 1] <= ratios[i] + 3 * (ses[i] + ses[i + 1]) + 1e-12


def test_profile_csv():
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    rows = [(r, rademacher_R_mc(inst, spec.with_radius(r), m=10, reps=50, seed=9)) for r in (0.5, 1.0)]
    text = profile_csv_rows(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "r,estimate,stderr"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# small-ball probability
# ---------------------------------------------------------------------------


def test_small_ball_extremes():
    inst = make_d1(1.0)
    one = lambda x, a: np.ones(np.broadcast(x, a).shape)
    assert small_ball_estimate(inst, one, alpha1=0.0, reps=500, seed=10).value == 1.0
    assert small_ball_estimate(inst, one, alpha1=1e9, reps=500, seed=11).value == 0.0


def test_small_ball_matches_enumeration():
    inst = make_d1(1.0)
    one = lambda x, a: np.ones(np.broadcast(x, a).shape)
    norm = ol.weighted_norm(inst, one)  # sqrt(5.2083...) ~ 2.2822
    # |g/pi| values: 1.25, 5, 2.5, 1.667 with masses 0.4, 0.1, 0.2, 0.3
    alpha1 = 2.0 / norm  # threshold 2.0 separates {2.5, 5} from the rest
    exact = 0.1 + 0.2
    est = small_ball_estimate(inst, one, alpha1=alpha1, reps=40_000, seed=12)
    assert abs(est.value - exact) < 3 * est.stderr


@pytest.mark.parametrize(
    "estimate, counts",
    [
        (lambda inst, spec, m, reps: rademacher_S_mc(inst, spec, m=m, reps=reps), ("m", "reps")),
        (lambda inst, spec, m, reps: rademacher_R_mc(inst, spec, m=m, reps=reps), ("m", "reps")),
        (
            lambda inst, spec, m, reps: critical_radius(inst, spec, m=m, kind="s", reps=reps),
            ("m", "reps"),
        ),
        (
            lambda inst, spec, m, reps: critical_radius(
                inst, spec, m=m, kind="s", source="closed-form-linear"
            ),
            ("m",),
        ),
        (
            lambda inst, spec, m, reps: small_ball_estimate(
                inst, lambda x, a: np.ones(np.broadcast(x, a).shape), alpha1=0.5, reps=reps
            ),
            ("reps",),
        ),
    ],
    ids=[
        "rademacher_S_mc", "rademacher_R_mc", "critical_radius", "critical_radius-closed-form",
        "small_ball_estimate",
    ],
)
def test_monte_carlo_rejects_an_empty_sample(estimate, counts):
    inst = make_d1(1.0)
    spec = ellipsoid_spec(inst)
    for name in counts:
        args = {"m": 20, "reps": 10, name: 0}
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            estimate(inst, spec, **args)


def test_small_ball_rejects_null_function():
    inst = make_d1(1.0)
    zero = lambda x, a: np.zeros(np.broadcast(x, a).shape)
    with pytest.raises(ValueError):
        small_ball_estimate(inst, zero, alpha1=0.5)


# ---------------------------------------------------------------------------
# shattering certificates
# ---------------------------------------------------------------------------


def test_hadamard_p2_identity_patterns():
    cert = hadamard_glm_shatter(2, IDENTITY_LINK, amplitude=1.0, radius=1.0)
    assert cert.n_points == 2
    for zeta in itertools.product((-1.0, 1.0), repeat=2):
        z = np.array(zeta)
        beta = cert.witness(z)
        vals = cert.evaluate(beta, cert.points)
        assert np.max(np.abs(vals - z)) < 1e-12


def test_hadamard_constant_pattern():
    a, radius = 0.5, 2.0
    cert = hadamard_glm_shatter(4, IDENTITY_LINK, amplitude=a, radius=radius)
    beta = cert.witness(np.ones(4))
    vals = cert.evaluate(beta, cert.points)
    assert np.max(np.abs(vals - a * radius)) < 1e-12


def test_hadamard_witness_norm_inside_ball():
    p, radius = 8, 3.0
    a = 1.0 / np.sqrt(p)
    cert = hadamard_glm_shatter(p, IDENTITY_LINK, amplitude=a, radius=radius)
    for zeta in itertools.islice(itertools.product((-1.0, 1.0), repeat=p), 64):
        beta = cert.witness(np.array(zeta))
        assert np.linalg.norm(beta) <= radius + 1e-12


def test_hadamard_nonlinear_link():
    cube = Link(forward=lambda z: z**3, inverse=lambda z: np.cbrt(z))
    cert = hadamard_glm_shatter(4, cube, amplitude=0.7, radius=1.3)
    assert cert.verify()


def test_hadamard_rejects_bad_p():
    with pytest.raises(ValueError):
        hadamard_glm_shatter(3)


def test_hadamard_rejects_undefined_inverse():
    bad = Link(forward=lambda z: z, inverse=lambda z: np.where(np.abs(z) > 0.5, np.nan, z))
    with pytest.raises(ValueError):
        hadamard_glm_shatter(2, bad, amplitude=1.0, radius=1.0)


def test_sparse_packing_small_case():
    cert = sparse_packing_shatter(4, 2)
    assert cert.n_points == 2
    assert cert.verify()
    assert cert.scale == 0.5
    assert np.all(cert.thresholds == 0.5)


def test_sparse_packing_sparsity_and_sup_norm():
    cert = sparse_packing_shatter(8, 2)
    assert cert.n_points == 4
    for zeta in itertools.product((-1.0, 1.0), repeat=4):
        beta = cert.witness(np.array(zeta))
        assert np.count_nonzero(beta) <= 2
        assert np.max(np.abs(beta)) <= 1.0


def test_sparse_packing_degenerate_rejected():
    with pytest.raises(ValueError):
        sparse_packing_shatter(4, 4)
    with pytest.raises(ValueError):
        sparse_packing_shatter(6, 4)


def test_verification_catches_corruption():
    cert = sparse_packing_shatter(4, 2)
    broken = ShatteringCertificate(
        points=cert.points,
        thresholds=cert.thresholds + 0.25,
        scale=cert.scale,
        witness=cert.witness,
        evaluate=cert.evaluate,
    )
    assert not broken.verify()


def _per_pattern_verify(cert, tol=VERIFY_TOL, seed=0):
    """The check as it was before blocks: one witness and one evaluate call
    per sign pattern, the patterns from itertools.product or one size-d
    draw each."""
    d = cert.n_points
    if d <= EXHAUSTIVE_PATTERN_LIMIT:
        patterns = (np.array(bits) for bits in itertools.product((-1.0, 1.0), repeat=d))
    else:
        rng = make_generator(mix_seed(seed, "patterns"))
        patterns = (rng.integers(0, 2, size=d) * 2.0 - 1.0 for _ in range(RANDOM_PATTERN_COUNT))
    for zeta in patterns:
        values = np.asarray(cert.evaluate(cert.witness(zeta), cert.points), dtype=float)
        if np.max(np.abs(values - (cert.thresholds + zeta * cert.scale))) > tol:
            return False
    return True


CUBE = Link(forward=lambda z: z**3, inverse=lambda z: np.cbrt(z))
CERTIFICATES = {
    "hadamard-2": lambda: hadamard_glm_shatter(2),
    "hadamard-4": lambda: hadamard_glm_shatter(4),
    "hadamard-8": lambda: hadamard_glm_shatter(8),
    "hadamard-16": lambda: hadamard_glm_shatter(16),
    "hadamard-32": lambda: hadamard_glm_shatter(32),
    "hadamard-8-cube": lambda: hadamard_glm_shatter(8, CUBE, amplitude=0.7, radius=1.3),
    "sparse-4-2": lambda: sparse_packing_shatter(4, 2),
    "sparse-8-2": lambda: sparse_packing_shatter(8, 2),
    "sparse-64-4": lambda: sparse_packing_shatter(64, 4),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_block_verify_agrees_with_the_per_pattern_loop(name):
    cert = CERTIFICATES[name]()
    assert cert.verify() and _per_pattern_verify(cert)
    for shift in (0.25, 1e-9):
        broken = dataclasses.replace(cert, thresholds=cert.thresholds + shift)
        assert broken.verify() is _per_pattern_verify(broken) is False
    # a shift inside the tolerance passes both ways
    close = dataclasses.replace(cert, thresholds=cert.thresholds + 1e-12)
    assert close.verify() is _per_pattern_verify(close) is True


@pytest.mark.parametrize("d", [1, 5, 9, 16])
def test_exhaustive_blocks_are_the_product_order(d):
    cert = ShatteringCertificate(np.zeros((d, 1)), np.zeros(d), 1.0, None, None)
    blocks = list(cert.pattern_blocks())
    assert all(1 <= len(block) <= PATTERN_BLOCK for block in blocks)
    assert len(blocks) == -(-2**d // PATTERN_BLOCK)
    expected = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    assert np.array_equal(np.concatenate(blocks), expected)


@pytest.mark.parametrize("name", ["hadamard-16", "sparse-64-4"])
def test_verify_reaches_the_last_pattern_of_the_last_block(name):
    cert = CERTIFICATES[name]()
    last = list(cert.pattern_blocks())[-1]
    assert len(list(cert.pattern_blocks())) > 1 and np.all(last[-1] == 1.0)

    def witness(zeta):  # misses only the all-ones pattern
        return cert.witness(zeta) + 1e-6 * np.all(zeta == 1.0, axis=-1)[..., None]

    assert not dataclasses.replace(cert, witness=witness).verify()


def test_random_blocks_are_the_per_pattern_draws():
    cert = hadamard_glm_shatter(32)  # verifies 10^4 random patterns itself
    assert cert.n_points > EXHAUSTIVE_PATTERN_LIMIT and cert.verify()
    blocks = list(cert.pattern_blocks())
    assert all(1 <= len(block) <= PATTERN_BLOCK for block in blocks)
    rng = make_generator(mix_seed(0, "patterns"))
    draws = [rng.integers(0, 2, size=32) * 2.0 - 1.0 for _ in range(RANDOM_PATTERN_COUNT)]
    assert np.array_equal(np.concatenate(blocks), np.stack(draws))
    shifted = dataclasses.replace(cert, thresholds=cert.thresholds + 0.25)
    assert not shifted.verify()


def _witness_digest(cert):
    h = hashlib.sha256()
    for bits in itertools.product((-1.0, 1.0), repeat=cert.n_points):
        beta = cert.witness(np.array(bits))
        h.update(np.asarray(beta, dtype=float).tobytes())
        h.update(np.asarray(cert.evaluate(beta, cert.points), dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name, digest", [
    ("hadamard-2", "25790de28faa7533"),
    ("hadamard-4", "daea791ded4b6a64"),
    ("hadamard-8", "d7ab320490124887"),
    ("hadamard-16", "909cfb37a25c5567"),
    ("sparse-8-2", "b306dadb4060f94c"),
])
def test_single_pattern_witness_bits_are_pinned(name, digest):
    # the bytes of witness(z) and evaluate(witness(z), points) for every
    # pattern z, one pattern at a time, as the per-pattern code gave them
    assert _witness_digest(CERTIFICATES[name]()) == digest
