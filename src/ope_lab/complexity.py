"""Numerical theory diagnostics.

Monte Carlo estimates of the localized Rademacher complexities that govern
first-stage estimation error, their critical radii in closed form from one
estimate at radius 1 (every supported class is homogeneous in the radius), a
small-ball probability estimator, and exact strong-shattering certificates for
two structured function classes (single-index models over a Hadamard basis,
and sparse linear models via a block packing).

Localized classes are restricted to families whose data-conditional supremum
has a closed form:

    linear-ellipsoid : {f_theta = <theta, phi> : theta' Sigma theta <= r^2},
                       sup over the class of <theta, v> equals
                       r * sqrt(v' Sigma^{-1} v);
    l1-ball          : {f_theta : ||theta||_1 <= R1}, sup = R1 * max_j |v_j|;
                       the localization radius is ignored, so this is an
                       unlocalized upper bound on the localized class;
    singleton-zero   : {0}, sup = 0.

Both Monte Carlo complexities draw every replication in ``_mc_sups``; a new
class adds its supremum there and its radius scaling in ``critical_radius``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ProblemInstance,
    _draw_pairs,
    _likelihood_ratio,
    _pair_values,
    weighted_norm,
)
from .quadrature import adaptive_simpson  # noqa: F401  (patched by benchmarks/tracing.py)
from .regression import _require_non_negative
from .rng import make_generator, mix_seed, substream

DEFAULT_REPS = 10_000
VERIFY_TOL = 1e-10
EXHAUSTIVE_PATTERN_LIMIT = 16
RANDOM_PATTERN_COUNT = 10_000
PATTERN_BLOCK = 256  # patterns per witness call; bounds verify's memory
SINGULAR_RTOL = 1e-12


class ComplexityEstimate(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True)
class LocalizedClassSpec:
    """A localized function class with closed-form data-conditional suprema.

    ``radius`` is the localization radius in the weighted norm; the l1 ball
    ignores it (an unlocalized upper bound).  For the linear ellipsoid,
    ``sigma_matrix`` must be the second-moment matrix of
    (g/pi) phi so that the ellipsoid equals the weighted-norm ball of the
    linear span.
    """

    class_id: str
    radius: float
    feature_map: Callable | None = None
    sigma_matrix: np.ndarray | None = None
    l1_radius: float | None = None

    def __post_init__(self):
        import scipy.linalg

        if self.class_id not in ("linear-ellipsoid", "l1-ball", "singleton-zero"):
            raise ValueError(f"unsupported class {self.class_id!r}")
        _require_non_negative(radius=self.radius, l1_radius=self.l1_radius)
        if self.class_id == "linear-ellipsoid":
            if self.feature_map is None or self.sigma_matrix is None:
                raise ValueError("linear-ellipsoid needs feature_map and sigma_matrix")
            sig = np.asarray(self.sigma_matrix, dtype=float)
            if not np.allclose(sig, sig.T, atol=1e-10):
                raise ValueError("sigma_matrix must be symmetric")
            eigenvalues = scipy.linalg.eigvalsh(sig)
            smallest = float(eigenvalues[0])
            # relative: rounding leaves a singular Sigma a few ulps off zero
            if smallest <= SINGULAR_RTOL * float(eigenvalues[-1]):
                raise ValueError(
                    f"sigma_matrix must be positive definite; its smallest "
                    f"eigenvalue is {smallest:.3g}"
                )
            object.__setattr__(self, "sigma_matrix", sig)
        if self.class_id == "l1-ball":
            if self.feature_map is None or self.l1_radius is None:
                raise ValueError("l1-ball needs feature_map and l1_radius")

    def with_radius(self, radius: float) -> "LocalizedClassSpec":
        return replace(self, radius=radius)


def moment_matrices(instance: ProblemInstance, feature_map) -> tuple[np.ndarray, np.ndarray]:
    """Second-moment matrices of the weighted features.

    Returns (Sigma, Gamma_sigma) with
    Sigma = E[(g/pi)^2 phi phi'] and Gamma_sigma = E[(g/pi)^4 sigma^2 phi phi'],
    both over the joint (state, action) law.  They are one state expectation
    of a per-state (2, d, d) array summed over the actions: one enumeration
    for finite states, one quadrature mesh for all entries otherwise.
    """
    labels = instance.actions.labels
    lam = instance.actions.base_weights

    def moments(x):
        x = np.asarray(x, dtype=float)
        pmat = np.asarray(instance.propensity(x), dtype=float)
        ratio = instance._pair_grid(instance.weight_fn, x) / pmat
        sd = instance._pair_grid(instance.outcome_sd, x)
        # joint density of the (x, a) pair is lam * pi
        wt = lam * pmat
        weights = np.stack([wt * ratio**2, wt * ratio**4 * sd**2], axis=1)
        phi = _features_at(feature_map, np.repeat(x, labels.size), np.tile(labels, x.size))
        phi = phi.reshape(x.size, labels.size, -1)
        outer = phi[..., :, None] * phi[..., None, :]
        return np.einsum("mck,mkij->mcij", weights, outer)

    sigma, gamma = instance.state_expectation(moments)
    return sigma, gamma


# ---------------------------------------------------------------------------
# Monte Carlo Rademacher complexities
# ---------------------------------------------------------------------------


def _require_samples(**counts) -> None:
    """Reject an empty Monte Carlo sample, naming the count that is empty."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _features_at(feature_map, x, a) -> np.ndarray:
    phi = np.asarray(feature_map(x, a), dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    return phi


def _mc_sups(instance, spec: LocalizedClassSpec, m, reps, seed, weights) -> list[float]:
    """Closed-form supremum over the class of each replication r's score
    (eps * weight) @ phi / m: m pairs from ``substream(seed, r)``, then
    ``weights(pairs, rng)`` (which may draw from rng), then the signs eps."""
    import scipy.linalg

    _require_samples(m=m, reps=reps)
    if spec.class_id == "singleton-zero":
        return [0.0] * reps
    if spec.class_id == "linear-ellipsoid":
        chol = scipy.linalg.cholesky(spec.sigma_matrix, lower=True)
    sups = []
    for r in range(reps):
        rng = substream(seed, r)
        pairs = _draw_pairs(instance, m, rng)
        weight = weights(pairs, rng)
        eps = rng.integers(0, 2, size=m) * 2.0 - 1.0
        score = (eps * weight) @ _features_at(spec.feature_map, pairs.x, pairs.a) / m
        if spec.class_id == "linear-ellipsoid":
            z = scipy.linalg.solve_triangular(chol, score, lower=True)
            sups.append(spec.radius * float(np.linalg.norm(z)))
        else:
            sups.append(float(spec.l1_radius) * float(np.max(np.abs(score))))
    return sups


def rademacher_S_mc(
    instance: ProblemInstance,
    spec: LocalizedClassSpec,
    m: int,
    multiplier="outcome-noise",
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> ComplexityEstimate:
    """Squared-form localized complexity with a per-sample multiplier.

    Each replication weights the score by (g/pi)^2 times the multiplier: the
    outcome noise Y - mu by default (drawn before the signs), or a custom
    function h(x, a), typically mu minus a first-stage fit.  Returns the root
    of the mean squared supremum with a delta-method standard error.
    """
    if isinstance(multiplier, str) and multiplier != "outcome-noise":
        raise ValueError(f"unknown multiplier {multiplier!r}")

    def weights(pairs, rng):
        ratio2 = _likelihood_ratio(instance, pairs) ** 2
        if isinstance(multiplier, str):
            sd = _pair_values(instance, instance.outcome_sd, pairs)
            return ratio2 * (sd * rng.standard_normal(m))
        return ratio2 * _pair_values(instance, multiplier, pairs)

    # squared as Python floats: numpy's array power can round differently
    sups_sq = np.array([s**2 for s in _mc_sups(instance, spec, m, reps, seed, weights)])
    mean_sq = float(np.mean(sups_sq))
    se_sq = float(np.std(sups_sq, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    value = float(np.sqrt(max(mean_sq, 0.0)))
    stderr = se_sq / (2.0 * value) if value > 0 else float(np.sqrt(se_sq))
    return ComplexityEstimate(value, stderr)


def rademacher_R_mc(
    instance: ProblemInstance,
    spec: LocalizedClassSpec,
    m: int,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> ComplexityEstimate:
    """Plain localized complexity with the g/pi weighting and no multiplier."""
    ratio = lambda pairs, rng: _likelihood_ratio(instance, pairs)
    sups = np.array(_mc_sups(instance, spec, m, reps, seed, ratio))
    value = float(np.mean(sups))
    stderr = float(np.std(sups, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return ComplexityEstimate(value, stderr)


# ---------------------------------------------------------------------------
# Critical radii
# ---------------------------------------------------------------------------


def critical_radius(
    instance: ProblemInstance,
    spec: LocalizedClassSpec,
    m: int,
    kind: str = "s",
    source: str = "mc",
    alpha1: float | None = None,
    alpha2: float | None = None,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    gamma_matrix: np.ndarray | None = None,
) -> float:
    """Smallest radius solving the localized fixed-point inequality.

    ``kind == "s"`` solves complexity(r) <= r^2 for the squared-form
    complexity; ``kind == "r"`` solves complexity(r)/r <= alpha1*alpha2/32 for
    the plain one and requires the small-ball constants.  ``source`` is
    ``"mc"`` (one Monte Carlo estimate at r = 1) or ``"closed-form-linear"``
    (the linear-class bounds R(r) = r*sqrt(d/m) and
    S(r) = r*sqrt(tr(Sigma^{-1} Gamma_sigma)/m)).

    Every supported class is homogeneous in the radius: with c1 the
    complexity at r = 1, complexity(r) = r*c1 for the linear ellipsoid and
    c1 for the l1 ball.  The root is therefore solved exactly, not rounded:
    kind ``s`` gives c1 (ellipsoid) or sqrt(c1) (l1 ball); kind ``r`` gives
    c1/threshold for the l1 ball, and for the ellipsoid 0 when the threshold
    holds at every radius and inf when it holds at none.
    """
    _require_samples(m=m)
    if kind not in ("s", "r"):
        raise ValueError("kind must be 's' or 'r'")
    if kind == "r":
        for name, value in (("alpha1", alpha1), ("alpha2", alpha2)):
            if value is None or not 0.0 < value < np.inf:
                raise ValueError(f"kind 'r' requires positive small-ball constants; "
                                 f"{name} is {value}, not a positive finite number")
        threshold = alpha1 * alpha2 / 32.0

    if source == "closed-form-linear":
        if spec.class_id != "linear-ellipsoid":
            raise ValueError("closed-form-linear applies to the linear class")
        if kind == "r":
            c1 = float(np.sqrt(spec.sigma_matrix.shape[0] / m))
        else:
            if gamma_matrix is None:
                _, gamma_matrix = moment_matrices(instance, spec.feature_map)
            trace = float(np.trace(np.linalg.solve(spec.sigma_matrix, gamma_matrix)))
            c1 = float(np.sqrt(max(trace, 0.0) / m))
    elif source == "mc":
        unit = spec.with_radius(1.0)
        if kind == "s":
            c1 = rademacher_S_mc(instance, unit, m, reps=reps, seed=seed).value
        else:
            c1 = rademacher_R_mc(instance, unit, m, reps=reps, seed=seed).value
    else:
        raise ValueError(f"unknown complexity source {source!r}")

    if spec.class_id == "linear-ellipsoid":
        if kind == "s":
            return c1
        return 0.0 if c1 <= threshold else float("inf")
    if kind == "s":
        return float(np.sqrt(c1))
    return c1 / threshold


def profile_csv_rows(profile) -> str:
    """Serialize (radius, estimate, stderr) triples for plotting."""
    lines = ["r,estimate,stderr"]
    for r, est in profile:
        lines.append(f"{r:.10g},{est.value:.10g},{est.stderr:.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Small-ball probability
# ---------------------------------------------------------------------------


def small_ball_estimate(
    instance: ProblemInstance,
    h,
    alpha1: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> ComplexityEstimate:
    """MC estimate of P[ |g h / pi|(X, A) >= alpha1 * ||h||_w ] from ``reps``
    draws."""
    _require_samples(reps=reps)
    if not np.isfinite(alpha1):
        raise ValueError(f"alpha1 is {alpha1}, not finite")
    h_norm = weighted_norm(instance, h)
    if h_norm == 0.0:
        raise ValueError("small-ball probability undefined for ||h||_w = 0")
    rng = make_generator(mix_seed(seed, "small-ball"))
    pairs = _draw_pairs(instance, reps, rng)
    vals = np.abs(
        _pair_values(instance, instance.weight_fn, pairs)
        * _pair_values(instance, h, pairs)
        / _pair_values(instance, instance.propensity, pairs)
    )
    hits = vals >= alpha1 * h_norm
    p = float(np.mean(hits))
    return ComplexityEstimate(p, float(np.sqrt(p * (1 - p) / reps)))


# ---------------------------------------------------------------------------
# Strong-shattering certificates
# ---------------------------------------------------------------------------


@dataclass
class ShatteringCertificate:
    """Points, thresholds and a witness map certifying shattering at a scale.

    The witness must hit threshold +/- scale exactly (within ``VERIFY_TOL``).
    Both maps are batched over leading axes: ``witness`` maps +/-1 patterns
    of shape (..., n_points) to parameters of shape (..., p), and
    ``evaluate(params, points)`` maps parameters of shape (..., p) to the
    witness functions' values at every stored point, shape (..., n_points).
    A single pattern of shape (n_points,) is the case with no leading axis.
    """

    points: np.ndarray
    thresholds: np.ndarray
    scale: float
    witness: Callable[[np.ndarray], np.ndarray]
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def pattern_blocks(self):
        """The checked sign patterns as (m, n_points) blocks, m <= PATTERN_BLOCK:
        all 2^d in ``itertools.product((-1.0, 1.0), repeat=d)`` order for
        d <= EXHAUSTIVE_PATTERN_LIMIT, else RANDOM_PATTERN_COUNT from one fixed stream."""
        d = self.n_points
        if d <= EXHAUSTIVE_PATTERN_LIMIT:
            shifts = np.arange(d - 1, -1, -1)  # bits of a counter, most significant first
            for start in range(0, 2**d, PATTERN_BLOCK):
                idx = np.arange(start, min(start + PATTERN_BLOCK, 2**d))
                yield ((idx[:, None] >> shifts) & 1) * 2.0 - 1.0
        else:
            rng = make_generator(mix_seed(0, "patterns"))
            for start in range(0, RANDOM_PATTERN_COUNT, PATTERN_BLOCK):
                m = min(PATTERN_BLOCK, RANDOM_PATTERN_COUNT - start)
                yield rng.integers(0, 2, size=(m, d)) * 2.0 - 1.0

    def verify(self) -> bool:
        """Check every (or 10^4 random) sign pattern's witness to ``VERIFY_TOL``, by block."""
        for zeta in self.pattern_blocks():
            values = np.asarray(self.evaluate(self.witness(zeta), self.points), dtype=float)
            target = self.thresholds + zeta * self.scale
            if np.max(np.abs(values - target)) > VERIFY_TOL:
                return False
        return True


@dataclass(frozen=True)
class Link:
    """Strictly increasing link with phi(0) = 0 and an explicit inverse."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]


IDENTITY_LINK = Link(forward=lambda z: z, inverse=lambda z: z)


def hadamard_glm_shatter(
    p: int, link: Link = IDENTITY_LINK, amplitude: float = 1.0, radius: float = 1.0
) -> ShatteringCertificate:
    """Equality-shattering certificate for single-index models.

    The points are the (unnormalized) Hadamard basis vectors of dimension p,
    which are orthogonal with squared norm p; the witness for a sign pattern
    places inverse-link values on that basis so the index model interpolates
    +/- amplitude*radius exactly at every point.
    """
    import scipy.linalg

    if p < 1 or (p & (p - 1)) != 0:
        raise ValueError("p must be a positive power of two")
    target = amplitude * radius
    inv_vals = np.asarray(link.inverse(np.array([-target, target])), dtype=float)
    if not np.all(np.isfinite(inv_vals)):
        raise ValueError(f"link inverse is not defined at +/-{target!r}")
    hadamard = scipy.linalg.hadamard(p).astype(float)
    points = hadamard.T.copy()  # row l is the l-th basis vector

    def witness(zeta: np.ndarray) -> np.ndarray:
        vals = np.asarray(link.inverse(zeta * target), dtype=float)
        return vals @ hadamard / p  # the Sylvester matrix is symmetric

    def evaluate(beta: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return np.asarray(link.forward(beta @ pts.T), dtype=float)

    cert = ShatteringCertificate(
        points=points,
        thresholds=np.zeros(p),
        scale=target,
        witness=witness,
        evaluate=evaluate,
    )
    if not cert.verify():
        raise RuntimeError("hadamard certificate failed self-verification")
    return cert


def sparse_packing_shatter(p: int, s: int) -> ShatteringCertificate:
    """Equality-shattering certificate for s-sparse linear models on R^p.

    Requires p = s * 2^k with k >= 1.  The k*s points are Kronecker products
    of binary-representation rows with block indicators; the witness for any
    binary pattern is s-sparse with sup-norm at most 1 and takes the value
    zeta_{i,j} in {0,1} at point (i,j).  Binary values are recentered to
    thresholds 1/2 at scale 1/2.
    """
    if s < 1 or p < 1 or p % s != 0:
        raise ValueError("p must be a positive multiple of s")
    block = p // s
    k = int(block).bit_length() - 1
    if 2**k != block:
        raise ValueError("p / s must be a power of two")
    if k == 0:
        raise ValueError(
            "s = p gives an empty construction (zero shattered points); "
            "choose s < p with p/s a power of two"
        )
    # column j of bits is the k-bit binary representation of j, MSB first;
    # point (i, j) is row i * s + j, kron(bits[i], e_j)
    powers = 2 ** np.arange(k - 1, -1, -1, dtype=float)
    bits = (np.arange(block) // powers[:, None]) % 2
    points = np.kron(bits, np.eye(s))

    def witness(zeta: np.ndarray) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=float)
        binary = ((zeta + 1.0) / 2.0).reshape(*zeta.shape[:-1], k, s)
        # column c of block j is entry c * s + j of kron(e_c, e_j)
        cols = np.rint(np.swapaxes(binary, -1, -2) @ powers).astype(int)
        beta = np.zeros((*zeta.shape[:-1], p))
        np.put_along_axis(beta, cols * s + np.arange(s), 1.0, axis=-1)
        return beta

    def evaluate(beta: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return beta @ pts.T

    cert = ShatteringCertificate(
        points=points,
        thresholds=np.full(k * s, 0.5),
        scale=0.5,
        witness=witness,
        evaluate=evaluate,
    )
    if not cert.verify():
        raise RuntimeError("sparse packing certificate failed self-verification")
    return cert
