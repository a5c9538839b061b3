"""Fixed points of the derivative operators: is y* a member of the operator's
value at y* itself, and what is the full fixed-point set?

A registry of closed-form characterizations answers queries exactly where a
characterization applies (whole dual space, origin only, or a nonnegativity
cone over an index set); everything else goes to the sampling oracle. In
audit mode both run and a contradiction fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import chebyshev
from .coderivatives import (
    ORACLE_ONLY,
    ORIGIN_ONLY,
    POSITIVE_CONE_DUAL,
    WHOLE_DUAL,
    FixedPointCharacterization,
    MapDescriptor,
    poly_projection_map,
)
from .limsup_oracle import (
    GraphPoint,
    LimsupEstimate,
    SamplePass,
    SamplingSchedule,
    Verdict,
    estimate_limsup,
    membership_test,
    sample_base,
    tolerance_pair,
)
from .spaces import (
    KIND_C01,
    DualVector,
    PrimalVector,
    SpaceSpec,
    atomic_measure,
    dual_norm,
    norm,
    norm_rows,
    norming_direction,
    pairing,
    pairing_rows,
)

__all__ = [
    "FixedPointQuery",
    "BaseSamples",
    "FixedPointCharacterization",
    "FixedPointAuditError",
    "ConvexityProbeReport",
    "ScalingDirectionReport",
    "WHOLE_DUAL",
    "ORIGIN_ONLY",
    "POSITIVE_CONE_DUAL",
    "ORACLE_ONLY",
    "characterize",
    "registry_rays",
    "registry_verdict",
    "is_fixed_point",
    "quotient_forms_spread",
    "convexity_closedness_probe",
    "poly_annihilator",
    "poly_fixed_point_quotient",
    "scaling_direction_report",
]


class FixedPointAuditError(AssertionError):
    """The oracle contradicted a closed-form characterization."""


@dataclass(frozen=True, eq=False)
class FixedPointQuery:
    map: MapDescriptor
    base: GraphPoint
    candidate: DualVector


@dataclass(frozen=True, eq=False)
class BaseSamples:
    """The candidate-independent rows of every fixed-point query at one base
    and schedule: the oracle's sample pass and the (us, vs) rows of the
    quotient-form audit. Each is drawn on first use, so a base whose queries
    the registry settles draws nothing; once drawn, every array is read
    only."""

    map: MapDescriptor
    base: GraphPoint
    schedule: SamplingSchedule

    @cached_property
    def oracle(self) -> SamplePass:
        return sample_base(self.map, self.base, self.schedule)

    @cached_property
    def audit(self) -> tuple[np.ndarray, np.ndarray]:
        return _audit_rows(self.map, self.base, self.schedule)


def characterize(mapd: MapDescriptor, base: GraphPoint) -> FixedPointCharacterization:
    """Closed-form fixed-point set of the derivative operator at the base
    (see `MapDescriptor.fixed_point_set`)."""
    return mapd.fixed_point_set(base)


def registry_rays(
    mapd: MapDescriptor, base: GraphPoint, xstar: DualVector, ystar: DualVector
) -> tuple[PrimalVector, ...]:
    """Rejection rays aimed by the closed forms: the norming direction of
    x* minus its expected image. Safe to add for members, whose ray limits
    are nonpositive."""
    rays: list[PrimalVector] = []
    expected = mapd.expected_image(base, ystar)
    if expected is not None:
        diff = xstar - expected
        if dual_norm(diff) > 1e-12 * (1.0 + dual_norm(ystar)):
            rays.append(norming_direction(diff))
    return tuple(rays)


def registry_verdict(query: FixedPointQuery) -> Verdict | None:
    """Exact verdict when a theorem in the registry settles the query,
    otherwise None.

    Beyond the full characterizations this knows the partial cone facts: the
    duality image of a nonnegative base is always a fixed point, and at the
    origin every nonnegative dual is one. The dual origin is a fixed point of
    every operator.
    """
    mapd, base, cand = query.map, query.base, query.candidate
    if dual_norm(cand) == 0.0:
        return Verdict.MEMBER
    char = characterize(mapd, base)
    if char.kind != ORACLE_ONLY:
        return Verdict.MEMBER if char.membership(cand) else Verdict.NON_MEMBER
    return Verdict.MEMBER if mapd.known_member(base, cand) else None


def is_fixed_point(
    query: FixedPointQuery,
    schedule: SamplingSchedule | None = None,
    mode: str = "registry",
    *,
    samples: BaseSamples | None = None,
) -> Verdict:
    """Membership of the candidate in its own derivative-operator value.

    mode "registry": closed forms first, oracle as fallback. mode "oracle":
    sampling only (registry still aims rejection rays). mode "audit": run
    both and raise `FixedPointAuditError` on contradiction. `samples` shares
    the sampled rows of one base among its queries; samples drawn for
    another map, base or schedule are a ValueError.
    """
    if mode not in ("registry", "oracle", "audit"):
        raise ValueError(f"unknown mode {mode!r}")
    schedule = schedule or SamplingSchedule()
    if samples is None:
        samples = BaseSamples(query.map, query.base, schedule)
    elif samples.map is not query.map or samples.base is not query.base or samples.schedule != schedule:
        raise ValueError("the base samples were drawn for another map, base or schedule")
    exact = None if mode == "oracle" else registry_verdict(query)
    if mode == "registry" and exact is not None:
        return exact
    _check_quotient_forms(query.base, query.candidate, *samples.audit)
    rays = registry_rays(query.map, query.base, query.candidate, query.candidate)
    estimate = membership_test(
        query.map, query.base, query.candidate, query.candidate, schedule, rays, samples=samples.oracle
    )
    if mode == "audit" and exact is not None:
        opposite = {Verdict.MEMBER: Verdict.NON_MEMBER, Verdict.NON_MEMBER: Verdict.MEMBER}
        if estimate.verdict == opposite[exact]:
            raise FixedPointAuditError(
                f"oracle verdict {estimate.verdict.value} contradicts the "
                f"closed form {exact.value} (extrapolated {estimate.extrapolated:.3e})"
            )
        return exact
    return estimate.verdict


def _audit_rows(
    mapd: MapDescriptor, base: GraphPoint, schedule: SamplingSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """The eight graph points (us, vs) of the quotient-form audit, at
    max-norm distance the schedule's finest radius from x; read only."""
    rng = np.random.default_rng([schedule.seed, 555])
    radius = schedule.r0 * 2.0 ** (-(schedule.levels - 1))
    dirs = rng.standard_normal((8, mapd.space.size))
    peaks = np.max(np.abs(dirs), axis=1)
    dirs, peaks = dirs[peaks > 0.0], peaks[peaks > 0.0]
    us = base.x.values[None, :] + (radius / peaks)[:, None] * dirs
    vs = mapd.value_batch(us)
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


def _check_quotient_forms(
    base: GraphPoint, candidate: DualVector, us: np.ndarray, vs: np.ndarray
) -> None:
    """The three equal quotient forms must agree to 1e-12 scale on the
    sampled graph points (us, vs); a violation means the pairing arithmetic
    broke."""
    scale = 1.0 + dual_norm(candidate)
    spread = float(np.max(quotient_forms_spread(candidate, base, us, vs)))
    if spread > 1e-12 * scale:
        raise FixedPointAuditError(f"quotient forms disagree by {spread:.3e} at scale {scale:.3e}")


def quotient_forms_spread(
    ystar: DualVector, base: GraphPoint, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Largest pairwise difference of the three algebraically equal quotient
    forms of the fixed-point criterion at each sample (us[i], vs[i]): pairing
    the increments separately, pairing their difference, and pairing the
    residual shift (u - v) - (x - y).

    The shift is formed from the error-free differences of u - v and x - y.
    Rounded plainly, it would carry an absolute error of about eps |x - y|,
    which the small denominators near an exterior base blow up."""
    du = us - base.x.values[None, :]
    dv = vs - base.y.values[None, :]
    den = norm_rows(base.x.space, du) + norm_rows(base.x.space, dv)
    if not np.all(den):
        raise ZeroDivisionError("sample coincides with the base point")
    f1 = (pairing_rows(ystar, du) - pairing_rows(ystar, dv)) / den
    f2 = pairing_rows(ystar, du - dv) / den
    a, ea = _two_diff(us, vs)
    b, eb = _two_diff(base.x.values, base.y.values)
    f3 = pairing_rows(ystar, (a - b) + (ea - eb)) / den
    return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


def _two_diff(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoDiff: s = fl(a - b) and the rounding error e, with
    s + e = a - b exactly (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26,
    2005)."""
    s = a - b
    bv = s - a
    av = s - bv
    return s, (a - av) - (b + bv)


@dataclass(frozen=True)
class ConvexityProbeReport:
    combinations_checked: int
    sequence_checked: int
    violations: tuple[str, ...]


def convexity_closedness_probe(
    mapd: MapDescriptor,
    base: GraphPoint,
    members: tuple[DualVector, ...],
    trials: int = 100,
    schedule: SamplingSchedule | None = None,
    seed: int = 0,
    mode: str = "registry",
) -> ConvexityProbeReport:
    """Convexity and closedness probe of the fixed-point set: convex
    combinations of members at t in {0.25, 0.5, 0.75} must stay members, and
    a geometric interpolation sequence toward a member, together with its
    limit, must stay members."""
    if len(members) < 2:
        raise ValueError("need at least two members to combine")
    samples = BaseSamples(mapd, base, schedule or SamplingSchedule())
    rng = np.random.default_rng(seed)
    violations: list[str] = []
    weights = (0.25, 0.5, 0.75)
    combos = 0
    for trial in range(trials):
        i, j = rng.integers(0, len(members), size=2)
        t = weights[trial % len(weights)]
        combo = t * members[int(i)] + (1.0 - t) * members[int(j)]
        query = FixedPointQuery(mapd, base, combo)
        verdict = is_fixed_point(query, samples.schedule, mode=mode, samples=samples)
        combos += 1
        if verdict != Verdict.MEMBER:
            violations.append(f"combination trial {trial}: {verdict.value}")
    return _probe_sequence(mapd, base, members, samples, mode, combos, violations)


def _probe_sequence(mapd, base, members, samples, mode, combos, violations):
    target, other = members[0], members[-1]
    seq_checked = 0
    for k in range(1, 7):
        z = target + (2.0**-k) * (other - target)
        query = FixedPointQuery(mapd, base, z)
        verdict = is_fixed_point(query, samples.schedule, mode=mode, samples=samples)
        seq_checked += 1
        if verdict != Verdict.MEMBER:
            violations.append(f"sequence step {k}: {verdict.value}")
    query = FixedPointQuery(mapd, base, target)
    limit_verdict = is_fixed_point(query, samples.schedule, mode=mode, samples=samples)
    seq_checked += 1
    if limit_verdict != Verdict.MEMBER:
        violations.append(f"sequence limit: {limit_verdict.value}")
    return ConvexityProbeReport(
        combinations_checked=combos,
        sequence_checked=seq_checked,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# polynomial projection fixed points
# ---------------------------------------------------------------------------

def poly_annihilator(space: SpaceSpec, degree: int) -> DualVector:
    """An atomic measure annihilating every polynomial of degree <= degree:
    atoms at the grid nodes nearest to degree + 2 Chebyshev points, weights
    spanning the null space of the moment matrix at those nodes, normalized
    to total variation 1 with a positive first weight. The weights are solved
    at the nodes themselves, since snapping the atoms after solving breaks
    the annihilation by up to 4e-4 for degrees 3 to 5."""
    last = space.grid_size - 1
    pts = space.grid[[int(round(t * last)) for t in chebyshev.chebyshev_points(degree + 2)]]
    moments = pts[None, :] ** np.arange(degree + 1)[:, None]
    _, _, vt = np.linalg.svd(moments)
    weights = vt[-1]
    if weights[0] < 0:
        weights = -weights
    weights = weights / np.sum(np.abs(weights))
    return atomic_measure(space, tuple(zip(pts.tolist(), weights.tolist())))


def poly_fixed_point_quotient(
    f: PrimalVector,
    degree: int,
    candidate: DualVector,
    schedule: SamplingSchedule | None = None,
    seed: int = 0,
) -> LimsupEstimate:
    """Fixed-point quotient estimate for the polynomial projection at f, with
    perturbation directions drawn from smooth random grid functions plus
    polynomial directions (the projection is continuous, so numerators and
    denominators vanish together along every sampled path)."""
    if f.space.kind != KIND_C01:
        raise ValueError("needs a C01 grid function")
    schedule = schedule or SamplingSchedule(levels=5, dirs_per_level=16, seed=seed)
    mapd = poly_projection_map(f.space, degree)
    grid = f.space.grid
    rng = np.random.default_rng([schedule.seed, 977])
    rays: list[PrimalVector] = [f]
    for k in range(degree + 2):
        rays.append(PrimalVector(f.space, grid**k))
    for _ in range(4):
        vals = np.zeros(grid.size)
        for k in range(1, 6):
            vals += rng.normal() * np.sin(np.pi * k * grid) / k
        rays.append(PrimalVector(f.space, vals))
    sched = SamplingSchedule(
        r0=schedule.r0,
        levels=schedule.levels,
        dirs_per_level=schedule.dirs_per_level,
        extra_rays=tuple(rays),
        seed=schedule.seed,
    )
    base = GraphPoint.at_point(mapd, f)
    return estimate_limsup(mapd, base, candidate, candidate, sched)


@dataclass(frozen=True)
class ScalingDirectionReport:
    """Directed limit along the scaling path g = (1 + lambda) f for the
    polynomial projection, against the predicted value
    <mu, f> / (||f|| + ||p||), plus the exclusions it certifies."""

    limit: float
    predicted: float
    relative_error: float
    candidate_excluded: bool
    fixed_point_excluded: bool | None
    lambdas: tuple[float, ...]
    quotients: tuple[float, ...]


# The scaling path starts at lambda = SCALING_LAM0 and takes SCALING_STEPS
# steps shrinking by SCALING_RATIO.
SCALING_LAM0 = 0.05
SCALING_STEPS = 10
SCALING_RATIO = 0.5


def scaling_direction_report(
    f: PrimalVector,
    degree: int,
    mu: DualVector,
    gamma: DualVector,
) -> ScalingDirectionReport:
    """Certify mu outside the derivative-operator value at gamma (and, when
    mu = gamma annihilates the polynomial class, outside the fixed-point set)
    by the scaling path g = (1 + lambda) f.

    Preconditions: <mu, f> != 0 and gamma annihilates all monomials up to the
    degree. Projections along the path are recomputed by the exchange
    algorithm rather than rescaled, so the limit genuinely tests the
    implementation.
    """
    if f.space.kind != KIND_C01:
        raise ValueError("needs a C01 grid function")
    if abs(pairing(mu, f)) <= 1e-12 * (1.0 + dual_norm(mu)):
        raise ValueError("the scaling path needs <mu, f> != 0")
    grid = f.space.grid
    for k in range(degree + 1):
        if abs(pairing(gamma, PrimalVector(f.space, grid**k))) > 1e-10:
            raise ValueError("gamma must annihilate the polynomial class")
    base_fit = chebyshev.remez(f, degree)
    p_grid = base_fit.polynomial(grid)
    lams = [SCALING_LAM0 * SCALING_RATIO**j for j in range(SCALING_STEPS)]
    quotients = []
    for lam in lams:
        g = PrimalVector(f.space, (1.0 + lam) * f.values)
        q_grid = chebyshev.remez(g, degree).polynomial(grid)
        num = pairing(mu, g - f) - pairing(gamma, PrimalVector(f.space, q_grid - p_grid))
        den = float(np.max(np.abs(g.values - f.values)) + np.max(np.abs(q_grid - p_grid)))
        quotients.append(num / den)
    limit = float((quotients[-1] - SCALING_RATIO * quotients[-2]) / (1.0 - SCALING_RATIO))
    predicted = pairing(mu, f) / (norm(f) + float(np.max(np.abs(p_grid))))
    rel_err = abs(limit - predicted) / max(abs(predicted), 1e-300)
    _, tol_reject = tolerance_pair(gamma)
    candidate_excluded = limit >= tol_reject
    fixed_point_excluded: bool | None = None
    if dual_norm(mu - gamma) <= 1e-12 * (1.0 + dual_norm(mu)):
        _, tol_reject_mu = tolerance_pair(mu)
        fixed_point_excluded = limit >= tol_reject_mu
    return ScalingDirectionReport(
        limit=limit,
        predicted=float(predicted),
        relative_error=float(rel_err),
        candidate_excluded=bool(candidate_excluded),
        fixed_point_excluded=fixed_point_excluded,
        lambdas=tuple(lams),
        quotients=tuple(float(q) for q in quotients),
    )

