"""Fixed points of the derivative operators: is y* a member of the operator's
value at y* itself, and what is the full fixed-point set?

A registry of closed-form characterizations answers queries exactly where a
characterization applies (whole dual space, origin only, or a nonnegativity
cone over an index set); everything else goes to the sampling oracle. In
audit mode both run and a contradiction fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    SamplingSchedule,
    Verdict,
    estimate_limsup,
    membership_test,
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
    "query_report_json",
]


class FixedPointAuditError(AssertionError):
    """The oracle contradicted a closed-form characterization."""


@dataclass(frozen=True, eq=False)
class FixedPointQuery:
    map: MapDescriptor
    base: GraphPoint
    candidate: DualVector


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
) -> Verdict:
    """Membership of the candidate in its own derivative-operator value.

    mode "registry": closed forms first, oracle as fallback. mode "oracle":
    sampling only (registry still aims rejection rays). mode "audit": run
    both and raise `FixedPointAuditError` on contradiction.
    """
    if mode not in ("registry", "oracle", "audit"):
        raise ValueError(f"unknown mode {mode!r}")
    schedule = schedule or SamplingSchedule()
    exact = registry_verdict(query)
    if mode == "registry" and exact is not None:
        return exact
    _check_quotient_forms(query.map, query.base, query.candidate, schedule)
    rays = registry_rays(query.map, query.base, query.candidate, query.candidate)
    estimate = membership_test(query.map, query.base, query.candidate, query.candidate, schedule, rays)
    if mode == "audit" and exact is not None:
        opposite = {Verdict.MEMBER: Verdict.NON_MEMBER, Verdict.NON_MEMBER: Verdict.MEMBER}
        if estimate.verdict == opposite[exact]:
            raise FixedPointAuditError(
                f"oracle verdict {estimate.verdict.value} contradicts the "
                f"closed form {exact.value} (extrapolated {estimate.extrapolated:.3e})"
            )
        return exact
    return estimate.verdict


def _check_quotient_forms(
    mapd: MapDescriptor, base: GraphPoint, candidate: DualVector, schedule: SamplingSchedule
) -> None:
    """The three equal quotient forms must agree to 1e-12 scale on sampled
    graph points; a violation means the pairing arithmetic broke."""
    rng = np.random.default_rng([schedule.seed, 555])
    space = mapd.space
    radius = schedule.r0 * 2.0 ** (-(schedule.levels - 1))
    scale = 1.0 + dual_norm(candidate)
    dirs = rng.standard_normal((8, space.size))
    peaks = np.max(np.abs(dirs), axis=1)
    dirs, peaks = dirs[peaks > 0.0], peaks[peaks > 0.0]
    us = base.x.values[None, :] + (radius / peaks)[:, None] * dirs
    spread = float(np.max(quotient_forms_spread(candidate, base, us, mapd.value_batch(us))))
    if spread > 1e-12 * scale:
        raise FixedPointAuditError(f"quotient forms disagree by {spread:.3e} at scale {scale:.3e}")


def quotient_forms_spread(
    ystar: DualVector, base: GraphPoint, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Largest pairwise difference of the three algebraically equal quotient
    forms of the fixed-point criterion at each sample (us[i], vs[i]): pairing
    the increments separately, pairing their difference, and pairing the
    residual shift."""
    du = us - base.x.values[None, :]
    dv = vs - base.y.values[None, :]
    den = norm_rows(base.x.space, du) + norm_rows(base.x.space, dv)
    if not np.all(den):
        raise ZeroDivisionError("sample coincides with the base point")
    f1 = (pairing_rows(ystar, du) - pairing_rows(ystar, dv)) / den
    f2 = pairing_rows(ystar, du - dv) / den
    f3 = pairing_rows(ystar, (us - vs) - (base.x.values - base.y.values)[None, :]) / den
    return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


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
    rng = np.random.default_rng(seed)
    violations: list[str] = []
    weights = (0.25, 0.5, 0.75)
    combos = 0
    for trial in range(trials):
        i, j = rng.integers(0, len(members), size=2)
        t = weights[trial % len(weights)]
        combo = t * members[int(i)] + (1.0 - t) * members[int(j)]
        verdict = is_fixed_point(FixedPointQuery(mapd, base, combo), schedule, mode=mode)
        combos += 1
        if verdict != Verdict.MEMBER:
            violations.append(f"combination trial {trial}: {verdict.value}")
    return _probe_sequence(mapd, base, members, schedule, mode, combos, violations)


def _probe_sequence(mapd, base, members, schedule, mode, combos, violations):
    target, other = members[0], members[-1]
    seq_checked = 0
    for k in range(1, 7):
        z = target + (2.0**-k) * (other - target)
        verdict = is_fixed_point(FixedPointQuery(mapd, base, z), schedule, mode=mode)
        seq_checked += 1
        if verdict != Verdict.MEMBER:
            violations.append(f"sequence step {k}: {verdict.value}")
    limit_verdict = is_fixed_point(FixedPointQuery(mapd, base, target), schedule, mode=mode)
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


def query_report_json(
    query: FixedPointQuery,
    verdict: Verdict,
    estimate: LimsupEstimate | None = None,
) -> str:
    """One fixed-point query as a JSON record (query data, characterization,
    verdict, and the per-level trace when an oracle estimate is attached)."""
    char = characterize(query.map, query.base)
    record = {
        "map": query.map.kind,
        "base_x": [float(t) for t in query.base.x.values],
        "candidate": (
            [float(t) for t in query.candidate.values]
            if query.candidate.values is not None
            else [[loc, w] for loc, w in query.candidate.atoms]
        ),
        "characterization": char.kind,
        "verdict": verdict.value,
    }
    if estimate is not None:
        record["per_level_sup"] = list(estimate.per_level_sup)
        record["extrapolated"] = estimate.extrapolated
    return json.dumps(record, sort_keys=True)
