"""Fixed points of the derivative operators: is y* a member of the operator's
value at y* itself, and what is the full fixed-point set?

A registry of closed-form characterizations answers queries exactly where a
characterization applies (whole dual space, origin only, or a nonnegativity
cone over an index set); everything else goes to the sampling oracle. In
audit mode both run and a contradiction fails loudly.

A query is one candidate asked at one `SamplePass` of the oracle: the map,
the base, the schedule and every candidate-independent row, shared by all
candidates asked there. The quotient-form audit checks the pass's finest
level (`SamplePass.audit`), so it sees the rows the oracle judges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebyshev
from .coderivatives import (
    ORACLE_ONLY,
    FixedPointCharacterization,
    MapDescriptor,
    poly_projection_map,
)
from .limsup_oracle import (
    AuditRows,
    GraphPoint,
    LimsupEstimate,
    SamplePass,
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
    norming_direction,
    pairing,
    pairing_rows,
)

__all__ = [
    "FixedPointCharacterization",
    "FixedPointAuditError",
    "ConvexityProbeReport",
    "ScalingDirectionReport",
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


def registry_verdict(mapd: MapDescriptor, base: GraphPoint, candidate: DualVector) -> Verdict | None:
    """Exact verdict when a theorem in the registry settles the query,
    otherwise None.

    Beyond the full characterizations (`MapDescriptor.fixed_point_set`) this
    knows the partial cone facts: the duality image of a nonnegative base is
    always a fixed point, and at the origin every nonnegative dual is one.
    The dual origin is a fixed point of every operator.
    """
    if dual_norm(candidate) == 0.0:
        return Verdict.MEMBER
    char = mapd.fixed_point_set(base)
    if char.kind != ORACLE_ONLY:
        return Verdict.MEMBER if char.membership(candidate) else Verdict.NON_MEMBER
    return Verdict.MEMBER if mapd.known_member(base, candidate) else None


def is_fixed_point(samples: SamplePass, candidate: DualVector, mode: str = "registry") -> Verdict:
    """Membership of the candidate in its own derivative-operator value at
    the base of `samples`.

    mode "registry": closed forms first, oracle as fallback. mode "oracle":
    sampling only (registry still aims rejection rays). mode "audit": run
    both, raise `FixedPointAuditError` on contradiction, and return the
    oracle's verdict, so an indeterminate one shows.
    """
    if mode not in ("registry", "oracle", "audit"):
        raise ValueError(f"unknown mode {mode!r}")
    mapd, base = samples.map, samples.base
    exact = None if mode == "oracle" else registry_verdict(mapd, base, candidate)
    if mode == "registry" and exact is not None:
        return exact
    _check_quotient_forms(candidate, samples.audit)
    rays = registry_rays(mapd, base, candidate, candidate)
    estimate = membership_test(mapd, base, candidate, candidate, samples.schedule, rays, samples=samples)
    if mode == "audit" and exact is not None:
        opposite = {Verdict.MEMBER: Verdict.NON_MEMBER, Verdict.NON_MEMBER: Verdict.MEMBER}
        if estimate.verdict == opposite[exact]:
            raise FixedPointAuditError(
                f"oracle verdict {estimate.verdict.value} contradicts the "
                f"closed form {exact.value} (extrapolated {estimate.extrapolated:.3e})"
            )
    return estimate.verdict


def _check_quotient_forms(candidate: DualVector, rows: AuditRows) -> None:
    """The three equal quotient forms must agree to 1e-12 scale on the audit
    rows; a violation means the pairing arithmetic broke."""
    scale = 1.0 + dual_norm(candidate)
    spread = float(np.max(quotient_forms_spread(candidate, rows)))
    if spread > 1e-12 * scale:
        raise FixedPointAuditError(f"quotient forms disagree by {spread:.3e} at scale {scale:.3e}")


def quotient_forms_spread(ystar: DualVector, rows: AuditRows) -> np.ndarray:
    """Largest pairwise difference of the three algebraically equal quotient
    forms of the fixed-point criterion at each audit row: pairing the
    increments separately, pairing their difference, and pairing the
    residual shift (u - v) - (x - y)."""
    f1 = (pairing_rows(ystar, rows.du) - pairing_rows(ystar, rows.dv)) / rows.den
    f2 = pairing_rows(ystar, rows.du_minus_dv) / rows.den
    f3 = pairing_rows(ystar, rows.shift) / rows.den
    return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


@dataclass(frozen=True)
class ConvexityProbeReport:
    combinations_checked: int
    sequence_checked: int
    violations: tuple[str, ...]


def convexity_closedness_probe(
    samples: SamplePass,
    members: tuple[DualVector, ...],
    trials: int = 100,
    seed: int = 0,
    mode: str = "registry",
) -> ConvexityProbeReport:
    """Convexity and closedness probe of the fixed-point set at the base of
    `samples`: convex combinations of members at t in {0.25, 0.5, 0.75} must
    stay members, and a geometric interpolation sequence toward a member,
    together with its limit, must stay members."""
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
        verdict = is_fixed_point(samples, combo, mode=mode)
        combos += 1
        if verdict != Verdict.MEMBER:
            violations.append(f"combination trial {trial}: {verdict.value}")
    return _probe_sequence(samples, members, mode, combos, violations)


def _probe_sequence(samples, members, mode, combos, violations):
    target, other = members[0], members[-1]
    seq_checked = 0
    for k in range(1, 7):
        z = target + (2.0**-k) * (other - target)
        verdict = is_fixed_point(samples, z, mode=mode)
        seq_checked += 1
        if verdict != Verdict.MEMBER:
            violations.append(f"sequence step {k}: {verdict.value}")
    limit_verdict = is_fixed_point(samples, target, mode=mode)
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
    weights, _ = chebyshev.annihilator(pts, degree)
    return atomic_measure(space, tuple(zip(pts.tolist(), weights.tolist())))


# The polynomial quotient samples POLY_LEVELS radii from POLY_R0 down, with
# POLY_DIRS random directions per level next to its polynomial and smooth rays.
POLY_R0 = 0.5
POLY_LEVELS = 5
POLY_DIRS = 16


def poly_fixed_point_quotient(
    f: PrimalVector,
    degree: int,
    candidate: DualVector,
    seed: int = 0,
) -> LimsupEstimate:
    """Fixed-point quotient estimate for the polynomial projection at f, with
    perturbation directions drawn from smooth random grid functions plus
    polynomial directions (the projection is continuous, so numerators and
    denominators vanish together along every sampled path)."""
    if f.space.kind != KIND_C01:
        raise ValueError("needs a C01 grid function")
    mapd = poly_projection_map(f.space, degree)
    grid = f.space.grid
    rng = np.random.default_rng([seed, 977])
    rays: list[PrimalVector] = [f]
    for k in range(degree + 2):
        rays.append(PrimalVector(f.space, grid**k))
    for _ in range(4):
        vals = np.zeros(grid.size)
        for k in range(1, 6):
            vals += rng.normal() * np.sin(np.pi * k * grid) / k
        rays.append(PrimalVector(f.space, vals))
    sched = SamplingSchedule(
        r0=POLY_R0, levels=POLY_LEVELS, dirs_per_level=POLY_DIRS, extra_rays=tuple(rays), seed=seed
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

