"""Fixed points of the derivative operators: is y* a member of the operator's
value at y* itself, and what is the full fixed-point set?

A registry of closed-form characterizations answers queries exactly where a
characterization applies (whole dual space, origin only, or a nonnegativity
cone over an index set); everything else goes to the sampling oracle. In
audit mode both run and a contradiction fails loudly.

A `Query` names a map, a base and the duals to ask about there; `ask` answers
a list of them, one `limsup_oracle.Answer` each (the oracle's value and
verdict, or a closed form's verdict with no value), drawing one `SamplePass`
of the oracle (the map, the base, the schedule and every candidate-independent
row) for each run of queries at one base and sharing it across that run. The
oracle answers every query of a run that needs it in one array pass over their
stacked candidates (`_oracle_pass`, one `limsup_oracle.membership_batch`; a
fixed-point query is the membership query with y* = x*), bit for bit what each
candidate gets when asked alone; each fixed-point query is then settled by its
own `is_fixed_point` call, in order. The quotient-form audit checks the pass's
finest level (`SamplePass.audit`), so it sees the rows the oracle
judges, with the stacked pairing `spaces.pairing_stack`. The closed-form
side of a run is rows as well: the base's fixed-point set is taken once, and
the registry's rejection rays of all candidates are one (m, size) array
(`registry_rays`, from `MapDescriptor.expected_image` and
`spaces.norming_rows`), each row bit for bit the ray of its candidate alone.
`convexity_candidates` builds the labelled candidates of the convexity and
closedness probe, which are asked like any other query.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import chebyshev
from .coderivatives import (
    ORACLE_ONLY,
    FixedPointCharacterization,
    MapDescriptor,
    poly_projection_map,
)
from .limsup_oracle import (
    Answer,
    AuditRows,
    GraphPoint,
    LimsupEstimate,
    SamplePass,
    SamplingSchedule,
    Verdict,
    estimate_limsup,
    membership_batch,
    membership_test,  # not called here; the benchmark's tracer wraps this binding too
    norming_rays,
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
    dual_norm_rows,
    norm,
    pairing,
    pairing_rows,
    pairing_stack,
)

__all__ = [
    "FixedPointCharacterization",
    "FixedPointAuditError",
    "Query",
    "ScalingDirectionReport",
    "registry_rays",
    "registry_verdict",
    "is_fixed_point",
    "quotient_forms_spread",
    "ask",
    "convexity_candidates",
    "poly_annihilator",
    "poly_fixed_point_quotient",
    "scaling_direction_report",
]


class FixedPointAuditError(AssertionError):
    """The oracle contradicted a closed-form characterization."""


def registry_rays(mapd: MapDescriptor, base: GraphPoint, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rejection rays aimed by the closed forms, one row per candidate
    (x*, y*), the rows of the (m, size) arrays `xs` and `ys`: the norming
    direction of x* minus its expected image (`MapDescriptor.expected_image`),
    and a zero row where there is no expected image or x* is it to 1e-12
    scale (`limsup_oracle.norming_rays`). Safe to add for members, whose ray
    limits are nonpositive."""
    expected = mapd.expected_image(base, ys)
    if expected is None:
        return np.zeros(xs.shape)
    return norming_rays(mapd.space, xs - expected, ys)


def registry_verdict(
    mapd: MapDescriptor,
    base: GraphPoint,
    candidate: DualVector,
    char: FixedPointCharacterization | None = None,
) -> Verdict | None:
    """Exact verdict when a theorem in the registry settles the query,
    otherwise None.

    Beyond the full characterizations (`MapDescriptor.fixed_point_set`, or
    `char` where the caller has taken it already) this knows the partial
    cone facts: the duality image of a nonnegative base is always a fixed
    point, and at the origin every nonnegative dual is one. The dual origin
    is a fixed point of every operator.
    """
    if dual_norm(candidate) == 0.0:
        return Verdict.MEMBER
    if char is None:
        char = mapd.fixed_point_set(base)
    if char.kind != ORACLE_ONLY:
        return Verdict.MEMBER if char.membership(candidate) else Verdict.NON_MEMBER
    return Verdict.MEMBER if mapd.known_member(base, candidate) else None


def is_fixed_point(
    samples: SamplePass,
    candidate: DualVector,
    mode: str = "registry",
    *,
    batch: tuple[Verdict | None, tuple[float, float, Answer] | None] | None = None,
) -> Verdict:
    """Membership of the candidate in its own derivative-operator value at
    the base of `samples`.

    mode "registry": closed forms first, oracle as fallback. mode "oracle":
    sampling only (registry still aims rejection rays). mode "audit": run
    both, raise `FixedPointAuditError` on contradiction, and return the
    oracle's verdict, so an indeterminate one shows.

    `batch` is the candidate's entry of its run of queries in `ask`: its
    registry verdict (None in the oracle mode), and where it needs the
    oracle its `_oracle_pass` entry. Without it the registry is asked here,
    and a query that needs the oracle is a run of one.
    """
    if mode not in ("registry", "oracle", "audit"):
        raise ValueError(f"unknown mode {mode!r}")
    exact, oracle = batch or (
        None if mode == "oracle" else registry_verdict(samples.map, samples.base, candidate),
        None,
    )
    if mode == "registry" and exact is not None:
        return exact
    spread, scale, answer = oracle or _oracle_pass(samples, [Query(samples.map, samples.base, candidate)])[0]
    if spread > 1e-12 * scale:
        raise FixedPointAuditError(f"quotient forms disagree by {spread:.3e} at scale {scale:.3e}")
    if mode == "audit" and exact is not None:
        opposite = {Verdict.MEMBER: Verdict.NON_MEMBER, Verdict.NON_MEMBER: Verdict.MEMBER}
        if answer.verdict == opposite[exact]:
            raise FixedPointAuditError(
                f"oracle verdict {answer.verdict.value} contradicts the "
                f"closed form {exact.value} (extrapolated {answer.extrapolated:.3e})"
            )
    return answer.verdict


def _oracle_pass(samples: SamplePass, queries: Sequence[Query]) -> list[tuple[float, float, Answer]]:
    """What the oracle says about each query at the base of `samples`, in
    one `membership_batch` over the stacked candidates, a fixed-point query
    asked with y* = x*, each with the registry's rejection rays: the largest
    spread of the query's three quotient forms on the audit rows
    (`SamplePass.audit`; more than 1e-12 times its scale means the pairing
    arithmetic broke, and a membership query, which has no audit, reads
    0.0), its scale 1 + ||y*||_*, and its answer."""
    mapd, base = samples.map, samples.base
    xs = np.stack([q.xstar.values for q in queries])
    ys = np.stack([(q.xstar if q.ystar is None else q.ystar).values for q in queries])
    answers = membership_batch(samples, xs, ys, registry_rays(mapd, base, xs, ys)[:, None])
    fixed = np.array([q.ystar is None for q in queries])
    spreads = np.zeros(len(queries))
    if fixed.any():
        # every fixed-point candidate's spreads at once, each row bit for bit
        # its own `quotient_forms_spread` (`pairing_stack`)
        duals = xs[fixed]
        spreads[fixed] = _forms_spread(
            lambda rows: pairing_stack(mapd.space, duals, rows[None]), samples.audit
        ).max(axis=-1)
    scales = 1.0 + dual_norm_rows(mapd.space, ys)
    return list(zip(spreads.tolist(), scales.tolist(), answers))


def quotient_forms_spread(ystar: DualVector, rows: AuditRows) -> np.ndarray:
    """Largest pairwise difference of the three algebraically equal quotient
    forms of the fixed-point criterion at each audit row: pairing the
    increments separately, pairing their difference, and pairing the
    residual shift (u - v) - (x - y)."""
    return _forms_spread(lambda increments: pairing_rows(ystar, increments), rows)


def _forms_spread(pair, rows: AuditRows) -> np.ndarray:
    """`quotient_forms_spread` with the pairing `pair` of the audit rows'
    increments: one dual's, or a stack of duals' (one leading axis more)."""
    f1 = (pair(rows.du) - pair(rows.dv)) / rows.den
    f2 = pair(rows.du_minus_dv) / rows.den
    f3 = pair(rows.shift) / rows.den
    return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


@dataclass(frozen=True, eq=False)
class Query:
    """One oracle question at a graph point of a map. Without y* it asks
    whether x* is a fixed point (`is_fixed_point` in `mode`); with y* it asks
    whether x* lies in the derivative operator's value at y*
    (`membership_test`, with the registry's rejection rays)."""

    map: MapDescriptor
    base: GraphPoint
    xstar: DualVector
    ystar: DualVector | None = None
    mode: str = "registry"


def ask(queries: Iterable[Query], schedule: SamplingSchedule) -> list[Answer]:
    """The answer of each query, in order: the oracle's `Answer` where the
    oracle settled it, and the registry's verdict without a value
    (`extrapolated` None) where a closed form did. Each run of consecutive
    queries at one map and base shares one `SamplePass`, drawn when the run
    starts, after the previous run's pass is released; an answer holds no
    trace, so nothing holds on to a pass.

    The oracle answers every query of a run that needs it in one array pass
    over their candidates (`_oracle_pass`, one `membership_batch`). Each
    fixed-point query is then settled by its own `is_fixed_point` call, in
    order, so the first query that fails raises.
    """
    answers: list[Answer] = []
    samples = None
    for (mapd, base), run in groupby(queries, key=lambda q: (q.map, q.base)):
        samples = None  # release the previous pass before drawing this one
        samples = sample_base(mapd, base, schedule)
        answers += _ask_run(samples, list(run))
    return answers


def _ask_run(samples: SamplePass, run: list[Query]) -> list[Answer]:
    """The answers of a run of queries at the base of `samples`, in order.
    Each fixed-point query in the registry and audit modes asks the registry
    once, with the base's closed-form fixed-point set taken once for all of
    them; every query that needs the oracle is answered by one
    `_oracle_pass`."""
    mapd, base = samples.map, samples.base
    asked = [q for q in run if q.ystar is None and q.mode in ("registry", "audit")]
    char = mapd.fixed_point_set(base) if asked else None
    exact = {q: registry_verdict(mapd, base, q.xstar, char) for q in asked}
    # membership queries and the oracle and audit modes ask the oracle, the
    # registry mode only where no closed form settles the query
    needed = [q for q in run if q.ystar is not None or q.mode in ("oracle", "audit")
              or (q in exact and exact[q] is None)]
    checked = dict(zip(needed, _oracle_pass(samples, needed))) if needed else {}
    settled = {q: is_fixed_point(samples, q.xstar, q.mode, batch=(exact.get(q), checked.get(q)))
               for q in run if q.ystar is None}
    return [checked[q][2] if q in checked else Answer(None, settled[q]) for q in run]


def convexity_candidates(
    members: Sequence[DualVector], trials: int = 100, seed: int = 0
) -> list[tuple[str, DualVector]]:
    """Labelled candidates of the convexity and closedness probe of a
    fixed-point set that holds `members`: convex combinations of random
    member pairs at t in {0.25, 0.5, 0.75}, then a geometric interpolation
    sequence toward the first member, and that member as its limit. Each
    must be a fixed point too."""
    if len(members) < 2:
        raise ValueError("need at least two members to combine")
    rng = np.random.default_rng(seed)
    weights = (0.25, 0.5, 0.75)
    candidates = []
    for trial in range(trials):
        i, j = rng.integers(0, len(members), size=2)
        t = weights[trial % len(weights)]
        combo = t * members[int(i)] + (1.0 - t) * members[int(j)]
        candidates.append((f"combination trial {trial}", combo))
    target, other = members[0], members[-1]
    candidates += [(f"sequence step {k}", target + (2.0**-k) * (other - target)) for k in range(1, 7)]
    candidates.append(("sequence limit", target))
    return candidates

# ---------------------------------------------------------------------------
# polynomial projection fixed points
# ---------------------------------------------------------------------------

def poly_annihilator(space: SpaceSpec, degree: int) -> DualVector:
    """An atomic measure annihilating every polynomial of degree <= degree:
    atoms at the degree + 2 grid nodes of `chebyshev.chebyshev_nodes` (the
    Remez exchange's first reference), weights spanning the null space of
    the moment matrix at those nodes, normalized to total variation 1 with a
    positive first weight. The weights are solved at the nodes themselves,
    since snapping the atoms after solving breaks the annihilation by up to
    4e-4 for degrees 3 to 5."""
    pts = space.grid[chebyshev.chebyshev_nodes(space.grid_size, degree)]
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
    lams = [SCALING_LAM0 * SCALING_RATIO**j for j in range(SCALING_STEPS)]
    # the base and the path's fits as one batch
    rows = np.array([f.values] + [(1.0 + lam) * f.values for lam in lams])
    fitted_rows = chebyshev.fits_on_grid(f.space, chebyshev.remez_rows(f.space, rows, degree))
    p_grid = fitted_rows[0]
    quotients = []
    for g_values, q_grid in zip(rows[1:], fitted_rows[1:]):
        g = PrimalVector(f.space, g_values)
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

