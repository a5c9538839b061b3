"""Fixed points of the derivative operators: is y* a member of the operator's
value at y* itself, and what is the full fixed-point set?

A registry of closed-form characterizations answers queries exactly where a
characterization applies (whole dual space, origin only, or a nonnegativity
cone over an index set); everything else goes to the sampling oracle. In
audit mode both run and a contradiction fails loudly.

A `Query` names a map, a base and the duals to ask about there; `ask` answers
a list of them, one `limsup_oracle.Answer` each (the oracle's value and
verdict, or a closed form's verdict with no value). A run is a set of
consecutive queries at one base. The registry is asked first, run by run;
then the runs at one map that need the oracle for equally many queries,
wherever they sit in the list, go to `limsup_oracle.membership_batch`, the
oracle's one stacked entry (a fixed-point query is the membership query
with y* = x*), which gives each query bit for bit what it gets when asked
alone. Each fixed-point query is then settled by its own `is_fixed_point`
call, in list order, by the audit's verdict rules. The registry's rejection
rays of a stack are one (bases, m, size) array (`registry_rays`), each row
bit for bit the ray of its candidate alone. `convexity_candidates` builds
the labelled candidates of the convexity and closedness probe, which are
asked like any other query.
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
    RAY_RATIO,
    RAY_STEPS,
    Answer,
    AuditRows,
    GraphPoint,
    LimsupEstimate,
    SamplePass,
    SamplingSchedule,
    Verdict,
    _increments,
    _quotients,
    _richardson,
    estimate_limsup,
    membership_batch,
    membership_test,  # not called here; the benchmark's tracer wraps this binding too
    norming_rays,
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
    pairing,
    pairing_rows,
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


def registry_rays(mapd: MapDescriptor, bases: Sequence[GraphPoint], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rejection rays aimed by the closed forms, one row per candidate
    (x*, y*), the rows of the (bases, m, size) arrays `xs` and `ys`, block
    b at the graph point bases[b]: the norming direction of x* minus its
    expected image (`MapDescriptor.expected_image`), and a zero row where
    there is no expected image (a NaN image aims no ray) or x* is it to
    1e-12 scale (`limsup_oracle.norming_rays`). Safe to add for members,
    whose ray limits are nonpositive."""
    expected = mapd.expected_image(bases, ys)
    if expected is None:
        return np.zeros(xs.shape)
    size = xs.shape[-1]
    return norming_rays(mapd.space, (xs - expected).reshape(-1, size), ys.reshape(-1, size)).reshape(xs.shape)


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
    samples: SamplePass | None,
    candidate: DualVector,
    mode: str = "registry",
    *,
    batch: tuple[Verdict | None, tuple[float, float, Answer] | None] | None = None,
) -> Verdict:
    """Membership of the candidate in its own derivative-operator value at
    the base of `samples`, a stack of one.

    mode "registry": closed forms first, oracle as fallback. mode "oracle":
    sampling only (registry still aims rejection rays). mode "audit": run
    both, raise `FixedPointAuditError` on contradiction, and return the
    oracle's verdict, so an indeterminate one shows.

    `batch` is the candidate's entry of its run of queries in `ask`: its
    registry verdict (None in the oracle mode), and where it needs the
    oracle its `membership_batch` entry. With it `samples` is not read, and
    `ask` passes None. Without it the registry is asked here, and a query
    that needs the oracle is a stack of one of `membership_batch` at the
    map, base and schedule of `samples`.
    """
    if mode not in ("registry", "oracle", "audit"):
        raise ValueError(f"unknown mode {mode!r}")
    exact, oracle = batch or (
        None if mode == "oracle" else registry_verdict(samples.map, samples.base, candidate),
        None,
    )
    if mode == "registry" and exact is not None:
        return exact
    if oracle is None:
        w = candidate.values[None, None]
        ((oracle,),) = membership_batch(
            samples.map, [samples.base], w, w, np.ones((1, 1), bool), samples.schedule, registry_rays
        )
    spread, scale, answer = oracle
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


def quotient_forms_spread(ystar: DualVector, rows: AuditRows) -> np.ndarray:
    """Largest pairwise difference of the three algebraically equal quotient
    forms of the fixed-point criterion at each audit row: pairing the
    increments separately, pairing their difference, and pairing the
    residual shift (u - v) - (x - y): `AuditRows.spread` of one dual."""
    return rows.spread(ystar.space, ystar.values[None])[0]


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
    (`extrapolated` None) where a closed form did.

    A run is a set of consecutive queries at one map and base. The registry
    is asked first, run by run, so that what each run needs from the oracle
    is known (`_oracle_answers`); the runs at one map that need the oracle
    for equally many queries are then answered together by one
    `membership_batch`, wherever they sit in the list. Each fixed-point query is
    then settled by its own `is_fixed_point` call, in list order, so the
    first query that fails raises.
    """
    runs = [list(run) for _, run in groupby(queries, key=lambda q: (q.map, q.base))]
    exacts = [_registry_verdicts(run) for run in runs]
    needed = [[q for q in run if _needs_oracle(q, exact)] for run, exact in zip(runs, exacts)]
    checked = _oracle_answers(needed, schedule)
    return [answer for run, exact in zip(runs, exacts) for answer in _ask_run(run, exact, checked)]


def _registry_verdicts(run: list[Query]) -> dict[Query, Verdict | None]:
    """The registry's verdict of each fixed-point query of a run in the
    registry and audit modes (None where no closed form settles it), with
    the base's closed-form fixed-point set taken once for all of them."""
    asked = [q for q in run if q.ystar is None and q.mode in ("registry", "audit")]
    if not asked:
        return {}
    mapd, base = run[0].map, run[0].base
    char = mapd.fixed_point_set(base)
    return {q: registry_verdict(mapd, base, q.xstar, char) for q in asked}


def _needs_oracle(query: Query, exact: dict[Query, Verdict | None]) -> bool:
    """Membership queries and the oracle and audit modes ask the oracle, the
    registry mode only where no closed form settles the query."""
    return query.ystar is not None or query.mode in ("oracle", "audit") or (query in exact and exact[query] is None)


def _stacked(runs: Sequence[Sequence[Query]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x* and y* of each query of each run, (runs, m, size) arrays (y* =
    x* for a fixed-point query), and which queries ask about a fixed point,
    a (runs, m) mask."""
    xs = np.array([[q.xstar.values for q in run] for run in runs])
    ys = np.array([[(q.xstar if q.ystar is None else q.ystar).values for q in run] for run in runs])
    fixed = np.array([[q.ystar is None for q in run] for run in runs])
    return xs, ys, fixed


def _oracle_answers(runs: list[list[Query]], schedule: SamplingSchedule) -> dict[Query, tuple[float, float, Answer]]:
    """The `membership_batch` entry of each query of `runs`, each run the
    queries of one base that need the oracle. The runs at one map with
    equally many queries are stacked in list order and answered by one
    `membership_batch`, with the registry's rejection rays; the keys go in
    the order of their first run."""
    stacks: dict[tuple[MapDescriptor, int], list[list[Query]]] = {}
    for run in runs:
        if run:
            stacks.setdefault((run[0].map, len(run)), []).append(run)
    checked = {}
    for (mapd, _), stacked in stacks.items():
        xs, ys, fixed = _stacked(stacked)
        entries = membership_batch(mapd, [run[0].base for run in stacked], xs, ys, fixed, schedule, registry_rays)
        for run, entry in zip(stacked, entries):
            checked.update(zip(run, entry))
    return checked


def _ask_run(run: list[Query], exact: dict[Query, Verdict | None], checked: dict) -> list[Answer]:
    """The answers of a run of queries at one base, in order, from its
    registry verdicts and the oracle's entries: each fixed-point query is
    settled by its own `is_fixed_point` call, in order."""
    settled = {q: is_fixed_point(None, q.xstar, q.mode, batch=(exact.get(q), checked.get(q)))
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
    pts = space.grid[list(chebyshev.chebyshev_nodes(space.grid_size, degree))]
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
    denominators vanish together along every sampled path): the
    `estimate_limsup` of its schedule, with its quotient trace."""
    if f.space.kind != KIND_C01:
        raise ValueError("needs a C01 grid function")
    mapd = poly_projection_map(f.space, degree)
    grid = f.space.grid
    rng = np.random.default_rng([seed, 977])
    powers = chebyshev._grid_powers(f.space, degree + 1)[0]
    rays = [f] + [PrimalVector(f.space, column) for column in powers.T]
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


# The scaling path starts at lambda = SCALING_LAM0 and takes the oracle's ray
# steps (`limsup_oracle.RAY_STEPS`, shrinking by `RAY_RATIO`).
SCALING_LAM0 = 0.05


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
    implementation. The path is an oracle ray: its rows' increments and
    denominators, its quotients and its limit are the oracle's
    (`limsup_oracle._increments`, `_quotients`, `_richardson`).
    """
    if f.space.kind != KIND_C01:
        raise ValueError("needs a C01 grid function")
    mu_f = pairing(mu, f)
    if abs(mu_f) <= 1e-12 * (1.0 + dual_norm(mu)):
        raise ValueError("the scaling path needs <mu, f> != 0")
    if (np.abs(pairing_rows(gamma, chebyshev._grid_powers(f.space, degree)[0].T)) > 1e-10).any():
        raise ValueError("gamma must annihilate the polynomial class")
    lams = SCALING_LAM0 * RAY_RATIO ** np.arange(RAY_STEPS)
    # the base and the path's fits as one batch
    rows = np.concatenate([f.values[None], (1.0 + lams)[:, None] * f.values])
    fitted_rows = chebyshev.fits_on_grid(f.space, chebyshev.remez_rows(f.space, rows, degree))
    p_grid = fitted_rows[0]
    du, dv, dens = _increments(f.space, f.values, p_grid, rows[1:], fitted_rows[1:])
    quotients = _quotients(f.space, mu.values[None], gamma.values[None], du[None], dv[None], dens)
    limit = float(_richardson(quotients)[0])
    predicted = mu_f / (norm(f) + float(np.max(np.abs(p_grid))))
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
    )
