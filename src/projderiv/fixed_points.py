"""Fixed points of the derivative operators: is y* a member of the operator's
value at y* itself, and what is the full fixed-point set?

A registry of closed-form characterizations answers queries exactly where a
characterization applies (whole dual space, origin only, or a nonnegativity
cone over an index set); everything else goes to the sampling oracle. In
audit mode both run and a contradiction fails loudly.

A `Query` names a map, a base and a block of candidates there, the rows of
(m, size) arrays; `ask` answers a list of them, one `limsup_oracle.Answer`
per candidate in row order (the oracle's value and verdict, or a closed
form's verdict with no value). A run is a set of consecutive queries at one
base. The registry is asked first, run by run, wrapping each row it reads in
a `DualVector`; then the runs at one map that need the oracle for equally
many candidates, wherever they sit in the list, go to
`limsup_oracle.membership_batch`, the oracle's one stacked entry (a
fixed-point candidate is the membership candidate with y* = x*), which
takes the rows as they are and gives each candidate bit for bit what it gets
when asked alone. Each fixed-point candidate is then settled by its own
`is_fixed_point` call, in list order, by the audit's verdict rules. The
registry's rejection rays of a stack are one (bases, m, size) array
(`registry_rays`), each row bit for bit the ray of its candidate alone.
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
    candidate: DualVector | None,
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

    `batch` is the candidate's entry of its run in `ask`: its registry
    verdict (None in the oracle mode), and where it needs the oracle its
    `membership_batch` entry. With it neither `samples` nor `candidate` is
    read, and `ask` passes None for both. Without it the registry is asked
    here, and a candidate that needs the oracle is a stack of one of
    `membership_batch` at the map, base and schedule of `samples`.
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
    forms of the fixed-point criterion at each audit row: the quotients of
    the increments (`limsup_oracle._quotients`), pairing their difference,
    and pairing the residual shift (u - v) - (x - y): `AuditRows.spread` of
    one dual."""
    return rows.spread(ystar.space, ystar.values[None])[0]


@dataclass(frozen=True, eq=False)
class Query:
    """A block of oracle questions at a graph point of a map, one per row of
    the (m, size) array `xstars`. Without `ystars` row i asks whether
    xstars[i] is a fixed point (`is_fixed_point` in `mode`); with the (m,
    size) array `ystars` it asks whether xstars[i] lies in the derivative
    operator's value at ystars[i] (`membership_test`, with the registry's
    rejection rays). A query of one dual is a block of one."""

    map: MapDescriptor
    base: GraphPoint
    xstars: np.ndarray
    ystars: np.ndarray | None = None
    mode: str = "registry"


def ask(queries: Iterable[Query], schedule: SamplingSchedule) -> list[Answer]:
    """The answer of each candidate, the rows of each query in order: the
    oracle's `Answer` where the oracle settled it, and the registry's verdict
    without a value (`extrapolated` None) where a closed form did.

    A run is a set of consecutive queries at one map and base. The registry
    is asked first, run by run, so that what each run needs from the oracle
    is known: membership candidates and the oracle and audit modes, the
    registry mode only where no closed form settles the candidate. The runs
    at one map that need the oracle for equally many candidates are then
    answered together by one `membership_batch`, wherever they sit in the
    list (`_oracle_answers`). Each fixed-point candidate is then settled by
    its own `is_fixed_point` call, in list order, so the first that fails
    raises.
    """
    runs = [list(run) for _, run in groupby(queries, key=lambda q: (q.map, q.base))]
    rows = [[q for q in run for _ in q.xstars] for run in runs]
    exacts = [_registry_verdicts(run) for run in runs]
    needs = [
        [q.ystars is not None or q.mode in ("oracle", "audit") or (q.mode == "registry" and v is None)
         for q, v in zip(row, exact)]
        for row, exact in zip(rows, exacts)
    ]
    answers = []
    for row, exact, need, entries in zip(rows, exacts, needs, _oracle_answers(runs, needs, schedule)):
        entries = iter(entries)
        for q, verdict, needed in zip(row, exact, need):
            entry = next(entries) if needed else None
            if q.ystars is None:
                verdict = is_fixed_point(None, None, q.mode, batch=(verdict, entry))
            answers.append(Answer(None, verdict) if entry is None else entry[2])
    return answers


def _registry_verdicts(run: list[Query]) -> list[Verdict | None]:
    """The registry's verdict of each candidate of a run, in row order: the
    closed form's (None where none settles it) for a fixed-point candidate in
    the registry and audit modes, each row wrapped in a `DualVector`, with the
    base's fixed-point set taken once for the run; None for every other."""
    mapd, base = run[0].map, run[0].base
    asked = [q.ystars is None and q.mode in ("registry", "audit") for q in run]
    char = mapd.fixed_point_set(base) if any(asked) else None
    return [registry_verdict(mapd, base, DualVector(mapd.space, x), char) if on else None
            for q, on in zip(run, asked) for x in q.xstars]


def _oracle_answers(runs: list[list[Query]], needs: list[list[bool]], schedule: SamplingSchedule) -> list[list]:
    """The `membership_batch` entry of each candidate of each run that needs
    the oracle (`needs`, a flag per candidate), in row order. The runs at one
    map with equally many such candidates are stacked in list order, their
    rows one concatenation (y* = x* for a fixed-point candidate), and
    answered by one `membership_batch` with the registry's rejection rays;
    the keys go in the order of their first run."""
    stacks: dict[tuple[MapDescriptor, int], list[int]] = {}
    for k, (run, need) in enumerate(zip(runs, needs)):
        if any(need):
            stacks.setdefault((run[0].map, sum(need)), []).append(k)
    checked = [[] for _ in runs]
    for (mapd, m), stacked in stacks.items():
        blocks = [q for k in stacked for q in runs[k]]
        need = np.concatenate([needs[k] for k in stacked])
        xs = np.concatenate([q.xstars for q in blocks])[need]
        ys = np.concatenate([q.xstars if q.ystars is None else q.ystars for q in blocks])[need]
        fixed = np.repeat([q.ystars is None for q in blocks], [len(q.xstars) for q in blocks])[need]
        shape = (len(stacked), m, xs.shape[-1])
        bases = [runs[k][0].base for k in stacked]
        entries = membership_batch(mapd, bases, xs.reshape(shape), ys.reshape(shape), fixed.reshape(shape[:2]),
                                   schedule, registry_rays)
        for k, entry in zip(stacked, entries):
            checked[k] = entry
    return checked


def convexity_candidates(members: np.ndarray, trials: int = 100, seed: int = 0) -> tuple[list[str], np.ndarray]:
    """Labelled candidates of the convexity and closedness probe of a
    fixed-point set that holds the rows of the (k, size) array `members`:
    convex combinations of random member pairs at t in {0.25, 0.5, 0.75},
    then a geometric interpolation sequence toward the first member, and
    that member as its limit. Each must be a fixed point too. Returns the
    labels and the candidates, the rows of one (m, size) block."""
    if len(members) < 2:
        raise ValueError("need at least two members to combine")
    rng = np.random.default_rng(seed)
    pairs = np.array([rng.integers(0, len(members), size=2) for _ in range(trials)]).reshape(-1, 2)
    t = np.array((0.25, 0.5, 0.75))[np.arange(trials) % 3, None]
    combinations = t * members[pairs[:, 0]] + (1.0 - t) * members[pairs[:, 1]]
    target, other = members[0], members[-1]
    sequence = target + 2.0 ** -np.arange(1, 7)[:, None] * (other - target)
    labels = [f"combination trial {trial}" for trial in range(trials)]
    labels += [f"sequence step {k}" for k in range(1, 7)] + ["sequence limit"]
    return labels, np.concatenate([combinations, sequence, target[None]])

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
