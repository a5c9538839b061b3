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
then the runs at one map that need the oracle for equally many queries are
stacked, wherever they sit in the list and within the memory budget of
`SamplingSchedule.stack_size`, and each stack is one `SamplePass` of the
oracle (the map, the bases and the schedule, with a leading base axis)
answered in array passes over the stacked candidates (the two halves of
`limsup_oracle.membership_batch`; a fixed-point query is the membership
query with y* = x*), bit for bit what each candidate gets when asked alone
at its base. Each sample stack's one walk evaluates the
candidate-independent rows of the two finest levels only, block by block:
the verdicts read no other level (`_walked`). The rays are folded by ray
stacks of whole sample stacks, as many as keep their ray rows within
`QUOTIENT_BLOCK` (`_folded`), so that wide bases, one to a sample stack,
share one ray pass. Each fixed-point query is
then settled by its own `is_fixed_point` call, in list order. The
quotient-form audit checks each base's finest level (`SamplePass.audit`), so
it sees the rows the oracle judges, with the stacked pairing
`spaces.pairing_stack`. The closed-form side of a stack is rows as well: each
base's fixed-point set is taken once, and the registry's rejection rays of
all candidates are one (bases, m, size) array (`registry_rays`, from
`MapDescriptor.expected_image` and `spaces.norming_rows`), each row bit for
bit the ray of its candidate alone. `convexity_candidates` builds the
labelled candidates of the convexity and closedness probe, which are asked
like any other query.
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
    _answers,
    _candidate_parts,
    _fold_rays,
    _increments,
    _limsup,
    _quotients,
    _ray_stack_size,
    _richardson,
    _sampled_sups,
    estimate_limsup,
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
    oracle its `_oracle_pass` entry. With it `samples` is not read, and
    `ask` passes None: the pass that answered the query is released by then.
    Without it the registry is asked here, and a query that needs the oracle
    is a run of one.
    """
    if mode not in ("registry", "oracle", "audit"):
        raise ValueError(f"unknown mode {mode!r}")
    exact, oracle = batch or (
        None if mode == "oracle" else registry_verdict(samples.map, samples.base, candidate),
        None,
    )
    if mode == "registry" and exact is not None:
        return exact
    spread, scale, answer = oracle or _oracle_pass(samples, [[Query(samples.map, samples.base, candidate)]])[0][0]
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


def _oracle_pass(samples: SamplePass, runs: Sequence[Sequence[Query]]) -> list[list[tuple[float, float, Answer]]]:
    """What the oracle says about each query of each run, the run at each
    base of `samples` (m queries each), as one `membership_batch` over the
    stacked candidates, a fixed-point query asked with y* = x*, each with
    the registry's rejection rays: the largest spread of the query's three
    quotient forms on its base's audit rows (`SamplePass.audit`; more than
    1e-12 times its scale means the pairing arithmetic broke, and a
    membership query, which has no audit, reads 0.0), its scale
    1 + ||y*||_*, and its answer; one list per run. It is the two halves of
    `_oracle_answers` over one stack: the walk (`_walked`), then the rays
    (`_folded`)."""
    xs, ys, fixed = _stacked(runs)
    return _folded(samples, xs, ys, fixed, *_walked(samples, xs, ys, fixed))


def _stacked(runs: Sequence[Sequence[Query]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x* and y* of each query of each run, (runs, m, size) arrays (y* =
    x* for a fixed-point query), and which queries ask about a fixed point,
    a (runs, m) mask."""
    xs = np.array([[q.xstar.values for q in run] for run in runs])
    ys = np.array([[(q.xstar if q.ystar is None else q.ystar).values for q in run] for run in runs])
    fixed = np.array([[q.ystar is None for q in run] for run in runs])
    return xs, ys, fixed


def _walked(samples: SamplePass, xs: np.ndarray, ys: np.ndarray, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk's half of `_oracle_pass` at the bases of `samples`: each
    candidate's limsup value over the two finest levels and its audit
    spread, (bases, m) arrays. The spreads are taken for a part of the
    candidates at a time (`_candidate_parts`), each row bit for bit its own
    `quotient_forms_spread` (`pairing_stack`); a membership query's read
    0.0."""
    space, m = samples.map.space, xs.shape[1]
    values = _limsup(_sampled_sups(samples, xs, ys))
    spreads = np.zeros(fixed.shape)
    if fixed.any():
        audit = samples.audit
        for part in _candidate_parts(audit.den.size, m):
            spreads[:, part] = _forms_spread(
                lambda rows: pairing_stack(space, xs[:, part], rows[:, None]), audit, audit.den[:, None]
            ).max(axis=-1)
        spreads[~fixed] = 0.0
    return values, spreads


def _folded(
    samples: SamplePass, xs: np.ndarray, ys: np.ndarray, fixed: np.ndarray, values: np.ndarray, spreads: np.ndarray
) -> list[list[tuple[float, float, Answer]]]:
    """The rays' half of `_oracle_pass` at the bases of `samples`, given the
    walk's `values` and `spreads` there: each candidate's value folded with
    its rays and the registry's rejection ray (`_fold_rays`), and its
    `_oracle_pass` entry."""
    mapd, space = samples.map, samples.map.space
    values = _fold_rays(samples, xs, ys, registry_rays(mapd, samples.bases, xs, ys)[:, :, None], values)
    scales = 1.0 + dual_norm_rows(space, ys.reshape(-1, space.size)).reshape(fixed.shape)
    return [list(zip(*columns)) for columns in zip(spreads.tolist(), scales.tolist(), _answers(space, ys, values))]


def quotient_forms_spread(ystar: DualVector, rows: AuditRows) -> np.ndarray:
    """Largest pairwise difference of the three algebraically equal quotient
    forms of the fixed-point criterion at each audit row: pairing the
    increments separately, pairing their difference, and pairing the
    residual shift (u - v) - (x - y)."""
    return _forms_spread(lambda increments: pairing_rows(ystar, increments), rows, rows.den)


def _forms_spread(pair, rows: AuditRows, den: np.ndarray) -> np.ndarray:
    """`quotient_forms_spread` with the pairing `pair` of the audit rows'
    increments (one dual's, or those of a stack of duals) over the
    denominators `den`, the rows' shaped to the pairings."""
    f1 = (pair(rows.du) - pair(rows.dv)) / den
    f2 = pair(rows.du_minus_dv) / den
    f3 = pair(rows.shift) / den
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
    (`extrapolated` None) where a closed form did.

    A run is a set of consecutive queries at one map and base. The registry
    is asked first, run by run, so that what each run needs from the oracle
    is known (`_oracle_answers`); the runs at one map that need the oracle
    for equally many queries are then sampled and answered together, as one
    stacked pass, wherever they sit in the list. Each fixed-point query is
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


def _oracle_answers(runs: list[list[Query]], schedule: SamplingSchedule) -> dict[Query, tuple[float, float, Answer]]:
    """The `_oracle_pass` entry of each query of `runs`, each run the
    queries of one base that need the oracle. The runs at one map with
    equally many queries are stacked in list order, at most
    `SamplingSchedule.stack_size` to a sample stack, whose `sample_base`
    pass is walked (`_walked`) and released before the next is drawn, so
    the memory bound of one stack holds for the list. Their rays are folded
    by ray stacks (`_folded`): as many consecutive whole sample stacks as
    keep the ray rows of their bases within QUOTIENT_BLOCK
    (`_ray_stack_size`, with the registry's one rejection ray per
    candidate), over one pass of all their bases, which `sample_base` draws
    without evaluating anything; a ray stack of one sample stack folds over
    the pass it walked. The keys go in the order of their first run."""
    stacks: dict[tuple[MapDescriptor, int], list[list[Query]]] = {}
    for run in runs:
        if run:
            stacks.setdefault((run[0].map, len(run)), []).append(run)
    checked = {}
    for (mapd, m), stacked in stacks.items():
        size = schedule.stack_size(mapd.space, m)
        fold = _ray_stack_size(mapd, m, 1, size)
        for lo in range(0, len(stacked), fold):
            group = stacked[lo : lo + fold]
            xs, ys, fixed = _stacked(group)
            walked = []
            for at in range(0, len(group), size):
                samples = None  # release the previous pass before drawing this one
                samples = sample_base(mapd, [run[0].base for run in group[at : at + size]], schedule)
                walked.append(_walked(samples, xs[at : at + size], ys[at : at + size], fixed[at : at + size]))
            if len(walked) > 1:
                samples = None
                samples = sample_base(mapd, [run[0].base for run in group], schedule)
            values, spreads = (np.concatenate(arrays) for arrays in zip(*walked))
            for run, entries in zip(group, _folded(samples, xs, ys, fixed, values, spreads)):
                checked.update(zip(run, entries))
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
