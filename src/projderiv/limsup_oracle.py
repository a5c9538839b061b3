"""Sampling estimator of the defining limsup quotient of the generalized
adjoint derivative.

For a map F, a graph point (x, y), and duals (x*, y*), the quotient

    ( <x*, u - x> - <y*, v - y> ) / ( ||u - x|| + ||v - y|| )

is sampled over shrinking radii with v the map's value (or canonical
selection) at u. The limsup estimate is the max of the two finest per-level
suprema, a deliberately conservative upper estimate; directed rays with
Richardson extrapolation sharpen non-membership detection.

Verdicts are three way: scale-aware accept/reject thresholds leave an
indeterminate band rather than forcing a guess. For set-valued maps only the
canonical selection is sampled, so "member" verdicts at exterior l_1 bases
are one sided; non-membership stays conclusive there.

Direction draws within a level are independent, and results do not depend on
evaluation order: the supremum is order insensitive and traces are emitted
sorted. The module holds no shared mutable state.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coderivatives import L1_BALL_PROJ, MapDescriptor
from .spaces import (
    DualVector,
    PrimalVector,
    dual_norm,
    norm,
    norm_rows,
    pairing,
    pairing_rows,
)

__all__ = [
    "Verdict",
    "GraphPoint",
    "SamplingSchedule",
    "TraceRow",
    "LimsupEstimate",
    "tolerance_pair",
    "quotient",
    "estimate_limsup",
    "directed_ray_limit",
    "membership_test",
    "trace_to_csv",
]


class Verdict(str, Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class GraphPoint:
    """A pair (x, y) with y in F(x); build through the factories so the
    graph membership is verified at construction."""

    x: PrimalVector
    y: PrimalVector

    @classmethod
    def at_point(cls, mapd: MapDescriptor, x: PrimalVector) -> "GraphPoint":
        return cls(x, mapd.value(x))

    @classmethod
    def checked(
        cls, mapd: MapDescriptor, x: PrimalVector, y: PrimalVector, tol: float = 1e-12
    ) -> "GraphPoint":
        if not mapd.graph_contains(x, y, tol=tol):
            raise ValueError("(x, y) is not a graph point of the map")
        return cls(x, y)


@dataclass(frozen=True)
class SamplingSchedule:
    """Radii r0 * 2^-k for k < levels, with `dirs_per_level` random unit
    directions per level plus any extra rays rescaled to each radius.

    Direction streams are seeded per level, and doubling `dirs_per_level`
    extends a stream instead of reshuffling it, so refinement is nested.
    """

    r0: float = 0.5
    levels: int = 8
    dirs_per_level: int = 64
    extra_rays: tuple[PrimalVector, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("r0 must be positive")
        if self.levels < 4:
            raise ValueError("need at least 4 radius levels")
        if self.dirs_per_level < 16:
            raise ValueError("need at least 16 directions per level")


@dataclass(frozen=True)
class TraceRow:
    level: int
    radius: float
    index: int
    u: tuple[float, ...]
    v: tuple[float, ...]
    quotient: float


@dataclass(frozen=True)
class LimsupEstimate:
    per_level_sup: tuple[float, ...]
    extrapolated: float
    verdict: Verdict
    trace: tuple[TraceRow, ...]
    tol_accept: float
    tol_reject: float


def tolerance_pair(ystar: DualVector) -> tuple[float, float]:
    """Scale-aware accept/reject thresholds; the gap between them is the
    indeterminate band."""
    scale = 1.0 + dual_norm(ystar)
    return 1e-3 * scale, 1e-2 * scale


def quotient(
    mapd: MapDescriptor,
    base: GraphPoint,
    u: PrimalVector,
    v: PrimalVector,
    xstar: DualVector,
    ystar: DualVector,
) -> float:
    """The defining ratio at one sampled graph point (u, v) != (x, y)."""
    num = pairing(xstar, u - base.x) - pairing(ystar, v - base.y)
    den = norm(u - base.x) + norm(v - base.y)
    if den == 0.0:
        raise ZeroDivisionError("sample coincides with the base point")
    return num / den


def _verdict(value: float, tol_accept: float, tol_reject: float) -> Verdict:
    if value <= tol_accept:
        return Verdict.MEMBER
    if value >= tol_reject:
        return Verdict.NON_MEMBER
    return Verdict.INDETERMINATE


def estimate_limsup(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
    keep_trace: bool = True,
) -> LimsupEstimate:
    """Per-level suprema of the quotient over sampled directions, with the
    max of the two finest levels as the extrapolated limsup value.
    Deterministic for a fixed seed, bit for bit on the trace."""
    space = mapd.space
    dim = space.size
    x = base.x.values
    y = base.y.values
    sups: list[float] = []
    rows: list[TraceRow] = []
    for level in range(schedule.levels):
        radius = schedule.r0 * 2.0 ** (-level)
        rng = np.random.default_rng([schedule.seed, level])
        dirs = rng.standard_normal((schedule.dirs_per_level, dim))
        dir_norms = norm_rows(space, dirs)
        dir_norms = np.where(dir_norms == 0.0, 1.0, dir_norms)
        dirs = dirs / dir_norms[:, None]
        if schedule.extra_rays:
            extra = np.stack([ray.values for ray in schedule.extra_rays])
            extra_norms = norm_rows(space, extra)
            extra_norms = np.where(extra_norms == 0.0, 1.0, extra_norms)
            dirs = np.vstack([dirs, extra / extra_norms[:, None]])
        us = x[None, :] + radius * dirs
        vs = mapd.value_batch(us)
        nums = pairing_rows(xstar, us - x[None, :]) - pairing_rows(ystar, vs - y[None, :])
        dens = norm_rows(space, us - x[None, :]) + norm_rows(space, vs - y[None, :])
        quotients = nums / dens
        sups.append(float(np.max(quotients)))
        if keep_trace:
            for idx, q in enumerate(quotients):
                rows.append(
                    TraceRow(
                        level=level,
                        radius=float(radius),
                        index=idx,
                        u=tuple(float(t) for t in us[idx]),
                        v=tuple(float(t) for t in vs[idx]),
                        quotient=float(q),
                    )
                )
    extrapolated = max(sups[-2:])
    tol_accept, tol_reject = tolerance_pair(ystar)
    rows.sort(key=lambda row: (row.level, row.index))
    return LimsupEstimate(
        per_level_sup=tuple(sups),
        extrapolated=float(extrapolated),
        verdict=_verdict(extrapolated, tol_accept, tol_reject),
        trace=tuple(rows),
        tol_accept=tol_accept,
        tol_reject=tol_reject,
    )


def _split_l1_denominator(
    mapd: MapDescriptor, base: GraphPoint, u: PrimalVector, t: float, direction: PrimalVector
) -> float:
    """Triangle-split denominator for the exterior l_1 canonical selection:
    the selection move is split into its ray part and its rescaling part
    before taking norms, matching the lower-bound chain the exterior case
    analysis is built on. Never smaller than the plain denominator."""
    r = mapd.radius
    nu = norm(u)
    nx = norm(base.x)
    ray_part = (r / nu) * t * direction
    rescale_part = (r / nu - r / nx) * base.x
    return norm(t * direction) + norm(ray_part) + norm(rescale_part)


def directed_ray_limit(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    direction: PrimalVector,
    t0: float = 1e-2,
    steps: int = 10,
    ratio: float = 0.5,
    split_l1_denominator: bool = False,
) -> float:
    """Extrapolated t -> 0 limit of the quotient along u_t = x + t * direction.

    The start t0 shrinks until the whole ray stays in the base point's smooth
    branch of the map. With `split_l1_denominator` the exterior l_1 cases use
    the triangle-split denominator (a lower bound for the raw quotient),
    reproducing the case-analysis values instead of the raw ray limit.
    """
    if norm(direction) == 0.0:
        raise ValueError("direction must be nonzero")
    t_start = t0
    for _ in range(60):
        probe = base.x + t_start * direction
        if mapd.same_branch(base.x, probe):
            break
        t_start *= 0.5
    else:
        raise ValueError("ray leaves the base branch at every tested scale")

    if split_l1_denominator and mapd.kind != L1_BALL_PROJ:
        raise ValueError("the split denominator applies to the l_1 ball projection")

    ts = [t_start * ratio**j for j in range(steps)]
    us = base.x.values[None, :] + np.array(ts)[:, None] * direction.values[None, :]
    qs = []
    for t, u_row, v_row in zip(ts, us, mapd.value_batch(us)):
        u, v = PrimalVector(mapd.space, u_row), PrimalVector(mapd.space, v_row)
        if split_l1_denominator:
            num = pairing(xstar, u - base.x) - pairing(ystar, v - base.y)
            qs.append(num / _split_l1_denominator(mapd, base, u, t, direction))
        else:
            qs.append(quotient(mapd, base, u, v, xstar, ystar))
    # Richardson step for q(t) = L + c t + O(t^2) on a geometric sequence
    return float((qs[-1] - ratio * qs[-2]) / (1.0 - ratio))


def _default_rays(
    mapd: MapDescriptor, base: GraphPoint, xstar: DualVector, ystar: DualVector
) -> list[PrimalVector]:
    from .spaces import norming_direction  # local import to keep module load light

    rays: list[PrimalVector] = []
    diff = xstar - ystar
    if dual_norm(diff) > 1e-12 * (1.0 + dual_norm(ystar)):
        rays.append(norming_direction(diff))
    rays.extend(mapd.kink_rays)
    return rays


def membership_test(
    mapd: MapDescriptor,
    base: GraphPoint,
    xstar: DualVector,
    ystar: DualVector,
    schedule: SamplingSchedule,
    extra_ray_dirs: tuple[PrimalVector, ...] = (),
    keep_trace: bool = True,
) -> LimsupEstimate:
    """Three-way membership verdict for x* in the derivative operator value
    at y*.

    Wraps `estimate_limsup` and additionally extrapolates directed rays
    (norming-direction rays plus kink-aligned basis rays and any caller
    supplied ones); rays can only certify fresh non-membership, never flip a
    true member, since every ray limit lower-bounds the limsup.
    """
    est = estimate_limsup(mapd, base, xstar, ystar, schedule, keep_trace=keep_trace)
    combined = est.extrapolated
    for ray in list(_default_rays(mapd, base, xstar, ystar)) + list(extra_ray_dirs):
        if norm(ray) == 0.0:
            continue
        try:
            limit = directed_ray_limit(mapd, base, xstar, ystar, ray)
        except ValueError:
            continue
        combined = max(combined, limit)
    return LimsupEstimate(
        per_level_sup=est.per_level_sup,
        extrapolated=float(combined),
        verdict=_verdict(combined, est.tol_accept, est.tol_reject),
        trace=est.trace,
        tol_accept=est.tol_accept,
        tol_reject=est.tol_reject,
    )


def trace_to_csv(estimate: LimsupEstimate) -> str:
    """Quotient trace as CSV rows (level, radius, direction index, quotient)."""
    out = io.StringIO()
    out.write("level,radius,direction_index,quotient\n")
    for row in estimate.trace:
        out.write(f"{row.level},{row.radius!r},{row.index},{row.quotient!r}\n")
    return out.getvalue()
