"""The reference oracle of the tests: the simplest sample pass, one base and
one level at a time, its membership values with their rays, the registry's
images and rays, the audit spread, and the one-vector norm, dual-norm,
duality and norming formulas. Every test that holds `limsup_oracle`,
`fixed_points` or the row forms of `spaces` and `MapDescriptor` to their
bits compares against it.

The pass takes the live walk's operations in their order: each level's
seeded normal draws, their norms (a zero norm read as 1), u = x + r * d with
the normalized extra rays after the draws, one `value_batch`, the increments
du = u - x and dv = v - y, the denominators ||du|| + ||dv|| (by
`spaces.norm_rows`), and one pairing slice per candidate.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
import pytest

from projderiv import limsup_oracle
from projderiv.coderivatives import AFFINE, BALL_PROJ, CONE_PROJ, L1_BALL_PROJ, MapDescriptor, _sphere_side
from projderiv.limsup_oracle import RAY_HALVINGS, RAY_RATIO, RAY_STEPS, RAY_T0, Answer, Verdict
from projderiv.spaces import KIND_C01, norm_rows

Pass = namedtuple("Pass", "radii us vs dens")  # one base's rows, indexed [level, row]


def sample_pass(mapd, base, schedule) -> Pass:
    """The pass of `schedule` at one graph point, one level at a time."""
    space, dim, x, y = mapd.space, mapd.space.size, base.x.values, base.y.values
    extra = np.empty((0, dim))
    if schedule.extra_rays:
        extra = np.stack([ray.values for ray in schedule.extra_rays])
        extra_norms = norm_rows(space, extra)
        extra = extra / np.where(extra_norms == 0.0, 1.0, extra_norms)[:, None]
    radii = np.array([schedule.r0 * 2.0 ** (-level) for level in range(schedule.levels)])
    us, vs, dens = [], [], []
    for level, radius in enumerate(radii):
        draws = np.random.default_rng([schedule.seed, level]).standard_normal((schedule.dirs_per_level, dim))
        dir_norms = norm_rows(space, draws)
        dir_norms[dir_norms == 0.0] = 1.0
        us.append(np.vstack([draws / dir_norms[:, None], extra]) * radius + x)
        vs.append(mapd.value_batch(us[-1]))
        dens.append(norm_rows(space, us[-1] - x) + norm_rows(space, vs[-1] - y))
    return Pass(radii, np.stack(us), np.stack(vs), np.stack(dens))


def pairing(space, duals, rows):
    """Each of m duals against a (k, ..., n, size) block, k = 1 or m: one
    matrix-vector slice per dual, a measure over its own atoms."""
    m, size = duals.shape
    if space.kind == KIND_C01:
        out = np.empty((m, *rows.shape[1:-1]))
        for i, w in enumerate(duals):
            idx = np.flatnonzero(w)
            out[i] = rows[i if len(rows) > 1 else 0][..., idx] @ w[idx]
        return out
    return np.matmul(rows, duals.reshape(m, *(1,) * (rows.ndim - 3), size, 1))[..., 0]


def quotients(space, xs, ys, du, dv, dens):
    """( <x*, du> - <y*, dv> ) / den of each candidate, the rows of xs and ys."""
    return (pairing(space, xs, du) - pairing(space, ys, dv)) / dens


def pass_quotients(space, base, sample: Pass, xs, ys):
    """The (m, levels, rows) quotients of m candidates, level by level."""
    x, y = base.x.values, base.y.values
    levels = zip(sample.us, sample.vs, sample.dens)
    return np.stack([quotients(space, xs, ys, (u - x)[None], (v - y)[None], den) for u, v, den in levels], axis=1)


def quotient(base, u, v, xstar, ystar) -> float:
    """The defining ratio at one sampled graph point (u, v): one pairing and
    one `norm` of each increment; ZeroDivisionError at the base."""
    space = base.x.space
    du, dv = u.values - base.x.values, v.values - base.y.values
    num = pairing(space, xstar.values[None], du[None, None]) - pairing(space, ystar.values[None], dv[None, None])
    return float(num[0, 0]) / float(norm(space, du) + norm(space, dv))


def same_branch(mapd, x, rows):
    """Whether each row lies in the smooth piece of the map at x."""
    if mapd.kind in (BALL_PROJ, L1_BALL_PROJ):
        inside = _sphere_side(norm_rows(mapd.space, rows), mapd.radius) <= 0
        return inside == (_sphere_side(norm(mapd.space, x), mapd.radius) <= 0)
    if mapd.kind == CONE_PROJ:
        active = x != 0
        return np.all(np.sign(rows[..., active]) == np.sign(x[active]), axis=-1)
    return np.ones(rows.shape[:-1], dtype=bool)


def ray_starts(mapd, x, directions):
    """The first halving of RAY_T0 at which x + t * direction is in the base
    branch, for each row of `directions`; NaN where the ray leaves the branch
    at every tested scale or its first probe is not finite."""
    starts = np.full(len(directions), np.nan)
    t = RAY_T0
    with np.errstate(over="ignore"):
        probes = x + t * directions
    pending = np.flatnonzero(np.isfinite(probes).all(axis=-1))
    probes = probes[pending]
    for halving in range(RAY_HALVINGS):
        if halving:
            t *= 0.5
            probes = x + t * directions[pending]
        inside = same_branch(mapd, x, probes)
        starts[pending[inside]] = t
        pending = pending[~inside]
        if not pending.size:
            break
    return starts


def started_rays(mapd, base, directions):
    """Which rays along the rows of `directions` start in the base branch,
    and the (du, dv, dens) rows, indexed [ray, step], of those that do."""
    x = base.x.values
    starts = ray_starts(mapd, x, directions)
    started = ~np.isnan(starts)
    ts = starts[started][:, None] * RAY_RATIO ** np.arange(RAY_STEPS)
    us = x + ts[:, :, None] * directions[started][:, None, :]
    vs = mapd.value_batch(us.reshape(-1, us.shape[-1])).reshape(us.shape)
    du, dv = us - x, vs - base.y.values
    return started, (du, dv, norm_rows(mapd.space, du) + norm_rows(mapd.space, dv))


def richardson(qs):
    return (qs[..., -1] - RAY_RATIO * qs[..., -2]) / (1.0 - RAY_RATIO)


def membership(mapd, base, sample: Pass, xs, ys, extra_rays) -> list[Answer]:
    """The answer about each candidate (xs[i], ys[i]) with the extra rays
    extra_rays[i], a (k, size) array: the larger of the two finest per-level
    suprema, folded by Python's left-to-right max with the limits of the
    norming ray of x* - y*, the kink rays and the extra rays, in that order,
    skipping rays that do not start."""
    space = mapd.space
    sups = pass_quotients(space, base, sample, xs, ys).max(axis=-1)
    values = np.where(sups[:, -1] > sups[:, -2], sups[:, -1], sups[:, -2])
    norming_rays = np.stack([aimed_ray(space, x - y, y) for x, y in zip(xs, ys)])
    directions = np.concatenate([norming_rays[:, None], extra_rays], axis=1)
    own = np.full(directions.shape[:2], np.nan)
    directions = directions.reshape(-1, space.size)
    nonzero = np.flatnonzero(directions.any(axis=-1))
    if nonzero.size:
        started, rows = started_rays(mapd, base, directions[nonzero])
        owners, columns = np.divmod(nonzero[started], own.shape[1])
        own[owners, columns] = richardson(quotients(space, xs[owners], ys[owners], *rows))
    kinks = np.empty((len(values), 0))
    if mapd.kink_rays:
        du, dv, dens = started_rays(mapd, base, np.stack([ray.values for ray in mapd.kink_rays]))[1]
        kinks = richardson(quotients(space, xs, ys, du[None], dv[None], dens))
    for limits in (own[:, 0], *kinks.T, *own[:, 1:].T):
        values = np.where(limits > values, limits, values)
    scales = [1.0 + dual_norm(space, y) for y in ys]
    return [
        Answer(v, Verdict.MEMBER if v <= 1e-3 * s else Verdict.NON_MEMBER if v >= 1e-2 * s else Verdict.INDETERMINATE)
        for v, s in zip(values.tolist(), scales)
    ]


def expected_image(mapd, x, ystar):
    """The closed-form image of one y* at the base point x, or None: the
    ball's exterior image (r/||x||) (y* - (<y*, x>/||x||^2) J(x))."""
    if mapd.kind == AFFINE:
        return ystar * float(mapd.scale)
    if mapd.kind not in (BALL_PROJ, L1_BALL_PROJ):
        return None
    nx = norm(mapd.space, x)
    gap = nx - mapd.radius
    if abs(gap) <= 1e-12 * max(1.0, mapd.radius) or (mapd.kind == L1_BALL_PROJ and gap > 0):
        return None
    if gap < 0:
        return ystar
    jx = x.copy() if mapd.space.p == 2.0 else duality_values(x, nx, mapd.space.p)
    coeff = float(np.dot(ystar, x)) / nx**2
    return (ystar - jx * coeff) * float(mapd.radius / nx)


def aimed_ray(space, diff, ystar):
    """The norming direction of `diff`, a zero row where its dual norm is at
    most 1e-12 (1 + ||y*||_*)."""
    if dual_norm(space, diff) > 1e-12 * (1.0 + dual_norm(space, ystar)):
        return norming(space, diff)
    return np.zeros(space.size)


def registry_ray(mapd, x, xstar, ystar):
    """The ray of x* less its expected image, a zero row without an image."""
    expected = expected_image(mapd, x, ystar)
    return np.zeros(mapd.space.size) if expected is None else aimed_ray(mapd.space, xstar - expected, ystar)


def audit_spread(space, x, y, us, vs, xs):
    """The largest pairwise difference of the three quotient forms of each
    candidate, the rows of xs, at the rows (us, vs) around (x, y): the
    increments paired apart, their difference paired, and the TwoDiff shift
    (u - v) - (x - y) paired, over ||du|| + ||dv||. Shape (m, rows)."""
    du, dv = us - x, vs - y
    den = norm_rows(space, du) + norm_rows(space, dv)
    (a, ea), (b, eb) = two_diff(us, vs), two_diff(x, y)
    f1 = (pairing(space, xs, du[None]) - pairing(space, xs, dv[None])) / den
    f2 = pairing(space, xs, (du - dv)[None]) / den
    f3 = pairing(space, xs, ((a - b) + (ea - eb))[None]) / den
    return np.maximum(np.maximum(np.abs(f1 - f2), np.abs(f1 - f3)), np.abs(f2 - f3))


def two_diff(a, b):
    s = a - b
    bv = s - a
    return s, (a - (s - bv)) - (b + bv)


def lp_norm(values, p):
    """The p-norm of one vector: the power sum, or where it is 0 on a nonzero
    vector or not finite, the power sum of the vector over its peak."""
    mags = np.abs(values)[None, :]
    with np.errstate(over="ignore"):
        plain = ((mags**p).sum(axis=-1) ** (1.0 / p))[0]
    if 0.0 < plain < math.inf or not values.any():
        return plain
    peak = mags.max()
    return peak * (((mags / peak) ** p).sum(axis=-1) ** (1.0 / p))[0]


def norm(space, values):
    if space.kind == "Lp":
        return lp_norm(values, space.p)
    return float(np.sum(np.abs(values)) if space.kind == "L1" else np.max(np.abs(values)))


def dual_norm(space, values):
    if space.kind == "Lp":
        return lp_norm(values, space.q)
    return float(np.max(np.abs(values)) if space.kind == "L1" else np.sum(np.abs(values[np.flatnonzero(values)])))


def duality_values(values, nv, p):
    """|v_i|^(p-1) sign(v_i) / ||v||^(p-2) with a scalar power for the scale,
    or the rescaled formula where that scale is not a normal float or the
    plain formula is not finite."""
    with np.errstate(over="ignore"):
        scale = np.float64(nv) ** (p - 2.0)
        if np.finfo(float).tiny <= scale < math.inf:
            vals = np.abs(values) ** (p - 1.0) * np.sign(values) / scale
            if np.isfinite(vals).all():
                return vals
    return nv * np.sign(values) * (np.abs(values) / nv) ** (p - 1.0)


def norming(space, values):
    """The norming direction of one dual w: a unit primal g with
    <w, g> = ||w||_*, and zero for w = 0."""
    nw = dual_norm(space, values)
    if nw == 0.0:
        return np.zeros(space.size)
    if space.kind == "Lp":
        return (values.copy() if space.q == 2.0 else duality_values(values, nw, space.q)) / nw
    if space.kind == "L1":
        n = int(np.argmax(np.abs(values)))
        vals = np.zeros(space.size)
        vals[n] = np.sign(values[n])
        return vals
    idx = np.flatnonzero(values)
    return np.interp(space.grid, space.grid[idx], np.sign(values[idx]))


def walked_rows(samples):
    """The (us, vs, dens) of a live `limsup_oracle.SamplePass`, indexed
    [base, level, row], as one walk over it (`_block_quotients`) evaluates
    them: its `value_batch` rows and values, and the sum of the norms of
    each pair of increments it builds, du and then dv."""
    bases, levels, rows, size = samples._shape
    evaluated, norms = [], []
    value_batch, live_norm_rows = MapDescriptor.value_batch, limsup_oracle.norm_rows

    def kept_values(self, batch):
        values = value_batch(self, batch)
        evaluated.append((batch.reshape(bases, -1, rows, size), values.reshape(bases, -1, rows, size)))
        return values

    def kept_norms(space, increments):
        result = live_norm_rows(space, increments)
        if increments.ndim == 4:  # a block of increments, not of direction draws
            norms.append(result)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MapDescriptor, "value_batch", kept_values)
        patch.setattr(limsup_oracle, "norm_rows", kept_norms)
        zeros = np.zeros((bases, 1, size))
        for _ in limsup_oracle._block_quotients(samples, zeros, zeros):
            pass
    us, vs = (np.concatenate(arrays, axis=1) for arrays in zip(*evaluated))
    dens = np.concatenate([du + dv for du, dv in zip(norms[::2], norms[1::2])], axis=1)
    return us, vs, dens
