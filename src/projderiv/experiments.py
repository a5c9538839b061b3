"""Experiment registry: every verification in the acceptance suite is a
named, seeded, reproducible experiment producing a structured report.

Reports serialize to JSON with a stable key order; identical configs
(including the seed) produce byte-identical reports apart from the timestamp
field. Quotient traces export as CSV rows (level, radius, direction index,
quotient).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import chebyshev, coderivatives as cd, fixed_points as fp, projections as pj
from . import limsup_oracle as lo
from .spaces import (
    DualVector,
    IndexSet,
    PrimalVector,
    SpaceSpec,
    atomic_measure,
    c01_space,
    dual,
    dual_norm,
    duality_map,
    duality_map_inverse,
    l1_space,
    lp_space,
    norm,
    norming_direction,
    primal,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckResult",
    "ExperimentReport",
    "Experiment",
    "EXPERIMENTS",
    "experiment_ids",
    "describe_experiments",
    "resolve_config",
    "load_config_file",
    "run_experiment",
    "report_to_json",
    "experiment_trace",
]


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


@dataclass
class ExperimentConfig:
    """Flat experiment parameters: space (p, N, G), mapping (r, n, M), and
    sampling schedule (r0, K, S, seed)."""

    experiment: str = ""
    p: float = 2.0
    N: int = 4
    G: int = 513
    r: float = 1.0
    n: int = 1
    M: tuple[int, ...] = (1, 2)
    r0: float = 0.5
    K: int = 8
    S: int = 64
    seed: int = 7
    out: str | None = None

    def validate(self) -> None:
        if not (1.0 < self.p < np.inf):
            raise ConfigError("p must lie in (1, inf)")
        if not (np.isfinite(self.r) and np.isfinite(self.r0)):
            raise ConfigError("r and r0 must be finite")
        if self.N < 1 or self.G < 2:
            raise ConfigError("N >= 1 and G >= 2 required")
        if self.r <= 0 or self.n < 0:
            raise ConfigError("r > 0 and n >= 0 required")
        if self.r0 <= 0 or self.K < 4 or self.S < 16:
            raise ConfigError("schedule needs r0 > 0, K >= 4, S >= 16")
        # finer radii are below what the maps resolve, and far finer ones
        # round samples onto their base point
        if self.r0 * 2.0 ** (1 - self.K) < cd.SPHERE_BAND * max(1.0, self.r):
            raise ConfigError("the finest radius r0 * 2^-(K-1) must be >= 1e-12 * max(1, r)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.experiment in EXPERIMENTS:
            _require(self, EXPERIMENTS[self.experiment].requires)

    def schedule(self) -> lo.SamplingSchedule:
        return lo.SamplingSchedule(r0=self.r0, levels=self.K, dirs_per_level=self.S, seed=self.seed)


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: str
    expected: str


@dataclass
class ExperimentReport:
    experiment: str
    description: str
    passed: bool
    checks: list[CheckResult]
    config: dict
    timestamp: str


def _check(checks: list[CheckResult], name: str, passed: bool, observed, expected) -> None:
    checks.append(CheckResult(name, bool(passed), str(observed), str(expected)))


def _require(config: ExperimentConfig, requirements) -> None:
    for holds, message in requirements:
        if not holds(config):
            raise ConfigError(f"{config.experiment}: {message}")


def _rng(config: ExperimentConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, tag])


def _unit_dual(space: SpaceSpec, rng: np.random.Generator) -> DualVector:
    vals = rng.normal(size=space.size)
    w = dual(space, vals)
    return (1.0 / dual_norm(w)) * w


def _dual_with_norm(space, rng, lo_norm, hi_norm) -> DualVector:
    return rng.uniform(lo_norm, hi_norm) * _unit_dual(space, rng)


def _primal_with_norm(space, rng, lo_norm, hi_norm) -> PrimalVector:
    vals = rng.normal(size=space.size)
    v = primal(space, vals)
    return (rng.uniform(lo_norm, hi_norm) / norm(v)) * v


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_ball_fixed_points(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    indeterminate = 0
    for tag, p in enumerate((2.0, 3.0)):
        space = lp_space(p, config.N)
        mapd = cd.ball_projection_map(space, config.r)
        rng = _rng(config, 10 + tag)
        sched = config.schedule()
        interior_ok = 0
        for i in range(20):
            x = _primal_with_norm(space, rng, 0.1 * config.r, 0.8 * config.r)
            base = lo.GraphPoint.at_point(mapd, x)
            samples = lo.sample_base(mapd, base, sched)
            for j in range(20):
                cand = _dual_with_norm(space, rng, 0.3, 1.5)
                verdict = fp.is_fixed_point(samples, cand, mode="oracle")
                interior_ok += verdict == lo.Verdict.MEMBER
                indeterminate += verdict == lo.Verdict.INDETERMINATE
        _check(checks, f"p={p} interior members", interior_ok == 400, interior_ok, 400)
        theta_ok = 0
        exterior_ok = 0
        for i in range(20):
            x = _primal_with_norm(space, rng, 1.5 * config.r, 2.2 * config.r)
            base = lo.GraphPoint.at_point(mapd, x)
            samples = lo.sample_base(mapd, base, sched)
            theta = DualVector.zero(space)
            verdict = fp.is_fixed_point(samples, theta, mode="oracle")
            theta_ok += verdict == lo.Verdict.MEMBER
            indeterminate += verdict == lo.Verdict.INDETERMINATE
            for j in range(20):
                cand = _dual_with_norm(space, rng, 0.5, 1.0)
                verdict = fp.is_fixed_point(samples, cand, mode="oracle")
                exterior_ok += verdict == lo.Verdict.NON_MEMBER
                indeterminate += verdict == lo.Verdict.INDETERMINATE
        _check(checks, f"p={p} exterior origin members", theta_ok == 20, theta_ok, 20)
        _check(checks, f"p={p} exterior rejections", exterior_ok == 400, exterior_ok, 400)
    _check(checks, "indeterminate verdicts", indeterminate == 0, indeterminate, 0)
    return checks


def _exp_ball_coderivative(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    member_ok = reject_ok = 0
    worst_collapse = 0.0
    sched = config.schedule()
    for i in range(50):
        p = 2.0 if i % 2 == 0 else 3.0
        space = lp_space(p, config.N)
        mapd = cd.ball_projection_map(space, config.r)
        rng = _rng(config, 20 + i)
        x = _primal_with_norm(space, rng, 2.5 * config.r, 3.5 * config.r)
        ystar = _dual_with_norm(space, rng, 0.5, 1.5)
        base = lo.GraphPoint.at_point(mapd, x)
        samples = lo.sample_base(mapd, base, sched)
        image = cd.coderiv_ball_lp(x, config.r, ystar).point
        rays = fp.registry_rays(mapd, base, image, ystar)
        verdict = lo.membership_test(mapd, base, image, ystar, sched, rays, samples=samples).verdict
        member_ok += verdict == lo.Verdict.MEMBER
        perturbed = image + 0.1 * _unit_dual(space, rng)
        rays_p = fp.registry_rays(mapd, base, perturbed, ystar)
        verdict_p = lo.membership_test(mapd, base, perturbed, ystar, sched, rays_p, samples=samples).verdict
        reject_ok += verdict_p == lo.Verdict.NON_MEMBER
        del samples  # release this base's pass before the next base draws its own
        collapse = cd.coderiv_ball_lp(x, config.r, duality_map(x)).point
        worst_collapse = max(worst_collapse, dual_norm(collapse))
    _check(checks, "closed-form images accepted", member_ok == 50, member_ok, 50)
    _check(checks, "perturbed images rejected", reject_ok == 50, reject_ok, 50)
    _check(
        checks,
        "duality image collapses to the dual origin",
        worst_collapse <= 1e-12,
        f"{worst_collapse:.3e}",
        "<= 1e-12",
    )
    return checks


def _ball_trace(config: ExperimentConfig) -> lo.LimsupEstimate:
    space = lp_space(config.p, config.N)
    mapd = cd.ball_projection_map(space, config.r)
    vals = np.zeros(config.N)
    vals[0] = 2.0 * config.r
    base = lo.GraphPoint.at_point(mapd, primal(space, vals))
    ystar = dual(space, np.eye(config.N)[min(1, config.N - 1)])
    image = cd.coderiv_ball_lp(base.x, config.r, ystar).point
    return lo.estimate_limsup(mapd, base, image, ystar, config.schedule())


def _exp_affine(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space = lp_space(2.0, config.N)
    rng = _rng(config, 30)
    shift = _primal_with_norm(space, rng, 0.3, 1.0)
    translation = cd.affine_map(space, shift, 1.0)
    base = lo.GraphPoint.at_point(translation, _primal_with_norm(space, rng, 0.2, 1.0))

    xs = _dual_with_norm(space, rng, 0.5, 1.5)
    est = lo.estimate_limsup(translation, base, xs, xs, config.schedule())
    _check(
        checks,
        "translation quotient vanishes at x* = y*",
        abs(est.extrapolated) <= 1e-6,
        f"{est.extrapolated:.3e}",
        "<= 1e-6",
    )

    ray_ok = 0
    for i in range(5):
        a = _dual_with_norm(space, rng, 0.5, 1.5)
        b = _dual_with_norm(space, rng, 0.5, 1.5)
        limit = lo.directed_ray_limit(translation, base, a, b, norming_direction(a - b))
        target = dual_norm(a - b) / 2.0
        ray_ok += abs(limit - target) <= 0.1 * target
    _check(checks, "translation ray limits", ray_ok == 5, ray_ok, 5)

    space2 = lp_space(2.0, 2)
    shift2 = primal(space2, [0.3, -0.2])
    xstar = dual(space2, [1.0, 0.0])
    for lam, sign, name in ((2.0, -1.0, "scale 2"), (0.5, 1.0, "scale 1/2")):
        mapd = cd.affine_map(space2, shift2, lam)
        base2 = lo.GraphPoint.at_point(mapd, primal(space2, [0.1, 0.4]))
        ray = sign * duality_map_inverse(xstar)
        limit = lo.directed_ray_limit(mapd, base2, xstar, xstar, ray)
        _check(
            checks,
            f"{name} directed limit",
            abs(limit - 1.0 / 3.0) <= 0.1 / 3.0,
            f"{limit:.5f}",
            "1/3 +- 10%",
        )
        char = mapd.fixed_point_set(base2)
        _check(checks, f"{name} fixed points pin the origin", char.kind == cd.ORIGIN_ONLY, char.kind, cd.ORIGIN_ONLY)
    char_t = translation.fixed_point_set(base)
    _check(checks, "translation fixed points fill the dual", char_t.kind == cd.WHOLE_DUAL, char_t.kind, cd.WHOLE_DUAL)
    return checks


def _translation_trace(config: ExperimentConfig) -> lo.LimsupEstimate:
    space = lp_space(2.0, config.N)
    shift = primal(space, np.linspace(0.5, -0.3, config.N))
    mapd = cd.affine_map(space, shift, 1.0)
    base = lo.GraphPoint.at_point(mapd, PrimalVector.zero(space))
    xs = dual(space, np.eye(config.N)[0])
    return lo.estimate_limsup(mapd, base, xs, xs, config.schedule())


def _cone_setup(config: ExperimentConfig, p: float):
    space = lp_space(p, config.N)
    vals = np.zeros(config.N)
    for k, i in enumerate(sorted(config.M)):
        vals[i - 1] = float(k + 1)
    xbar = primal(space, vals)
    mapd = cd.cone_projection_map(space)
    base = lo.GraphPoint.at_point(mapd, xbar)
    m_set = IndexSet(frozenset(config.M), config.N)
    return space, mapd, base, xbar, m_set


def _cone_trace(config: ExperimentConfig, p: float) -> lo.LimsupEstimate:
    _require(config, (_M_INSIDE,))  # the cone_lp run itself does not use M
    space, mapd, base, _, _ = _cone_setup(config, p)
    y = dual(space, np.ones(config.N))
    return lo.estimate_limsup(mapd, base, y, y, config.schedule())


def _exp_cone_l2(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space, mapd, base, xbar, m_set = _cone_setup(config, 2.0)
    off = sorted(m_set.complement.members)
    rng = _rng(config, 40)
    sched = config.schedule()
    samples = lo.sample_base(mapd, base, sched)

    char = mapd.fixed_point_set(base)
    _check(
        checks,
        "characterization is the off-support nonnegativity cone",
        char.kind == cd.POSITIVE_CONE_DUAL and char.index_set.members == m_set.complement.members,
        f"{char.kind} on {sorted(char.index_set.members)}",
        f"{cd.POSITIVE_CONE_DUAL} on {off}",
    )

    member_ok = 0
    for i in range(30):
        y = rng.normal(size=config.N) * 2.0
        for j in off:
            y[j - 1] = rng.uniform(0.0, 2.0)
        yd = dual(space, y)
        verdict = fp.is_fixed_point(samples, yd, mode="oracle")
        member_ok += verdict == lo.Verdict.MEMBER
    _check(checks, "members accepted", member_ok == 30, member_ok, 30)

    reject_ok = 0
    for i in range(30):
        y = rng.normal(size=config.N) * 2.0
        for j in off:
            y[j - 1] = rng.uniform(0.0, 2.0)
        y[int(rng.choice(off)) - 1] = -rng.uniform(0.3, 2.0)
        yd = dual(space, y)
        verdict = fp.is_fixed_point(samples, yd, mode="oracle")
        reject_ok += verdict == lo.Verdict.NON_MEMBER
    _check(checks, "negative off-support coordinates rejected", reject_ok == 30, reject_ok, 30)

    anchor_vals = rng.normal(size=config.N) * 2.0
    for j in off:
        anchor_vals[j - 1] = rng.uniform(0.5, 2.0)
    anchor = dual(space, anchor_vals)
    slice_set = cd.coderiv_cone_l2(xbar, m_set, anchor)
    agree = 0
    for i in range(30):
        z = np.array(anchor.values)
        mode = i % 3
        if mode == 0:
            for j in off:
                z[j - 1] *= rng.uniform(0.0, 1.0)
        elif mode == 1:
            z[int(rng.choice(off)) - 1] += rng.uniform(0.3, 1.0)
        else:
            z[int(rng.choice(sorted(m_set.members))) - 1] += rng.uniform(0.3, 1.0)
        zd = dual(space, z)
        est = lo.membership_test(mapd, base, zd, anchor, sched, samples=samples)
        closed = slice_set.membership(zd)
        agree += (est.verdict != lo.Verdict.INDETERMINATE) and (
            closed == (est.verdict == lo.Verdict.MEMBER)
        )
    _check(checks, "slice membership matches the oracle", agree == 30, agree, 30)
    return checks


def _exp_cone_lp(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space = lp_space(config.p, config.N)
    mapd = cd.cone_projection_map(space)
    rng = _rng(config, 50)
    sched = config.schedule()

    j_ok = 0
    for i in range(20):
        mask = rng.random(config.N) > 0.3
        if not mask.any():
            mask[0] = True
        f = primal(space, rng.uniform(0.3, 1.5, size=config.N) * mask)
        jf = duality_map(f)
        base = lo.GraphPoint.at_point(mapd, f)
        verdict = lo.membership_test(mapd, base, jf, jf, sched).verdict
        j_ok += verdict == lo.Verdict.MEMBER
    _check(checks, "duality images are fixed points", j_ok == 20, j_ok, 20)

    theta = PrimalVector.zero(space)
    base0 = lo.GraphPoint.at_point(mapd, theta)
    samples0 = lo.sample_base(mapd, base0, sched)
    psi_ok = 0
    for i in range(20):
        mask = rng.random(config.N) > 0.3
        if not mask.any():
            mask[0] = True
        psi = dual(space, rng.uniform(0.3, 1.5, size=config.N) * mask)
        verdict = lo.membership_test(mapd, base0, psi, psi, sched, samples=samples0).verdict
        psi_ok += verdict == lo.Verdict.MEMBER
    _check(checks, "nonnegative duals at the origin are fixed points", psi_ok == 20, psi_ok, 20)

    match = 0
    for i in range(40):
        fv = rng.uniform(0.3, 1.5, size=config.N) * rng.choice(
            [-1.0, 0.0, 1.0], size=config.N, p=[0.35, 0.3, 0.35]
        )
        pv = rng.uniform(0.3, 1.5, size=config.N) * rng.choice(
            [-1.0, 0.0, 1.0], size=config.N, p=[0.35, 0.3, 0.35]
        )
        # keep off the stratum (f_i < 0 with phi_i < 0), where the stated
        # sign condition and the defining quotient genuinely part ways
        pv[(fv < 0.0) & (pv < 0.0)] = 0.0
        f = primal(space, fv)
        phi = dual(space, pv)
        predicate = cd.coderiv_cone_lp_theta_membership(f, phi)
        base = lo.GraphPoint.at_point(mapd, f)
        verdict = lo.membership_test(mapd, base, DualVector.zero(space), phi, sched).verdict
        match += (predicate and verdict == lo.Verdict.MEMBER) or (
            not predicate and verdict == lo.Verdict.NON_MEMBER
        )
    _check(checks, "dual-origin membership predicate matches the oracle", match == 40, match, 40)
    return checks


def _l1_setup(config: ExperimentConfig):
    space = l1_space(config.N)
    vals = np.zeros(config.N)
    vals[0] = 2.0
    x = primal(space, vals)
    mapd = cd.l1_ball_projection_map(space, config.r)
    base = lo.GraphPoint.at_point(mapd, x)
    return space, mapd, base


def _l1_trace(config: ExperimentConfig) -> lo.LimsupEstimate:
    space, mapd, base = _l1_setup(config)
    phi = dual(space, np.eye(config.N)[0])
    return lo.estimate_limsup(mapd, base, phi, phi, config.schedule())


def _exp_l1_cases(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space, mapd, base = _l1_setup(config)
    e1 = primal(space, np.eye(config.N)[0])
    e2 = primal(space, np.eye(config.N)[1])
    cases = (
        ("orthogonal dual, unsupported coordinate", dual(space, np.eye(config.N)[1]), e2, 0.25),
        ("aligned dual", dual(space, np.eye(config.N)[0]), e1, 0.5),
        ("anti-aligned dual", dual(space, -np.eye(config.N)[0]), -1.0 * e1, 0.5),
    )
    for name, phi, direction, target in cases:
        limit = lo.directed_ray_limit(
            mapd, base, phi, phi, direction, split_l1_denominator=True
        )
        _check(
            checks,
            f"case limit: {name}",
            abs(limit - target) <= 0.05 * target,
            f"{limit:.5f}",
            f"{target} +- 5%",
        )
    sched = config.schedule()
    samples = lo.sample_base(mapd, base, sched)
    theta = DualVector.zero(space)
    est = lo.estimate_limsup(mapd, base, theta, theta, sched, samples=samples)
    _check(
        checks,
        "dual origin is a fixed point with exact zero quotients",
        est.verdict == lo.Verdict.MEMBER and est.extrapolated == 0.0,
        f"{est.verdict.value}, sup {est.extrapolated}",
        "member, sup 0.0",
    )
    rng = _rng(config, 60)
    reject_ok = 0
    for i in range(20):
        vals = rng.uniform(0.3, 1.2, size=config.N) * rng.choice([-1.0, 1.0], size=config.N)
        vals *= rng.random(config.N) > 0.4
        if not np.any(vals):
            vals[0] = 0.5
        phi = dual(space, vals)
        est = lo.membership_test(mapd, base, phi, phi, sched, samples=samples)
        reject_ok += est.verdict == lo.Verdict.NON_MEMBER
    _check(checks, "nonzero duals are not fixed points", reject_ok == 20, reject_ok, 20)
    return checks


def _exp_determinants(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = _rng(config, 70)
    pts20 = rng.uniform(0.02, 0.98, size=20)
    worst = max(
        abs(chebyshev.an_determinant(t, 2) - (t**5 - 2 * t**4 + 2 * t**2 - t))
        for t in pts20
    )
    _check(checks, "closed quintic matches at 20 points", worst <= 1e-12, f"{worst:.3e}", "<= 1e-12")

    pts100 = np.linspace(0.01, 0.99, 100)
    worst_rel = 0.0
    vanish = False
    negative_quintic_ok = True
    for n in range(1, 6):
        report = chebyshev.compare_determinants(n, pts100)
        worst_rel = max(worst_rel, report.max_rel_diff)
        vanish = vanish or any(v == 0.0 for v in report.direct_values)
        if n == 2:
            negative_quintic_ok = all(v < 0.0 for v in report.direct_values)
    _check(checks, "direct vs factorized (n <= 5)", worst_rel <= 1e-9, f"{worst_rel:.3e}", "<= 1e-9")
    _check(checks, "nonvanishing on (0, 1)", not vanish, vanish, False)
    _check(checks, "quintic negative on (0, 1)", negative_quintic_ok, negative_quintic_ok, True)

    exact = chebyshev.an_determinant(Fraction(1, 2), 2)
    _check(checks, "exact rational value at 1/2", exact == Fraction(-3, 32), str(exact), "-3/32")
    return checks


def _exp_coefficient_bounds(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = _rng(config, 80)
    grid = np.linspace(0.0, 1.0, 513)
    for n in (1, 2, 3):
        coef_bound = chebyshev.coefficient_bound(1.0, n)
        deriv_bound = chebyshev.derivative_coefficient_bound(1.0, n)
        coef_viol = deriv_viol = 0
        for _ in range(200):
            coeffs = rng.normal(size=n + 1)
            poly = chebyshev.Polynomial(tuple(coeffs))
            peak = float(np.max(np.abs(poly(grid))))
            if peak == 0.0:
                continue
            poly = chebyshev.Polynomial(tuple(c * rng.uniform(0.2, 1.0) / peak for c in coeffs))
            coef_viol += any(abs(c) > coef_bound for c in poly.coefficients)
            deriv_viol += float(np.max(np.abs(poly.derivative()(grid)))) > deriv_bound
        _check(checks, f"coefficient bound n={n}", coef_viol == 0, coef_viol, 0)
        _check(checks, f"derivative bound n={n}", deriv_viol == 0, deriv_viol, 0)
    return checks


def _random_smooth(space: SpaceSpec, rng: np.random.Generator, scale: float = 1.0) -> PrimalVector:
    grid = space.grid
    vals = np.zeros(grid.size)
    for k in range(1, 6):
        vals += rng.normal() * np.sin(np.pi * k * grid) / k
    vals += rng.normal() * grid + rng.normal()
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= scale / peak
    return primal(space, vals)


def _exp_remez(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space = c01_space(config.G)
    grid = space.grid
    f2 = primal(space, grid**2)
    result = chebyshev.remez(f2, 1)
    _check(
        checks,
        "squared-ramp best line has error 1/8",
        abs(result.error - 0.125) <= 1e-6,
        f"{result.error:.9f}",
        "0.125 +- 1e-6",
    )
    alternations = len(result.reference)
    signs_ok = all(
        result.residual_signs[i] == -result.residual_signs[i + 1]
        for i in range(alternations - 1)
    )
    _check(
        checks,
        "three alternations with alternating signs",
        alternations == 3 and signs_ok,
        f"{alternations} points, alternating {signs_ok}",
        "3 points, alternating True",
    )

    rng = _rng(config, 90)
    ident_worst = 0.0
    for n in (1, 2, 3):
        coeffs = rng.normal(size=n + 1)
        poly = chebyshev.Polynomial(tuple(coeffs))
        fpoly = poly.on_grid(space)
        res = chebyshev.remez(fpoly, n)
        ident_worst = max(
            ident_worst, float(np.max(np.abs(res.polynomial(grid) - poly(grid))))
        )
    _check(checks, "polynomials project to themselves", ident_worst <= 1e-12, f"{ident_worst:.3e}", "<= 1e-12")

    equi_worst = 0.0
    for i in range(50):
        n = (1, 2)[i % 2]
        f = _random_smooth(space, rng)
        base_fit = chebyshev.remez(f, n).polynomial(grid)
        beta = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        scaled = chebyshev.remez(primal(space, beta * f.values), n).polynomial(grid)
        equi_worst = max(equi_worst, float(np.max(np.abs(scaled - beta * base_fit))))
        qcoef = rng.normal(size=n + 1)
        qpoly = chebyshev.Polynomial(tuple(qcoef))
        shifted = chebyshev.remez(primal(space, f.values + qpoly(grid)), n).polynomial(grid)
        equi_worst = max(
            equi_worst, float(np.max(np.abs(shifted - (base_fit + qpoly(grid)))))
        )
    _check(checks, "scaling and shift equivariance", equi_worst <= 1e-8, f"{equi_worst:.3e}", "<= 1e-8")

    # the certified bracket lb <= E_grid <= ub at the discrete solution: it
    # must close, and the polish, which may only sharpen, must not fall below lb
    gap_worst, polish_margin = 0.0, np.inf
    for n in (0, 1, 2):
        f = _random_smooth(space, _rng(config, 91 + n))
        res = chebyshev.remez(f, n)
        lb, ub = pj.poly_bracket(
            f, cd.poly_projection_map(space, n), res.discrete_reference, res.discrete_polynomial
        )
        gap_worst = max(gap_worst, (ub - lb) / max(1.0, lb))
        polish_margin = min(polish_margin, (res.error - lb) / max(1.0, lb))
    tol = chebyshev.REMEZ_TOL
    _check(checks, "discrete bracket closes", gap_worst <= tol, f"{gap_worst:.3e}", f"<= {tol:.0e}")
    _check(
        checks,
        "polished error is at least the certified lower bound",
        polish_margin >= -tol,
        f"{polish_margin:.3e}",
        f">= -{tol:.0e}",
    )
    return checks


def _exp_continuity(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space = c01_space(config.G)
    rng = _rng(config, 100)
    failures = []
    for trial in range(10):
        n = (1, 2, 3)[trial % 3]
        f = _random_smooth(space, rng)
        report = chebyshev.continuity_experiment(
            f, n, perturbations=32, seed=config.seed + trial
        )
        if not (report.tail_ok and report.final_ok):
            failures.append(trial)
    _check(checks, "deviation tails within C/m with small final value", not failures, failures, "[]")
    return checks


def _poly_setup(config: ExperimentConfig):
    space = c01_space(config.G)
    f = primal(space, space.grid**2)
    return space, f, fp.poly_annihilator(space, config.n)


def _poly_trace(config: ExperimentConfig) -> lo.LimsupEstimate:
    _, f, gamma = _poly_setup(config)
    return fp.poly_fixed_point_quotient(f, config.n, gamma, seed=config.seed)


def _exp_poly_exclusions(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space, f, gamma = _poly_setup(config)
    mu = atomic_measure(space, [(1.0, 1.0)])
    report = fp.scaling_direction_report(f, config.n, mu, gamma)
    target = 8.0 / 15.0
    _check(
        checks,
        "scaled-direction limit",
        abs(report.limit - target) <= 0.02 * target,
        f"{report.limit:.6f}",
        "8/15 +- 2%",
    )
    _check(
        checks,
        "limit matches prediction",
        report.relative_error <= 0.02,
        f"{report.relative_error:.3e}",
        "<= 0.02",
    )
    _check(checks, "candidate excluded from the derivative value", report.candidate_excluded, report.candidate_excluded, True)
    report2 = fp.scaling_direction_report(f, config.n, gamma, gamma)
    _check(
        checks,
        "annihilator excluded from the fixed-point set",
        report2.fixed_point_excluded is True,
        report2.fixed_point_excluded,
        True,
    )
    return checks


def _structural_instances(config: ExperimentConfig):
    space = lp_space(2.0, config.N)
    shift = primal(space, np.linspace(0.5, -0.3, config.N))
    translation = cd.affine_map(space, shift, 1.0)
    x0 = primal(space, np.full(config.N, 0.1))
    ball_map = cd.ball_projection_map(space, 1.0)
    interior = primal(space, np.full(config.N, 0.5 / config.N))
    exterior = primal(space, np.linspace(1.0, 2.0, config.N))
    cone_space = lp_space(2.0, 6)
    cone_map = cd.cone_projection_map(cone_space)
    cone_base = primal(cone_space, [1, 2, 0, 0, 0, 0])
    l1sp = l1_space(config.N)
    l1_map = cd.l1_ball_projection_map(l1sp, 1.0)
    l1_vals = np.zeros(config.N)
    l1_vals[0] = 2.0
    instances = [
        ("translation", translation, lo.GraphPoint.at_point(translation, x0)),
        ("ball interior", ball_map, lo.GraphPoint.at_point(ball_map, interior)),
        ("ball exterior", ball_map, lo.GraphPoint.at_point(ball_map, exterior)),
        ("cone", cone_map, lo.GraphPoint.at_point(cone_map, cone_base)),
        ("l1 exterior", l1_map, lo.GraphPoint.at_point(l1_map, primal(l1sp, l1_vals))),
    ]
    return instances, cone_space, cone_map, cone_base


def _exp_structural(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    instances, cone_space, cone_map, cone_base = _structural_instances(config)
    sched = config.schedule()

    theta_ok = True
    for name, mapd, base in instances:
        theta = DualVector.zero(mapd.space)
        est = lo.estimate_limsup(mapd, base, theta, theta, sched)
        theta_ok = theta_ok and est.verdict == lo.Verdict.MEMBER and est.extrapolated == 0.0
    poly_space = c01_space(config.G)
    fpoly = primal(poly_space, poly_space.grid**2)
    est = fp.poly_fixed_point_quotient(fpoly, config.n, DualVector.zero(poly_space))
    theta_ok = theta_ok and est.verdict == lo.Verdict.MEMBER and est.extrapolated == 0.0
    _check(checks, "dual origin is a fixed point everywhere, quotients exactly zero", theta_ok, theta_ok, True)

    rng = _rng(config, 110)
    spread_worst = 0.0
    for name, mapd, base in instances[:3]:
        ystar = _dual_with_norm(mapd.space, rng, 0.5, 1.5)
        est = lo.estimate_limsup(mapd, base, ystar, ystar, sched)
        # one row per call: the golden report pins this spread, and a one-row
        # product rounds like a scalar dot where a multi-row one does not
        size = mapd.space.size
        for u, v in zip(est.trace.us.reshape(-1, size), est.trace.vs.reshape(-1, size)):
            spread = fp.quotient_forms_spread(ystar, lo.AuditRows.at(base, u[None, :], v[None, :]))
            spread_worst = max(spread_worst, float(spread[0]))
    _check(checks, "the three quotient forms agree", spread_worst <= 1e-12, f"{spread_worst:.3e}", "<= 1e-12")

    cone_samples = lo.sample_base(cone_map, lo.GraphPoint.at_point(cone_map, cone_base), sched)
    members = []
    for i in range(5):
        y = rng.normal(size=6) * 2.0
        y[2:] = np.abs(y[2:])
        members.append(dual(cone_space, y))
    probe = fp.convexity_closedness_probe(cone_samples, tuple(members), trials=100, seed=config.seed)
    _check(
        checks,
        "convexity and closedness probe has no violations",
        not probe.violations,
        list(probe.violations),
        "[]",
    )
    audit_probe = fp.convexity_closedness_probe(
        cone_samples, tuple(members[:2]), trials=10, seed=config.seed, mode="audit"
    )
    _check(
        checks,
        "audited combinations stay members",
        not audit_probe.violations,
        list(audit_probe.violations),
        "[]",
    )
    return checks


# ---------------------------------------------------------------------------
# registry, configs, reports
# ---------------------------------------------------------------------------

# a degree-n Remez fit on the grid needs n + 2 nodes
_G_FITS_N = (lambda c: c.G >= c.n + 2, "G >= n + 2 required")
_G_FITS_CUBICS = (lambda c: c.G >= 5, "G >= 5 required (degrees up to 3)")
# structural_prop_3_2's exterior ball base linspace(1, 2, N) is on the sphere
# at N = 1, and l1_cases aims rays at a second coordinate
_N_TWO_OR_MORE = (lambda c: c.N >= 2, "N >= 2 required")
_M_INSIDE = (lambda c: all(1 <= m <= c.N for m in c.M), "M must lie inside 1..N")


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: what it checks, its runner, the config values
    it changes from the `ExperimentConfig` defaults, what it needs of its
    config beyond `ExperimentConfig.validate` as (predicate, message) pairs,
    and its representative quotient trace (None for the algebraic ones)."""

    description: str
    run: Callable[[ExperimentConfig], list[CheckResult]]
    defaults: dict = dataclasses.field(default_factory=dict)
    requires: tuple = ()
    trace: Callable[[ExperimentConfig], lo.LimsupEstimate] | None = None


EXPERIMENTS: dict[str, Experiment] = {
    "ball_theorem_4_1": Experiment(
        "ball projection: fixed points fill the dual space at interior bases and pin the origin at exterior bases",
        _exp_ball_fixed_points, trace=_ball_trace,
    ),
    "ball_coderiv_theorem_3_1": Experiment(
        "exterior ball projection: closed-form derivative images vs the sampling oracle, with the duality-image collapse",
        _exp_ball_coderivative, defaults={"K": 10}, trace=_ball_trace,
    ),
    "affine_props_3_3_3_5": Experiment(
        "affine maps: translations give the identity dual operator; scalings pin the origin, with directed-ray limit values",
        _exp_affine, trace=_translation_trace,
    ),
    "cone_l2_theorem_4_3": Experiment(
        "Hilbert positive cone: fixed points are the duals nonnegative off the support, and slice membership matches the oracle",
        _exp_cone_l2, defaults={"N": 6}, trace=lambda c: _cone_trace(c, 2.0),
        requires=(_M_INSIDE, (lambda c: 0 < len(set(c.M)) < c.N, "M and its complement in 1..N must be nonempty")),
    ),
    "cone_lp_theorem_4_2": Experiment(
        "p-norm positive cone: duality images and nonnegative duals at the origin are fixed points; dual-origin predicate vs oracle",
        _exp_cone_lp, defaults={"p": 3.0, "N": 6}, trace=lambda c: _cone_trace(c, c.p),
    ),
    "l1_cases": Experiment(
        "set-valued l1 ball projection at an exterior base: the three directed case limits and origin-only fixed points",
        _exp_l1_cases, defaults={"N": 6}, trace=_l1_trace,
        requires=(
            _N_TWO_OR_MORE,
            (lambda c: c.r == 1.0, "r = 1 required: the case targets are the r = 1 limits at the base 2 e_1"),
        ),
    ),
    "determinants_lemma_4_5": Experiment(
        "power-matrix determinants: direct vs factorized evaluation, nonvanishing on (0,1), exact rational value at 1/2",
        _exp_determinants,
    ),
    "coefficient_bounds_prop_4_6": Experiment(
        "coefficient and derivative sup-norm bounds for norm-bounded polynomials",
        _exp_coefficient_bounds,
    ),
    "remez_theorem_5_4": Experiment(
        "best uniform approximation: equioscillation, exactness on polynomials, equivariances, certified discrete bracket",
        _exp_remez, requires=(_G_FITS_CUBICS,),
    ),
    "remez_continuity_theorem_4_8": Experiment(
        "continuity of the polynomial projection along shrinking perturbations",
        _exp_continuity, requires=(_G_FITS_CUBICS,),
    ),
    "poly_theorem_4_11": Experiment(
        "polynomial projection: scaling-direction limit and the non-membership exclusions it certifies",
        _exp_poly_exclusions, trace=_poly_trace,
        requires=((lambda c: c.n == 1, "n = 1 required: the 8/15 target is the best-line value"), _G_FITS_N),
    ),
    "structural_prop_3_2": Experiment(
        "structural facts: the dual origin is always a fixed point, fixed-point sets are convex and closed, quotient forms agree",
        _exp_structural, requires=(_N_TWO_OR_MORE, _G_FITS_N), trace=_translation_trace,
    ),
}


def _experiment(name: str) -> Experiment:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name]


def experiment_ids() -> list[str]:
    return list(EXPERIMENTS)


def describe_experiments() -> list[tuple[str, str]]:
    return [(name, record.description) for name, record in EXPERIMENTS.items()]


def load_config_file(path: str) -> dict:
    """Flat key=value file; # starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


# a value converts to the type of its key's default: int, float, or for M a
# tuple of ints, given as a comma list in text
_KEY_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}


def resolve_config(experiment: str, file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then per-experiment defaults, then the config file, then
    command-line overrides."""
    merged: dict = dict(_experiment(experiment).defaults)
    for source in (file_values or {}, overrides or {}):
        merged.update((key, value) for key, value in source.items() if value is not None)
    config = ExperimentConfig(experiment=experiment)
    try:
        for key, value in merged.items():
            if key == "experiment":
                continue
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            kind = _KEY_TYPES[key]
            if kind is tuple:
                tokens = value.split(",") if isinstance(value, str) else value
                value = tuple(int(tok) for tok in tokens if str(tok).strip())
            elif kind in (int, float):
                value = kind(value)
            setattr(config, key, value)
        config.validate()
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    record = _experiment(config.experiment)
    checks = record.run(config)
    echo = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in dataclasses.asdict(config).items()
        if k != "out"
    }
    return ExperimentReport(
        experiment=config.experiment,
        description=record.description,
        passed=all(c.passed for c in checks),
        checks=checks,
        config=echo,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"


def experiment_trace(config: ExperimentConfig) -> lo.LimsupEstimate:
    """A representative quotient trace for experiments built on the sampling
    oracle; raises ConfigError for the purely algebraic ones."""
    record = EXPERIMENTS.get(config.experiment)
    if record is None or record.trace is None:
        raise ConfigError(f"experiment {config.experiment!r} has no quotient trace")
    return record.trace(config)
