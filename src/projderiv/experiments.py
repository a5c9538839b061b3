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
from collections import Counter
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
    dual_norm_rows,
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
        # a ball of radius at most SPHERE_BAND lies inside its own sphere
        # band, the origin included, so no base point is off the sphere
        if self.r <= cd.SPHERE_BAND:
            raise ConfigError("r must be > 1e-12, the sphere band of a ball of radius below 1")
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


def _unit_rows(space: SpaceSpec, vals: np.ndarray) -> np.ndarray:
    """Each row of an (m, size) array over its dual norm."""
    return vals * (1.0 / dual_norm_rows(space, vals))[:, None]


def _duals_with_norm(space, rng, lo_norm, hi_norm, count) -> np.ndarray:
    """`count` dual values, the rows of a (count, size) block, each of dual
    norm drawn in [lo_norm, hi_norm]: each row's norm is drawn before its
    direction, and the directions are normalized as one block."""
    scales, draws = zip(*[(rng.uniform(lo_norm, hi_norm), rng.normal(size=space.size)) for _ in range(count)])
    return _unit_rows(space, np.stack(draws)) * np.array(scales)[:, None]


def _primal_with_norm(space, rng, lo_norm, hi_norm) -> PrimalVector:
    vals = rng.normal(size=space.size)
    v = primal(space, vals)
    return (rng.uniform(lo_norm, hi_norm) / norm(v)) * v


MEMBER, NON_MEMBER = lo.Verdict.MEMBER, lo.Verdict.NON_MEMBER


def _ask(cases, config: ExperimentConfig) -> tuple[Counter, int]:
    """Asks the queries of (query, labels) cases in order, as one list
    (`fp.ask`), with a (check name, expected verdict) label per row. Returns,
    per check name, how many verdicts were the expected one, and how many
    verdicts were indeterminate."""
    queries, labels = zip(*cases)
    verdicts = [answer.verdict for answer in fp.ask(queries, config.schedule())]
    rows = [label for block in labels for label in block]
    hits = Counter(name for (name, want), got in zip(rows, verdicts) if got == want)
    return hits, verdicts.count(lo.Verdict.INDETERMINATE)


def _check_hits(checks: list[CheckResult], hits: Counter, name: str, total: int) -> None:
    _check(checks, name, hits[name] == total, hits[name], total)


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
        interior, theta, exterior = (
            f"p={p} interior members", f"p={p} exterior origin members", f"p={p} exterior rejections"
        )
        cases = []
        for i in range(20):
            x = _primal_with_norm(space, rng, 0.1 * config.r, 0.8 * config.r)
            base = lo.GraphPoint.at_point(mapd, x)
            block = _duals_with_norm(space, rng, 0.3, 1.5, 20)
            cases.append((fp.Query(mapd, base, block, mode="oracle"), [(interior, MEMBER)] * 20))
        # an exterior base's block is the dual origin, then its 20 draws
        for i in range(20):
            x = _primal_with_norm(space, rng, 1.5 * config.r, 2.2 * config.r)
            base = lo.GraphPoint.at_point(mapd, x)
            block = np.concatenate([np.zeros((1, space.size)), _duals_with_norm(space, rng, 0.5, 1.0, 20)])
            cases.append((fp.Query(mapd, base, block, mode="oracle"), [(theta, MEMBER)] + [(exterior, NON_MEMBER)] * 20))
        hits, undecided = _ask(cases, config)
        indeterminate += undecided
        for name, total in ((interior, 400), (theta, 20), (exterior, 400)):
            _check_hits(checks, hits, name, total)
    _check(checks, "indeterminate verdicts", indeterminate == 0, indeterminate, 0)
    return checks


def _exp_ball_coderivative(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    accepted, rejected = "closed-form images accepted", "perturbed images rejected"
    # one map per p, so that the bases at each map are asked as stacks; base i
    # draws its point, y* and the direction of its perturbation from its own rng
    maps = [cd.ball_projection_map(lp_space(p, config.N), config.r) for p in (2.0, 3.0)]
    drawn = []
    for i in range(50):
        space = maps[i % 2].space
        rng = _rng(config, 20 + i)
        x = _primal_with_norm(space, rng, 2.5 * config.r, 3.5 * config.r)
        drawn.append((x, _duals_with_norm(space, rng, 0.5, 1.5, 1)[0], rng.normal(size=space.size)))
    # base i's block, asked in base order: its closed-form image, then perturbed
    cases, worst_collapse = [None] * 50, 0.0
    for k, mapd in enumerate(maps):
        points, ystars, directions = zip(*drawn[k::2])
        # the derivative images of y* and of J(x), which collapses to the dual origin
        jx = np.stack([duality_map(x).values for x in points])
        images = cd._ball_images(points, config.r, np.stack([np.stack(ystars), jx], axis=1))
        xs = np.stack([images[:, 0], images[:, 0] + 0.1 * _unit_rows(mapd.space, np.stack(directions))], axis=1)
        worst_collapse = max(worst_collapse, float(dual_norm_rows(mapd.space, images[:, 1]).max()))
        for j, (x, ystar) in enumerate(zip(points, ystars)):
            query = fp.Query(mapd, lo.GraphPoint.at_point(mapd, x), xs[j], np.stack([ystar, ystar]))
            cases[2 * j + k] = (query, [(accepted, MEMBER), (rejected, NON_MEMBER)])
    hits, _ = _ask(cases, config)
    _check_hits(checks, hits, accepted, 50)
    _check_hits(checks, hits, rejected, 50)
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

    xs = dual(space, _duals_with_norm(space, rng, 0.5, 1.5, 1)[0])
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
        a, b = (dual(space, row) for row in _duals_with_norm(space, rng, 0.5, 1.5, 2))
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

    char = mapd.fixed_point_set(base)
    _check(
        checks,
        "characterization is the off-support nonnegativity cone",
        char.kind == cd.POSITIVE_CONE_DUAL and char.index_set.members == m_set.complement.members,
        f"{char.kind} on {sorted(char.index_set.members)}",
        f"{cd.POSITIVE_CONE_DUAL} on {off}",
    )

    accepted, rejected = "members accepted", "negative off-support coordinates rejected"
    sliced = "slice membership matches the oracle"
    members, outside = [], []
    for i in range(30):
        y = rng.normal(size=config.N) * 2.0
        for j in off:
            y[j - 1] = rng.uniform(0.0, 2.0)
        members.append(y)
    for i in range(30):
        y = rng.normal(size=config.N) * 2.0
        for j in off:
            y[j - 1] = rng.uniform(0.0, 2.0)
        y[int(rng.choice(off)) - 1] = -rng.uniform(0.3, 2.0)
        outside.append(y)

    anchor_vals = rng.normal(size=config.N) * 2.0
    for j in off:
        anchor_vals[j - 1] = rng.uniform(0.5, 2.0)
    anchor = dual(space, anchor_vals)
    slice_set = cd.coderiv_cone_l2(xbar, m_set, anchor)
    anchors = np.tile(anchor.values, (30, 1))
    zs = anchors.copy()
    for i, z in enumerate(zs):
        mode = i % 3
        if mode == 0:
            for j in off:
                z[j - 1] *= rng.uniform(0.0, 1.0)
        elif mode == 1:
            z[int(rng.choice(off)) - 1] += rng.uniform(0.3, 1.0)
        else:
            z[int(rng.choice(sorted(m_set.members))) - 1] += rng.uniform(0.3, 1.0)
    # the slice's closed form reads one DualVector at a time
    expected = [MEMBER if slice_set.membership(dual(space, z)) else NON_MEMBER for z in zs]
    hits, _ = _ask([(fp.Query(mapd, base, np.stack(members), mode="oracle"), [(accepted, MEMBER)] * 30),
                    (fp.Query(mapd, base, np.stack(outside), mode="oracle"), [(rejected, NON_MEMBER)] * 30),
                    (fp.Query(mapd, base, zs, anchors), [(sliced, want) for want in expected])], config)
    _check_hits(checks, hits, accepted, 30)
    _check_hits(checks, hits, rejected, 30)
    _check_hits(checks, hits, sliced, 30)
    return checks


def _exp_cone_lp(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    space = lp_space(config.p, config.N)
    mapd = cd.cone_projection_map(space)
    rng = _rng(config, 50)
    images, origin = "duality images are fixed points", "nonnegative duals at the origin are fixed points"
    matched = "dual-origin membership predicate matches the oracle"
    cases = []
    for i in range(20):
        mask = rng.random(config.N) > 0.3
        if not mask.any():
            mask[0] = True
        f = primal(space, rng.uniform(0.3, 1.5, size=config.N) * mask)
        jf = duality_map(f).values[None]
        base = lo.GraphPoint.at_point(mapd, f)
        cases.append((fp.Query(mapd, base, jf, jf), [(images, MEMBER)]))

    base0 = lo.GraphPoint.at_point(mapd, PrimalVector.zero(space))
    psis = []
    for i in range(20):
        mask = rng.random(config.N) > 0.3
        if not mask.any():
            mask[0] = True
        psis.append(rng.uniform(0.3, 1.5, size=config.N) * mask)
    cases.append((fp.Query(mapd, base0, np.stack(psis), np.stack(psis)), [(origin, MEMBER)] * 20))

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
        expected = MEMBER if cd.coderiv_cone_lp_theta_membership(f, dual(space, pv)) else NON_MEMBER
        base = lo.GraphPoint.at_point(mapd, f)
        cases.append((fp.Query(mapd, base, np.zeros((1, config.N)), pv[None]), [(matched, expected)]))
    hits, _ = _ask(cases, config)
    _check_hits(checks, hits, images, 20)
    _check_hits(checks, hits, origin, 20)
    _check_hits(checks, hits, matched, 40)
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
    # the origin is a membership candidate, so the oracle answers it with a
    # value; it and the 20 duals are one block
    phis = [np.zeros(config.N)]
    rng = _rng(config, 60)
    for i in range(20):
        vals = rng.uniform(0.3, 1.2, size=config.N) * rng.choice([-1.0, 1.0], size=config.N)
        vals *= rng.random(config.N) > 0.4
        if not np.any(vals):
            vals[0] = 0.5
        phis.append(vals)
    origin, *answers = fp.ask([fp.Query(mapd, base, np.stack(phis), np.stack(phis))], config.schedule())
    _check(
        checks,
        "dual origin is a fixed point with exact zero quotients",
        origin.verdict == MEMBER and origin.extrapolated == 0.0,
        f"{origin.verdict.value}, sup {origin.extrapolated}",
        "member, sup 0.0",
    )
    rejected = sum(answer.verdict == NON_MEMBER for answer in answers)
    _check(checks, "nonzero duals are not fixed points", rejected == 20, rejected, 20)
    return checks


def _exp_determinants(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = _rng(config, 70)
    pts20 = rng.uniform(0.02, 0.98, size=20)
    worst = max(
        abs(d - (t**5 - 2 * t**4 + 2 * t**2 - t))
        for d, t in zip(chebyshev.an_determinants(pts20, 2), pts20)
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
        coeffs, _ = _unit_polynomials(rng, n, grid, 200)
        coef_viol, deriv_viol = _bound_violations(coeffs, grid, coef_bound, deriv_bound)
        _check(checks, f"coefficient bound n={n}", coef_viol == 0, coef_viol, 0)
        _check(checks, f"derivative bound n={n}", deriv_viol == 0, deriv_viol, 0)
    return checks


def _unit_polynomials(rng: np.random.Generator, n: int, grid: np.ndarray, count: int):
    """Up to `count` random polynomials of degree <= n: each draws n + 1
    normal coefficients, then one uniform factor in [0.2, 1] per
    coefficient, and its coefficients are scaled by those factors over its
    peak |p| on the grid. The factors can raise a draw with cancelling terms
    above 1, so each scaled row is then divided by max(1, its grid peak):
    every row is within the norm bound b = 1 of the check. A draw whose peak
    is 0 is skipped before its factors are drawn. Returns the scaled
    coefficients (m, n + 1) and the draws' peaks (m,), with m <= count.

    The grid starts at 0, where p is a_0, so only a draw with a_0 == 0 can
    peak at 0: it alone is evaluated inside the draw loop, and the kept draws
    are evaluated in one `horner_rows` batch after it."""
    draws, factors = [], []
    for _ in range(count):
        coeffs = rng.normal(size=n + 1)
        if coeffs[0] == 0.0 and np.max(np.abs(chebyshev.horner_rows(coeffs[None], grid))) == 0.0:
            continue
        draws.append(coeffs)
        factors.append(rng.uniform(0.2, 1.0, size=n + 1))
    coeffs = np.array(draws).reshape(-1, n + 1)
    peaks = np.max(np.abs(chebyshev.horner_rows(coeffs, grid)), axis=1)
    scaled = coeffs * np.array(factors).reshape(coeffs.shape) / peaks[:, None]
    scaled /= np.maximum(1.0, np.max(np.abs(chebyshev.horner_rows(scaled, grid)), axis=1))[:, None]
    return scaled, peaks


def _bound_violations(coeffs: np.ndarray, grid: np.ndarray, coef_bound: float, deriv_bound: float) -> tuple[int, int]:
    """How many rows of a (m, n + 1) coefficient array have a coefficient
    over `coef_bound`, and how many have a derivative (coefficients j a_j,
    one `horner_rows` batch) whose peak |p'| on the grid is over
    `deriv_bound`."""
    derivs = chebyshev.horner_rows(np.arange(1, coeffs.shape[1]) * coeffs[:, 1:], grid)
    return (
        int(np.count_nonzero((np.abs(coeffs) > coef_bound).any(axis=1))),
        int(np.count_nonzero(np.max(np.abs(derivs), axis=1) > deriv_bound)),
    )


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

    # the draws f, beta, q of each of the 50 trials, in trial order; then the
    # base, scaled and shifted rows of each degree as one batch
    degrees = [(1, 2)[i % 2] for i in range(50)]
    draws = []
    for n in degrees:
        f = _random_smooth(space, rng)
        beta = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        draws.append((f.values, beta, chebyshev.Polynomial(tuple(rng.normal(size=n + 1)))))
    fits = {}
    for n in (1, 2):
        trials = [i for i, d in enumerate(degrees) if d == n]
        rows = np.empty((3, len(trials), grid.size))
        for k, i in enumerate(trials):
            f, beta, qpoly = draws[i]
            rows[:, k] = f, beta * f, f + qpoly(grid)
        batch = chebyshev.remez_rows(space, rows.reshape(-1, grid.size), n)
        del rows  # so that the two degrees' rows are never held at once
        fits.update((i, batch[k :: len(trials)]) for k, i in enumerate(trials))
    equi_worst = 0.0
    for i, (_, beta, qpoly) in enumerate(draws):
        base_fit, scaled, shifted = chebyshev.fits_on_grid(space, fits[i])
        equi_worst = max(equi_worst, float(np.max(np.abs(scaled - beta * base_fit))))
        equi_worst = max(equi_worst, float(np.max(np.abs(shifted - (base_fit + qpoly(grid))))))
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


def _origin_estimate(
    mapd: cd.MapDescriptor, base: lo.GraphPoint, sched: lo.SamplingSchedule, ystar: DualVector | None
) -> tuple[lo.LimsupEstimate, float]:
    """The dual origin's fixed-point estimate at the base
    (`limsup_oracle.estimate_limsup`), and the largest spread of y*'s three
    quotient forms over every row the walk samples (0.0 without y*), a
    running max over its blocks, whose first form is the oracle's quotient
    formula (`limsup_oracle._quotients`, through `AuditRows.spread`). Each
    block's rows go in as a stack of one-row blocks: the golden report pins
    this spread, and a (1, size) @ (size,) product rounds like a scalar dot
    where a multi-row one does not."""
    spread = 0.0

    def audit(us, vs):
        nonlocal spread
        size = us.shape[-1]
        rows = lo.AuditRows.at(base, us.reshape(-1, 1, size), vs.reshape(-1, 1, size))
        spread = max(spread, float(fp.quotient_forms_spread(ystar, rows).max()))

    theta = DualVector.zero(mapd.space)
    est = lo.estimate_limsup(mapd, base, theta, theta, sched, rows=None if ystar is None else audit)
    return est, spread


def _exp_structural(config: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    instances, cone_space, cone_map, cone_base = _structural_instances(config)
    sched = config.schedule()

    rng = _rng(config, 110)
    theta_ok, spread_worst = True, 0.0
    for k, (name, mapd, base) in enumerate(instances):
        ystar = dual(mapd.space, _duals_with_norm(mapd.space, rng, 0.5, 1.5, 1)[0]) if k < 3 else None
        est, spread = _origin_estimate(mapd, base, sched, ystar)
        theta_ok = theta_ok and est.verdict == lo.Verdict.MEMBER and est.extrapolated == 0.0
        spread_worst = max(spread_worst, spread)
    poly_space = c01_space(config.G)
    fpoly = primal(poly_space, poly_space.grid**2)
    est = fp.poly_fixed_point_quotient(fpoly, config.n, DualVector.zero(poly_space))
    theta_ok = theta_ok and est.verdict == lo.Verdict.MEMBER and est.extrapolated == 0.0
    _check(checks, "dual origin is a fixed point everywhere, quotients exactly zero", theta_ok, theta_ok, True)
    _check(checks, "the three quotient forms agree", spread_worst <= 1e-12, f"{spread_worst:.3e}", "<= 1e-12")

    cone_point = lo.GraphPoint.at_point(cone_map, cone_base)
    members = rng.normal(size=(5, 6)) * 2.0
    members[:, 2:] = np.abs(members[:, 2:])
    # both probes are one list at the one cone base, so they share one pass
    registry, registry_block = fp.convexity_candidates(members, trials=100, seed=config.seed)
    audit, audit_block = fp.convexity_candidates(members[:2], trials=10, seed=config.seed)
    queries = [fp.Query(cone_map, cone_point, registry_block), fp.Query(cone_map, cone_point, audit_block, mode="audit")]
    verdicts = [answer.verdict for answer in fp.ask(queries, sched)]
    for name, labels, asked in (
        ("convexity and closedness probe has no violations", registry, verdicts[: len(registry)]),
        ("audited combinations stay members", audit, verdicts[len(registry) :]),
    ):
        violations = [f"{label}: {v.value}" for label, v in zip(labels, asked) if v != MEMBER]
        _check(checks, name, not violations, violations, "[]")
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
