"""Pointwise inequality audits for the one-step growth bounds.

Each audit checks a bound that the solution operators must satisfy sample by
sample: the undelayed flow against its exponential norm bound, the unit-step
operators on both fibers against the 3c(1+d) estimate, the pair-to-continuous
step against c(1+d), and the one-step comparison inequalities that tie
consecutive unit steps together.  Violations are counted with a roundoff
margin because some bounds are attained exactly (the exponential bound is an
equality for A = alpha*I).
"""

from __future__ import annotations

import numpy as np

from .drivers import Driver, _stream
from .fibers import ContinuousSegment, GridSpec, LpSegment, norm_c, norm_lp
from .propagation import fundamental_matrix, step_bounds, unit_step_c, unit_step_l

__all__ = ["random_smooth_segment", "audit_sample", "audit_many"]

_REL_MARGIN = 1e-9
_ABS_MARGIN = 1e-12


def random_smooth_segment(grid: GridSpec, dimension: int, rng, fiber_kind: str = "continuous", p: float = 2.0):
    """Random low-order trigonometric segment, resolvable on the grid.

    Nodal white noise would put unbounded high derivatives into the
    interpolation error terms; smooth draws keep audit slack meaningful.
    """
    s = grid.nodes
    modes = 3
    vals = np.zeros((grid.M + 1, dimension))
    for n in range(dimension):
        coeffs = rng.normal(size=2 * modes + 1) / (1.0 + np.arange(2 * modes + 1))
        vals[:, n] = coeffs[0] * np.ones_like(s)
        for m in range(1, modes + 1):
            vals[:, n] += coeffs[2 * m - 1] * np.sin(m * np.pi * s) + coeffs[2 * m] * np.cos(
                m * np.pi * s
            )
    if fiber_kind == "continuous":
        return ContinuousSegment(grid, vals)
    head = rng.normal(size=dimension)
    return LpSegment(grid, head, vals, p)


def _violates(lhs: float, rhs: float) -> bool:
    return lhs > rhs * (1.0 + _REL_MARGIN) + _ABS_MARGIN


def audit_sample(driver: Driver, base_time: float, u: LpSegment, grid: GridSpec, rng=None) -> list[dict]:
    """Audit every one-step bound at one (driver, base_time, segment) sample.

    Returns the list of violation records; empty means all bounds held.
    """
    violations = []
    sb = step_bounds(driver, base_time, grid)
    cd = sb.c * (1.0 + sb.d)

    def check(name, lhs, rhs):
        if _violates(lhs, rhs):
            violations.append({"name": name, "lhs": lhs, "rhs": rhs, "base_time": base_time})

    # exponential bound on the undelayed flow over random sub-spans
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(3):
        t1, t2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        if t2 - t1 < 1e-3:
            continue
        fm = fundamental_matrix(driver, base_time + t1, base_time + t2)
        bound = float(np.exp(driver.a_integral(base_time + t1, base_time + t2)))
        check("fundamental_exponential", float(np.linalg.norm(fm.matrix, 2)), bound)

    # grid-aligned intermediate times of one unit step, both fibers
    v = unit_step_l(driver, base_time, u)
    w = ContinuousSegment(grid, u.density.copy())
    wc = unit_step_c(driver, base_time, w)
    nu_l = norm_lp(u)
    nu_c = norm_c(w)
    M = grid.M
    for j in range(M + 1):
        # pair-fiber solution value at base_time + j*h
        check("pointwise_c_times_1_plus_d", float(np.linalg.norm(v.density[j])), cd * nu_l)
    check("unit_c_3c1d", norm_c(wc), 3.0 * cd * nu_c)
    check("unit_l_3c1d", norm_lp(v), 3.0 * cd * nu_l)
    check("lc_step_c1d", norm_c(ContinuousSegment(grid, v.density.copy())), cd * nu_l)

    # one-step comparison bounds along the pair-fiber orbit u, v, ut1; v lies
    # in the embedded range, so the pair-to-continuous step from v is ut1's density
    sb_t = step_bounds(driver, base_time + 1.0, grid)
    cd_t = sb_t.c * (1.0 + sb_t.d)
    ut1 = unit_step_l(driver, base_time + 1.0, v)
    lc = ContinuousSegment(grid, ut1.density)
    check("l_to_c_one_step", norm_c(lc), cd_t * norm_lp(v))
    check("l_one_step_2c1d", norm_lp(ut1), 2.0 * cd_t * norm_lp(v))
    return violations


def audit_many(drivers, grid: GridSpec, n_samples: int, seed: int = 0) -> dict:
    """Run audit_sample over seeded random (driver, base_time, segment) draws."""
    rng = _stream(seed, 41)
    all_violations = []
    per_name: dict[str, int] = {}
    checks = 0
    for i in range(n_samples):
        driver = drivers[int(rng.integers(len(drivers)))]
        lo, hi = driver.window
        base = float(rng.uniform(lo + 0.5, hi - 3.5))
        u = random_smooth_segment(grid, driver.dimension, rng, "lp", driver.spec.p)
        vio = audit_sample(driver, base, u, grid, rng)
        checks += 1
        for v in vio:
            per_name[v["name"]] = per_name.get(v["name"], 0) + 1
        all_violations.extend(vio)
    return {
        "samples": n_samples,
        "violations": len(all_violations),
        "by_name": per_name,
        "records": all_violations,
    }
