"""Output checks made apart from the program.

Each check takes the inputs the benchmark generated and an output of the
program, recomputes what it can with plain numpy/scipy, and returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from workloads import lambert_exponents

# Relative gap between the program's RK4 fundamental matrix and the expm product.
FUNDAMENTAL_RTOL = 1e-8
STEP_BOUND_D_RTOL = 1e-12
CHAR_ROOT_TOL = 1e-8
CONVERGE_ORDER = (3.5, 4.5)
CONVERGE_RATE_TOL = 1e-6


def embed(frame: np.ndarray, dimension: int) -> np.ndarray:
    """u -> (u(0), u) on coordinate columns: node-major segment, u(0) is the last node."""
    return np.vstack([frame[-dimension:], frame])


def max_principal_angle(X: np.ndarray, Y: np.ndarray) -> float:
    """Largest principal angle between span(X) and span(Y), sine-based."""
    Qx, _ = np.linalg.qr(X)
    Qy, _ = np.linalg.qr(Y)
    if Qx.shape[1] != Qy.shape[1]:
        return np.pi / 2
    resid = Qy - Qx @ (Qx.T @ Qy)
    return float(np.arcsin(min(1.0, np.linalg.norm(resid, 2))))


def check_compare(cfg: dict, rep_c: dict, rep_l: dict) -> list[str]:
    """Both fibers' reports of one `compare` run."""
    problems = []
    tols = cfg["compare"]["tolerances"]
    N = cfg["driver"]["dimension"]
    ec, el = np.array(rep_c["exponents"]), np.array(rep_l["exponents"])
    if ec.shape != el.shape or ec.size != cfg["spectrum"]["k"]:
        return [f"exponent counts differ: {ec.size} continuous, {el.size} lp"]
    gap = float(np.max(np.abs(ec - el)))
    if gap > tols["exponent_gap"]:
        problems.append(f"fiber exponents differ by {gap:.3e} > {tols['exponent_gap']}")
    for name, e in (("continuous", ec), ("lp", el)):
        if np.any(np.diff(e) > 0):
            problems.append(f"{name} exponents are not nonincreasing: {e.tolist()}")
    if rep_c["e_frames"].keys() != rep_l["e_frames"].keys():
        problems.append("fibers report E frames at different times")
    for s, frames_c in rep_c["e_frames"].items():
        frames_l = rep_l["e_frames"].get(s, [])
        if len(frames_c) != len(frames_l):
            problems.append(f"time {s}: {len(frames_c)} continuous vs {len(frames_l)} lp frames")
            continue
        for i, (fc, fl) in enumerate(zip(frames_c, frames_l)):
            angle = max_principal_angle(embed(np.array(fc), N), np.array(fl))
            if angle > tols["e_angle"]:
                problems.append(f"time {s} group {i}: embedded E frame off by {angle:.3e} rad")
    for name, rep in (("continuous", rep_c), ("lp", rep_l)):
        equiv = rep["diagnostics"]["equivariance_angles"]
        if not equiv:
            problems.append(f"{name}: no equivariance angles reported")
        for s, angles in equiv.items():
            if max(angles) > tols["e_angle"]:
                problems.append(f"{name} time {s}: equivariance angle {max(angles):.3e} rad")
    return problems


def check_diagonal_oracle(cfg: dict, oracle: dict) -> list[str]:
    """QR estimates and characteristic roots against Lambert W, diagonal constant case."""
    a = np.diag(cfg["driver"]["A0"])
    b = np.diag(cfg["driver"]["B0"])
    count = cfg["oracle"]["count"]
    exact = lambert_exponents(a, b)[:count]
    rows = oracle["rows"]
    if len(rows) != count:
        return [f"{len(rows)} oracle rows, expected {count}"]
    problems = []
    for row, lam in zip(rows, exact):
        if abs(row["estimate"] - lam) > cfg["oracle"]["tolerance"]:
            problems.append(f"estimate {row['index']}: {row['estimate']:.8f} vs Lambert W {lam:.8f}")
        if abs(row["oracle"] - lam) > CHAR_ROOT_TOL:
            problems.append(f"characteristic root {row['index']}: {row['oracle']:.10f} vs {lam:.10f}")
    return problems


def check_periodic_oracle(cfg: dict, oracle: dict, period_map: np.ndarray) -> list[str]:
    """QR estimates against the eigenvalues of the assembled period map."""
    count = cfg["oracle"]["count"]
    exact = np.sort(np.log(np.abs(np.linalg.eigvals(period_map))))[::-1][:count]
    estimates = np.array([row["estimate"] for row in oracle["rows"]])
    if estimates.shape != exact.shape:
        return [f"{estimates.size} estimates, expected {count}"]
    gap = float(np.max(np.abs(estimates - exact)))
    if gap > cfg["oracle"]["tolerance"]:
        return [f"periodic estimates differ from the period-map eigenvalues by {gap:.3e}"]
    return []


def check_converge(cfg: dict, converge: dict) -> list[str]:
    """Observed order near 4; the finest estimate near the exact rate A0[0][0]."""
    problems = []
    orders = converge["observed_orders"]
    lo, hi = CONVERGE_ORDER
    if not orders or not all(lo <= o <= hi for o in orders):
        problems.append(f"observed orders {orders} outside [{lo}, {hi}]")
    finest = max(converge["rows"], key=lambda r: r["M"])
    rate = cfg["driver"]["A0"][0][0]
    if abs(finest["exponents"][0] - rate) > CONVERGE_RATE_TOL:
        problems.append(f"finest estimate {finest['exponents'][0]:.10f} vs exact {rate}")
    return problems


def telegraph_state(switch_times: np.ndarray, states: np.ndarray, t) -> np.ndarray:
    """Index of the realized state at t; states[i] holds on [switch_times[i-1], switch_times[i])."""
    return states[np.searchsorted(switch_times, t, side="right")]


def expm_product(cfg: dict, switch_times, states, t1: float, t2: float) -> np.ndarray:
    """Flow of z' = A(t) z over [t1, t2] as a product of exact exponentials."""
    A = [np.array(s["A"]) for s in cfg["driver"]["states"]]
    inner = switch_times[(switch_times > t1) & (switch_times < t2)]
    cuts = np.concatenate([[t1], inner, [t2]])
    Z = np.eye(cfg["driver"]["dimension"])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        j = telegraph_state(switch_times, states, 0.5 * (lo + hi))
        Z = expm(A[j] * (hi - lo)) @ Z
    return Z


def check_fundamental(spans: list, program: list, reference: list) -> list[str]:
    problems = []
    for (t1, t2), P, R in zip(spans, program, reference):
        err = np.linalg.norm(P - R, 2) / np.linalg.norm(R, 2)
        if not err <= FUNDAMENTAL_RTOL:
            problems.append(f"fundamental matrix on [{t1:.4f}, {t2:.4f}] off by {err:.3e}")
    return problems


def step_bound_d(cfg: dict, switch_times, states, base_time: float) -> float:
    """(trapezoid sum of ||B(t)||^q over the unit span)^(1/q) at the grid nodes."""
    M = cfg["grid"]["M"]
    p = cfg["driver"].get("p", 2.0)
    q = p / (p - 1.0)
    b_norms = np.array([np.linalg.norm(np.array(s["B"]), 2) for s in cfg["driver"]["states"]])
    nodes = base_time + np.arange(M + 1) / M
    w = np.full(M + 1, 1.0 / M)
    w[0] = w[-1] = 0.5 / M
    return float(np.dot(w, b_norms[telegraph_state(switch_times, states, nodes)] ** q) ** (1.0 / q))


def check_step_bound_d(times: list, program: list, reference: list) -> list[str]:
    problems = []
    for t, d, ref in zip(times, program, reference):
        if not abs(d - ref) <= STEP_BOUND_D_RTOL * ref:
            problems.append(f"step_bounds d at t={t:.4f}: {d!r} vs trapezoid {ref!r}")
    return problems


def check_audit(cfg: dict, bounds: dict) -> list[str]:
    audit = bounds["audit"]
    problems = []
    if audit["samples"] != cfg["bounds"]["samples"]:
        problems.append(f"audit ran {audit['samples']} samples, config asks {cfg['bounds']['samples']}")
    if audit["violations"] != 0:
        problems.append(f"audit reports {audit['violations']} violations: {audit['by_name']}")
    return problems
