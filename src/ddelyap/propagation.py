"""Solution operators for z'(t) = A(t) z(t) + B(t) z(t-1) on the segment fibers.

One block step advances a segment by any span 0 < f <= 1, the unit step
being f = 1.  It is the method of steps: over the span the delayed term is
known forcing read from the stored segment nodes, so the equation reduces to
a linear ODE integrated with fixed-step classical Runge-Kutta straight onto
the shifted output nodes; output nodes still inside the old segment are read
from its nodes.  Stage values of the history between nodes come from local
cubic interpolation; integration substeps are split at the switch times of
piecewise-constant drivers so no step straddles a coefficient jump.  Both
fibers share the one step, which makes the intertwining of the embedding
with the unit steps exact at the discrete level, and makes integer-time
cocycle composition exact by construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .drivers import Driver, spectral_norm
from .fibers import ContinuousSegment, GridSpec, LpSegment, fiber_dim, trapezoid_weights

__all__ = [
    "FundamentalMatrix",
    "StepBounds",
    "UnitStepOperator",
    "fundamental_matrix",
    "step_bounds",
    "unit_step_c",
    "unit_step_l",
    "unit_step_block",
    "propagate",
    "evolve_l_to_c",
    "assemble_unit_operator",
]

_TIME_EPS = 1e-12


def _cubic_weights(t: float) -> tuple[float, float, float, float]:
    # Lagrange weights on 4 consecutive integer abscissae, local coordinate t in [0, 3]
    return (
        -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
        t * (t - 2.0) * (t - 3.0) / 2.0,
        -t * (t - 1.0) * (t - 3.0) / 2.0,
        t * (t - 1.0) * (t - 2.0) / 6.0,
    )


def _nodes_eval(values: np.ndarray, xi: float) -> np.ndarray:
    """Evaluate nodal data at fractional index xi by local cubic interpolation.

    `values` has node-major shape (n_nodes, ...); xi = 0 .. n_nodes - 1.
    Exact whenever xi is an integer.
    """
    last = values.shape[0] - 1
    xi = min(max(xi, 0.0), float(last))
    i = int(math.floor(xi))
    if float(i) == xi:
        return values[i]
    i0 = min(max(i - 1, 0), last - 3)
    w = _cubic_weights(xi - i0)
    return w[0] * values[i0] + w[1] * values[i0 + 1] + w[2] * values[i0 + 2] + w[3] * values[i0 + 3]


def _rk4_piece(driver, a, b, z, forcing, stage_times_constant):
    """One RK4 step of z' = A(t) z + g(t) over [a, b] with no coefficient jump inside."""
    delta = b - a
    mid = 0.5 * (a + b)
    if stage_times_constant:
        A_a, B_a = driver.matrices(mid)
        A_m, B_m, A_b, B_b = A_a, B_a, A_a, B_a
    else:
        A_a, B_a = driver.matrices(a)
        A_m, B_m = driver.matrices(mid)
        A_b, B_b = driver.matrices(b)
    if forcing is None:
        k1 = A_a @ z
        k2 = A_m @ (z + 0.5 * delta * k1)
        k3 = A_m @ (z + 0.5 * delta * k2)
        k4 = A_b @ (z + delta * k3)
    else:
        g_a = B_a @ forcing(a)
        g_m = B_m @ forcing(mid)
        g_b = B_b @ forcing(b)
        k1 = A_a @ z + g_a
        k2 = A_m @ (z + 0.5 * delta * k1) + g_m
        k3 = A_m @ (z + 0.5 * delta * k2) + g_m
        k4 = A_b @ (z + delta * k3) + g_b
    return z + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_span(driver, a, b, z, forcing):
    """Integrate over [a, b], splitting at driver switch times."""
    cuts = driver.switch_times_in(a + _TIME_EPS, b - _TIME_EPS)
    piecewise = driver.piecewise_constant
    if cuts.size == 0:
        return _rk4_piece(driver, a, b, z, forcing, piecewise)
    times = np.concatenate([[a], cuts, [b]])
    for lo, hi in zip(times[:-1], times[1:]):
        if hi - lo < _TIME_EPS:
            continue
        z = _rk4_piece(driver, lo, hi, z, forcing, piecewise)
    return z


def _integrate(driver, times, z0: np.ndarray, forcing) -> np.ndarray:
    """Solution of z' = A(t) z + g(t) at every breakpoint of `times`; row 0 is z0.

    One RK4 span per gap.  Breakpoints are Python floats, which keeps the
    per-piece scalar arithmetic cheap.  Raises ValueError when the largest
    gap times the driver's bound on |A(t)| exceeds 2, where fixed-step RK4
    leaves its stability region and returns confident wrong rates.
    """
    h = max(map(operator.sub, times[1:], times[:-1]))
    if h * driver.a_bound > 2.0:
        raise ValueError(
            f"RK4 step {h:.4g} times the bound {driver.a_bound:.4g} on |A(t)| is "
            f"{h * driver.a_bound:.3g} > 2, outside the stability region; "
            f"raise grid.M to at least {math.ceil(driver.a_bound / 2.0)}"
        )
    out = np.empty((len(times),) + z0.shape)
    out[0] = z0
    z = z0
    for j in range(len(times) - 1):
        z = _rk4_span(driver, times[j], times[j + 1], z, forcing)
        out[j + 1] = z
    return out


@dataclass(frozen=True)
class FundamentalMatrix:
    """Solution operator of the undelayed part z' = A(t) z between two times."""

    t1: float
    t2: float
    matrix: np.ndarray


def fundamental_matrix(driver: Driver, t1: float, t2: float, substeps: int | None = None) -> FundamentalMatrix:
    """Integrate Z' = A(t) Z, Z(t1) = I over [t1, t2] with t2 - t1 <= 1."""
    if t2 < t1:
        raise ValueError("t2 must be >= t1")
    if t2 - t1 > 1.0 + _TIME_EPS:
        raise ValueError("spans longer than one unit are composed by the caller")
    driver._check_inside(t1)
    driver._check_inside(t2)
    N = driver.dimension
    Z = np.eye(N)
    if t2 > t1:
        n = substeps if substeps is not None else max(1, int(math.ceil((t2 - t1) * 64 - _TIME_EPS)))
        h = (t2 - t1) / n
        Z = _integrate(driver, [t1 + j * h for j in range(n + 1)], Z, None)[-1]
    return FundamentalMatrix(t1, t2, Z)


@dataclass(frozen=True)
class StepBounds:
    """One-step growth constants of the undelayed flow and the delay forcing.

    c is a grid-pair lower estimate of the sup of fundamental-matrix norms
    over sub-spans of the unit interval; c_upper is its analytic exponential
    upper bound; d is the trapezoid q-norm of the B-coefficient over the
    incoming delay span.
    """

    c: float
    d: float
    c_upper: float


def step_bounds(driver: Driver, base_time: float, grid: GridSpec) -> StepBounds:
    driver._check_inside(base_time)
    driver._check_inside(base_time + 1.0)
    M, h = grid.M, grid.h

    # one integration pass gives all grid-time fundamental matrices
    times = [base_time + j * h for j in range(M + 1)]
    phis = _integrate(driver, times, np.eye(driver.dimension), None)
    inv_phis = np.linalg.inv(phis)
    lo, hi = np.triu_indices(M + 1, k=1)
    pair_mats = phis[hi] @ inv_phis[lo]  # flow over [t_lo, t_hi] by composition
    norms = np.linalg.norm(pair_mats, ord=2, axis=(1, 2))
    c = max(1.0, float(np.max(norms)))

    q = driver.spec.q
    bq = np.array(
        [spectral_norm(driver.matrices(base_time + j * h)[1]) ** q for j in range(M + 1)]
    )
    d = float(np.dot(trapezoid_weights(grid), bq) ** (1.0 / q))
    c_upper = float(np.exp(driver.a_integral(base_time, base_time + 1.0)))
    return StepBounds(c=c, d=d, c_upper=c_upper)


def unit_step_c(driver: Driver, base_time: float, u: ContinuousSegment) -> ContinuousSegment:
    """One delay span forward on the continuous fiber."""
    return _segment_step(driver, base_time, u, 1.0)


def unit_step_l(driver: Driver, base_time: float, u: LpSegment) -> LpSegment:
    """One delay span forward on the pair fiber.

    The head is the initial value and the stored density drives the delayed
    term; after one span the output head equals the output density at s = 0,
    so the image lies in the embedded range.
    """
    return _segment_step(driver, base_time, u, 1.0)


def _segment_step(driver, base_time, u, f):
    """The segment at base_time + f, 0 < f <= 1, on the input's fiber."""
    if u.dimension != driver.dimension:
        raise ValueError(
            f"segment dimension {u.dimension} does not match driver dimension {driver.dimension}"
        )
    driver._check_inside(base_time)
    driver._check_inside(base_time + f)
    lp = isinstance(u, LpSegment)
    kind = "lp" if lp else "continuous"
    if f == 1.0:
        out = unit_step_block(driver, base_time, kind, u.coords(), u.grid)
    else:
        out = _span_block(driver, base_time, kind, u.coords(), u.grid, f)
    if lp:
        return LpSegment.from_coords(u.grid, out, u.dimension, u.p)
    return ContinuousSegment.from_coords(u.grid, out, u.dimension)


def propagate(driver: Driver, base_time: float, u, t: float):
    """Semiflow: the segment at time base_time + t, same fiber as the input.

    The fractional part of t is one block step over that fraction, taken
    first; whole spans follow as unit steps, so integer times compose unit
    steps exactly.  The window [base_time, base_time + t] is checked once,
    before any step.
    """
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    driver._check_inside(base_time)
    driver._check_inside(base_time + t)
    frac = t - math.floor(t)
    if frac < _TIME_EPS or frac > 1.0 - _TIME_EPS:
        frac = 0.0
    steps = int(round(t - frac))
    cur = u
    pos = base_time
    if frac > 0.0:
        cur = _segment_step(driver, pos, cur, frac)
        pos += frac
    step = unit_step_l if isinstance(u, LpSegment) else unit_step_c
    for _ in range(steps):
        cur = step(driver, pos, cur)
        pos += 1.0
    return cur


def evolve_l_to_c(driver: Driver, base_time: float, u: LpSegment, t: float) -> ContinuousSegment:
    """Pair-fiber data evolved for t >= 1, returned as a continuous segment.

    One delay span smooths the state into the embedded range, where the
    embedding intertwines the two fibers' steps exactly; the result is the
    density of the pair-fiber semiflow from there.
    """
    if t < 1.0 - _TIME_EPS:
        raise ValueError(f"continuous output needs t >= 1, got {t}")
    first = unit_step_l(driver, base_time, u)
    return ContinuousSegment(u.grid, propagate(driver, base_time + 1.0, first, t - 1.0).density)


def unit_step_block(
    driver: Driver,
    base_time: float,
    fiber_kind: str,
    X: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """Unit step applied to a block of fiber coordinate vectors (columns of X)."""
    return _span_block(driver, base_time, fiber_kind, X, grid, 1.0)


def _span_block(driver, base_time, fiber_kind, X, grid, f):
    """Step over the span 0 < f <= 1 applied to the columns of X.

    Output node j sits at history index xi_j = j + f M.  Nodes with xi_j >= M
    are RK4 solution values at base_time + (xi_j - M) h, integrated from the
    base time; the others are read from the input history, exactly when f M
    is an integer.  The lp head is the last solution value.
    """
    N, M, h = driver.dimension, grid.M, grid.h
    d = fiber_dim(grid, N, fiber_kind)
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    if X.shape[0] != d:
        raise ValueError(f"coordinate rows {X.shape[0]} != fiber dimension {d}")
    K = X.shape[1]
    if fiber_kind == "continuous":
        hist = X.reshape(M + 1, N, K)
        z0 = hist[-1]
    else:
        z0 = X[:N]
        hist = X[N:].reshape(M + 1, N, K)
    shift = f * M
    first = M - int(math.floor(shift))  # first node with xi_j >= M
    lag = shift - M
    times = [base_time + (j + lag) * h for j in range(first, M + 1)]
    lead = times[0] > base_time
    if lead:
        times.insert(0, base_time)

    def forcing(t):  # the delayed term, read from the history on [base_time - 1, base_time]
        return _nodes_eval(hist, (t - base_time) * M)

    out = _integrate(driver, times, z0, forcing)
    if lead:
        out = out[1:]
    if first:
        out = np.concatenate([[_nodes_eval(hist, j + shift) for j in range(first)], out])
    flat = out.reshape(-1, K)
    result = flat if fiber_kind == "continuous" else np.vstack([out[-1], flat])
    return result[:, 0] if squeeze else result


@dataclass
class UnitStepOperator:
    """Dense matrix of the one-unit-time solution operator on a fiber."""

    fiber_kind: str
    base_time: float
    grid: GridSpec
    dimension: int
    matrix: np.ndarray

    def to_csv(self, path) -> None:
        np.savetxt(path, self.matrix, delimiter=",")


def assemble_unit_operator(
    driver: Driver, base_time: float, fiber_kind: str, grid: GridSpec
) -> UnitStepOperator:
    """Dense unit-step matrix: columns are images of coordinate basis segments."""
    d = fiber_dim(grid, driver.dimension, fiber_kind)
    matrix = unit_step_block(driver, base_time, fiber_kind, np.eye(d), grid)
    return UnitStepOperator(fiber_kind, base_time, grid, driver.dimension, matrix)


def _simpson_weights(grid: GridSpec) -> np.ndarray:
    if grid.M % 2 != 0:
        raise ValueError("Simpson weighting needs an even number of subintervals")
    w = np.full(grid.M + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (grid.h / 3.0)


def lc_operator_singular_values(driver: Driver, base_time: float, grid: GridSpec) -> np.ndarray:
    """Singular values of the one-step pair-to-continuous operator.

    Measured between the integral inner products (Euclidean head plus
    Simpson-weighted L2 density in; Simpson-weighted L2 segment out) so the
    values converge under grid refinement instead of scaling with node count.
    The decay profile is the computable stand-in for compactness of the
    smoothing step.
    """
    N = driver.dimension
    op = assemble_unit_operator(driver, base_time, "lp", grid)
    K = op.matrix[N:, :]  # density block: the continuous segment after one span
    w = _simpson_weights(grid)
    sq = np.sqrt(np.repeat(w, N))
    w_out = sq
    w_in = np.concatenate([np.ones(N), sq])
    weighted = (w_out[:, None] * K) / w_in[None, :]
    return np.linalg.svd(weighted, compute_uv=False)
