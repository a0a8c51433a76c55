"""Solution operators for z'(t) = A(t) z(t) + B(t) z(t-1) on the segment fibers.

One block step advances a segment by any span 0 < f <= 1, the unit step
being f = 1.  It is the method of steps: over the span the delayed term is
known forcing read from the stored segment nodes, so the equation reduces to
a linear ODE integrated with fixed-step classical Runge-Kutta straight onto
the shifted output nodes; output nodes still inside the old segment are read
from its nodes.  Stage values of the history between nodes come from local
cubic interpolation.  The integration pieces are the gaps between output
nodes, split at the switch times of piecewise-constant drivers so no piece
straddles a coefficient jump.  Since the ODE is linear, each RK4 piece is an
affine map z -> R_p z + c_p: the R_p and the delay-forcing gains of all
pieces come from one batched RK4 pass over coefficients sampled at once, the
c_p from the interpolation stencil applied to the stored history, and one
loop chains the maps onto the output nodes.  Both fibers share the one step,
which makes the intertwining of the embedding with the unit steps exact at
the discrete level, and makes integer-time cocycle composition exact by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import Driver, spectral_norms
from .fibers import ContinuousSegment, GridSpec, LpSegment, fiber_dim, trapezoid_weights

__all__ = [
    "FundamentalMatrix",
    "StepBounds",
    "UnitStepOperator",
    "fundamental_matrix",
    "step_bounds",
    "orbit_step_bounds",
    "unit_step_c",
    "unit_step_l",
    "unit_step_block",
    "propagate",
    "evolve_l_to_c",
    "assemble_unit_operator",
]

_TIME_EPS = 1e-12
_BLOCK_FLOATS = 12288  # 96 KiB of doubles, the cap on each stage-forcing temporary


def _cubic_weights(t):
    # Lagrange weights on 4 consecutive integer abscissae, local coordinate t in [0, 3]
    return (
        -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
        t * (t - 2.0) * (t - 3.0) / 2.0,
        -t * (t - 1.0) * (t - 3.0) / 2.0,
        t * (t - 1.0) * (t - 2.0) / 6.0,
    )


def _nodes_eval(values: np.ndarray, xi) -> np.ndarray:
    """Evaluate nodal data at fractional indices xi by local cubic interpolation.

    `values` has node-major shape (n_nodes, ...); xi = 0 .. n_nodes - 1 is a
    scalar or an array, whose shape then leads the result's.  Exact whenever
    xi is an integer.
    """
    last = values.shape[0] - 1
    xi = np.clip(xi, 0.0, float(last))
    i0 = np.clip(np.floor(xi).astype(int) - 1, 0, last - 3)
    pad = (...,) + (None,) * (values.ndim - 1)
    return sum(w[pad] * values[i0 + j] for j, w in enumerate(_cubic_weights(xi - i0)))


def _rk4(A_a, A_m, A_b, delta, z, g_a=0.0, g_m=0.0, g_b=0.0):
    """One classical RK4 step of z' = A(t) z + g(t), batched over leading axes."""
    k1 = A_a @ z + g_a
    k2 = A_m @ (z + 0.5 * delta * k1) + g_m
    k3 = A_m @ (z + 0.5 * delta * k2) + g_m
    k4 = A_b @ (z + delta * k3) + g_b
    return z + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pieces(driver, times):
    """Integration pieces over the breakpoints `times`: their ends and the breakpoint each ends on.

    A 2-D `times` holds one span per row, the rows laid end to end in time;
    the pieces then run over the flattened breakpoints, including the joins
    between spans, which the caller drops.  The gaps between breakpoints are
    split at the driver's switch times, from one `switch_times_in` call,
    dropping cuts within _TIME_EPS of a breakpoint and skipping split pieces
    shorter than that; `rows` is -1 for a piece that ends on a cut.  Raises
    ValueError when the largest gap within a span times the driver's bound
    on |A(t)| exceeds 2, where fixed-step RK4 leaves its stability region
    and returns confident wrong rates.
    """
    h = float(np.max(np.diff(times)))
    if h * driver.a_bound > 2.0:
        raise ValueError(
            f"RK4 step {h:.4g} times the bound {driver.a_bound:.4g} on |A(t)| is "
            f"{h * driver.a_bound:.3g} > 2, outside the stability region; "
            f"raise grid.M to at least {math.ceil(driver.a_bound / 2.0)}"
        )
    times = times.ravel()
    cuts = driver.switch_times_in(times[0] + _TIME_EPS, times[-1] - _TIME_EPS)
    at = np.searchsorted(times, cuts)
    inner = (cuts > times[at - 1] + _TIME_EPS) & (cuts < times[at] - _TIME_EPS)
    edges = np.insert(times, at[inner], cuts[inner])
    rows = np.insert(np.arange(len(times)), at[inner], -1)[1:]
    lo, hi = edges[:-1], edges[1:]
    live = (hi - lo >= _TIME_EPS) | (rows >= 0)
    return lo[live], hi[live], rows[live]


def _stages(driver, lo, hi):
    """Midpoints and widths of the pieces [lo, hi], and A and B at their three RK4 stage times."""
    mid = 0.5 * (lo + hi)
    delta = (hi - lo)[:, None, None]
    if driver.piecewise_constant:
        A_m, B_m = driver.matrices_at(mid)
        return mid, delta, (A_m, A_m, A_m), (B_m, B_m, B_m)
    A, B = driver.matrices_at(np.concatenate([lo, mid, hi]))
    return mid, delta, np.split(A, 3), np.split(B, 3)


def _integrate(driver, times, z0: np.ndarray, forcing) -> np.ndarray:
    """Solution of z' = A(t) z + B(t) y(t) at every breakpoint of `times`; row 0 is z0.

    `forcing` maps an array of times to the stacked delayed values y(t),
    shaped like z0.  On each piece p of `_pieces` one RK4 step is an affine
    map z -> R_p z + c_p: R_p is RK4 applied to the identity, and
    c_p = [C_a B_a | C_m B_m | C_b B_b] [y_a; y_m; y_b] over the piece's
    stage times, the gains coming from the same batched RK4 pass.  The c_p
    are built in blocks small enough that no temporary reaches glibc's
    128 KiB mmap threshold; one loop then chains the maps.
    """
    times = np.asarray(times, dtype=float)
    lo, hi, rows = _pieces(driver, times)
    rows = rows.tolist()
    mid, delta, (A_a, A_m, A_b), (B_a, B_m, B_b) = _stages(driver, lo, hi)

    N = z0.shape[0]
    O = np.zeros(B_m.shape)
    T = _rk4(
        A_a, A_m, A_b, delta,
        np.concatenate([np.broadcast_to(np.eye(N), O.shape), O, O, O], axis=2),
        np.concatenate([O, B_a, O, O], axis=2),
        np.concatenate([O, O, B_m, O], axis=2),
        np.concatenate([O, O, O, B_b], axis=2),
    )
    R, gains = T[:, :, :N], T[:, :, N:]
    stage_times = np.stack([lo, mid, hi], axis=1)
    block = max(1, _BLOCK_FLOATS // (3 * z0.size))

    out = np.empty((len(times),) + z0.shape)
    out[0] = z = z0
    for s in range(0, len(lo), block):
        y = forcing(stage_times[s : s + block].ravel())
        c = gains[s : s + block] @ y.reshape((-1, 3 * N) + z0.shape[1:])
        for R_p, c_p, row in zip(R[s : s + block], c, rows[s : s + block]):
            z = R_p @ z + c_p
            if row >= 0:
                out[row] = z
    return out


def _flows(driver, times: np.ndarray) -> np.ndarray:
    """Fundamental matrices of z' = A(t) z from the first node of each span to each of its nodes.

    `times` has shape (S, n), one span per row, the rows in increasing time;
    consecutive spans may touch, up to roundoff.  The result has shape
    (S, n, N, N) and is I in column 0.  The pieces of all spans come from one
    `_pieces` call over the flattened breakpoints; pieces that end on a
    span's first node, and pieces that lie between spans, are dropped.  The
    rest are laid out position-major, short spans padded with identity maps,
    so one loop chains every span's RK4 maps at once; the states at the
    breakpoints are gathered at the end.
    """
    S, n = times.shape
    N = driver.dimension
    lo, hi, rows = _pieces(driver, times)
    node = rows >= 0  # every breakpoint after the first ends exactly one piece, in order
    ends = np.cumsum(node) + ~node  # the breakpoint each piece ends on, or the next after its cut
    keep = ends % n != 0
    lo, hi, node, span = lo[keep], hi[keep], node[keep], ends[keep] // n
    count = np.bincount(span, minlength=S)
    pos = np.arange(len(span)) - (np.cumsum(count) - count)[span]
    _, delta, (A_a, A_m, A_b), _ = _stages(driver, lo, hi)
    R = np.broadcast_to(np.eye(N), (count.max(), S, N, N)).copy()
    R[pos, span] = _rk4(A_a, A_m, A_b, delta, np.eye(N))
    Z = np.empty((len(R) + 1, S, N, N))
    Z[0] = np.eye(N)
    for p, R_p in enumerate(R):
        np.matmul(R_p, Z[p], out=Z[p + 1])
    at = np.zeros((S, n), dtype=int)
    at[:, 1:] = (pos[node] + 1).reshape(S, n - 1)
    return Z[at, np.arange(S)[:, None]]


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
    Z = np.eye(driver.dimension)
    if t2 > t1:
        n = substeps if substeps is not None else max(1, int(math.ceil((t2 - t1) * 64 - _TIME_EPS)))
        h = (t2 - t1) / n
        Z = _flows(driver, t1 + np.arange(n + 1)[None] * h)[0, -1]
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
    """The growth constants c, d and c_upper of the unit step from base_time.

    c and d are the one-base case of `orbit_step_bounds`; c_upper is
    exp of the integral of |A(t)| over [base_time, base_time + 1].
    """
    c, d = orbit_step_bounds(driver, np.array([base_time], dtype=float), grid)
    c_upper = float(np.exp(driver.a_integral(base_time, base_time + 1.0)))
    return StepBounds(c=float(c[0]), d=float(d[0]), c_upper=c_upper)


def orbit_step_bounds(driver: Driver, base_times: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The growth constants c and d of the unit steps from each of the base times.

    `base_times` is a 1-D array whose entries increase by at least one unit,
    so that the unit spans do not overlap.  c is the largest spectral norm,
    floored at 1, of the flows Phi(t_j) Phi(t_i)^-1 between grid times
    t_i < t_j of a unit span, the fundamental matrices Phi coming from one
    `_flows` call per block of bases; d is the trapezoid q-norm of |B(t)| on
    the grid.  Blocks are sized so that the pair temporaries stay within
    _BLOCK_FLOATS, below glibc's 128 KiB mmap threshold.
    """
    base_times = np.asarray(base_times, dtype=float)
    if np.any(np.diff(base_times) < 1.0):
        raise ValueError("base times must increase by at least one unit, so that the unit spans do not overlap")
    driver._check_inside(base_times[0])
    driver._check_inside(base_times[-1] + 1.0)
    M, h, N, q = grid.M, grid.h, driver.dimension, driver.spec.q
    nodes = np.arange(M + 1) * h
    lo, hi = np.triu_indices(M + 1, k=1)
    w = trapezoid_weights(grid)
    c, d = np.empty(len(base_times)), np.empty(len(base_times))
    block = max(1, _BLOCK_FLOATS // (len(lo) * N * N))
    for s in range(0, len(base_times), block):
        span = base_times[s : s + block, None] + nodes
        phis = _flows(driver, span)
        pairs = phis[:, hi] @ np.linalg.inv(phis)[:, lo]  # flow over [t_lo, t_hi] by composition
        c[s : s + block] = np.maximum(1.0, spectral_norms(pairs).max(axis=1))
        bq = spectral_norms(driver.matrices_at(span.ravel())[1]).reshape(span.shape) ** q
        d[s : s + block] = np.sum(w * bq, axis=1) ** (1.0 / q)
    return c, d


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

    The fractional part of t is one block step over that fraction; whole
    spans are unit steps, so integer times compose unit steps exactly.  The
    fraction goes first, except that pair-fiber input with t > 1 takes one
    whole span before it: that span smooths the jump between head and
    density, which later steps would otherwise re-interpolate between nodes.
    The window [base_time, base_time + t] is checked once, before any step.
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
    if frac > 0.0 and steps > 0 and isinstance(u, LpSegment):
        cur = unit_step_l(driver, pos, cur)
        pos += 1.0
        steps -= 1
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

    After one delay span the state lies in the embedded range, where the
    embedding intertwines the two fibers' steps exactly; the result is the
    density of the pair-fiber semiflow.
    """
    if t < 1.0 - _TIME_EPS:
        raise ValueError(f"continuous output needs t >= 1, got {t}")
    return ContinuousSegment(u.grid, propagate(driver, base_time, u, t).density)


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
    times = base_time + (np.arange(first, M + 1) + lag) * h
    lead = times[0] > base_time
    if lead:
        times = np.insert(times, 0, base_time)

    def forcing(ts):  # the delayed term, read from the history on [base_time - 1, base_time]
        return _nodes_eval(hist, (ts - base_time) * M)

    out = _integrate(driver, times, z0, forcing)
    if lead:
        out = out[1:]
    if first:
        out = np.concatenate([_nodes_eval(hist, np.arange(first) + shift), out])
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
