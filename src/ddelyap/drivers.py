"""Seeded, bidirectionally evaluable coefficient paths t -> (A(t), B(t)).

A driver realizes one sample path of the base flow as concrete matrix
coefficients for z'(t) = A(t) z(t) + B(t) z(t-1) on a finite window of the
real line.  Three kinds are provided: constant, quasi-periodic (trigonometric
polynomial), and telegraph (continuous-time Markov chain over finitely many
matrix states).  Realization is a pure function of (spec, window): equal
inputs give bit-identical paths, and re-realizing on a shifted window agrees
on the overlap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DriverSpec",
    "CoefficientSample",
    "Driver",
    "realize",
    "summability_report",
    "stationary_distribution",
]

_SEED_MASK = (1 << 64) - 1


def _stream(seed: int, tag: int) -> np.random.Generator:
    """Independent counter-based stream, deterministic in (seed, tag)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed & _SEED_MASK, tag])))


def spectral_norms(P: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack of N x N matrices, shape (..., N, N) -> (...).

    For N = 2, with P = [[a, b], [c, d]], the singular values satisfy
    s1 + s2 = |(a + d, c - b)| and s1 - s2 = |(a - d, b + c)|, so s1 is half
    the sum of two hypotenuses: both are nonnegative, so nothing cancels, and
    hypot does not square its arguments, so 1e+-150 scales neither overflow
    nor underflow.  Other N go through an SVD.
    """
    P = np.asarray(P, dtype=float)
    if P.shape[-2:] != (2, 2):
        return np.linalg.norm(P, ord=2, axis=(-2, -1))
    a, b, c, d = P[..., 0, 0], P[..., 0, 1], P[..., 1, 0], P[..., 1, 1]
    return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))


def spectral_norm(A: np.ndarray) -> float:
    return float(spectral_norms(A))


@dataclass(frozen=True)
class DriverSpec:
    """Which coefficient path to realize.

    kind-specific entries of `params`:
      constant:       A0, B0 (N x N)
      quasi_periodic: freqs (F,), a0, b0 (N x N), a_cos, a_sin, b_cos, b_sin (F x N x N)
      telegraph:      states (list of (A_j, B_j)), generator (S x S CTMC generator)
    """

    kind: str
    dimension: int
    params: dict
    seed: int = 0
    p: float = 2.0

    def __post_init__(self):
        validate_spec(self)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class CoefficientSample:
    t: float
    A: np.ndarray
    B: np.ndarray
    a: float
    b: float


def _as_matrix(value, N: int, name: str) -> np.ndarray:
    M = np.asarray(value, dtype=float)
    if M.shape != (N, N):
        raise ValueError(f"{name} must be {N}x{N}, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def validate_spec(spec: DriverSpec) -> None:
    if spec.dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {spec.dimension}")
    if spec.dimension == 1:
        warnings.warn(
            "dimension N=1 accepted, though delay-cocycle results are usually "
            "stated for systems of dimension N >= 2",
            stacklevel=3,
        )
    if not (1.0 < spec.p < np.inf):
        raise ValueError(f"p must lie in (1, inf), got {spec.p}")
    N = spec.dimension
    kind, prm = spec.kind, spec.params
    if kind == "constant":
        _as_matrix(prm["A0"], N, "params.A0")
        _as_matrix(prm["B0"], N, "params.B0")
    elif kind == "quasi_periodic":
        freqs = np.asarray(prm["freqs"], dtype=float)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("params.freqs must be a nonempty vector")
        if np.any(freqs == 0.0):
            raise ValueError("params.freqs must have no zero entry")
        for name in ("a0", "b0"):
            _as_matrix(prm[name], N, f"params.{name}")
        for name in ("a_cos", "a_sin", "b_cos", "b_sin"):
            arr = np.asarray(prm[name], dtype=float)
            if arr.shape != (freqs.size, N, N):
                raise ValueError(
                    f"params.{name} must have shape (F, N, N) = ({freqs.size}, {N}, {N})"
                )
    elif kind == "telegraph":
        states = prm["states"]
        if len(states) == 0:
            raise ValueError("params.states must be nonempty")
        for j, (Aj, Bj) in enumerate(states):
            _as_matrix(Aj, N, f"params.states[{j}][0]")
            _as_matrix(Bj, N, f"params.states[{j}][1]")
        G = np.asarray(prm["generator"], dtype=float)
        S = len(states)
        if G.shape != (S, S):
            raise ValueError(f"params.generator must be {S}x{S}, got {G.shape}")
        off = G.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("params.generator off-diagonal entries must be >= 0")
        if np.max(np.abs(G.sum(axis=1))) > 1e-12:
            raise ValueError("params.generator rows must sum to 0")
        _check_irreducible(G)
    else:
        raise ValueError(f"unknown driver kind {kind!r}")


def _check_irreducible(G: np.ndarray) -> None:
    """Raise unless every state of the chain reaches every other one.

    A reducible chain has many stationary laws and non-ergodic paths.
    """
    S = G.shape[0]
    reach = (G > 0) | np.eye(S, dtype=bool)
    for _ in range(max(1, S - 1).bit_length()):  # path lengths double per squaring
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    if not reach.all():
        raise ValueError("params.generator must be irreducible: every state must reach every other")


def stationary_distribution(generator: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible CTMC generator: the normalized left null vector."""
    G = np.asarray(generator, dtype=float)
    _check_irreducible(G)
    S = G.shape[0]
    if S == 1:
        return np.ones(1)
    # solve pi G = 0 with sum(pi) = 1 as a least-squares system
    A = np.vstack([G.T, np.ones(S)])
    rhs = np.zeros(S + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


class Driver:
    """Realized coefficient path on a fixed window; immutable after realization."""

    #: coefficients constant between switch times (integrator stage handling)
    piecewise_constant = False
    #: upper bound on the spectral norm of A(t) over the whole path
    a_bound: float

    def __init__(self, spec: DriverSpec, window: tuple[float, float]):
        t_min, t_max = float(window[0]), float(window[1])
        if not (np.isfinite(t_min) and np.isfinite(t_max)) or not t_min < t_max:
            raise ValueError(f"window must be finite with t_min < t_max, got {window}")
        self.spec = spec
        self.window = (t_min, t_max)

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def _check_inside(self, t: float) -> None:
        lo, hi = self.window
        if not (lo - 1e-9 <= t <= hi + 1e-9):
            raise ValueError(f"time {t} outside realized window {self.window}")

    def matrices(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        A, B = self.matrices_at(np.array([t], dtype=float))
        return A[0], B[0]

    def matrices_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A and B at every time of the 1-D array ts, each stacked to shape (len(ts), N, N)."""
        raise NotImplementedError

    def coefficients(self, t: float) -> CoefficientSample:
        self._check_inside(t)
        A, B = self.matrices(t)
        return CoefficientSample(t, A, B, spectral_norm(A), spectral_norm(B))

    def switch_times_in(self, t0: float, t1: float) -> np.ndarray:
        """Interior discontinuity times of the coefficients; empty when smooth."""
        return np.empty(0)

    def a_integral(self, t0: float, t1: float) -> float:
        """Integral of the A-norm over [t0, t1]."""
        raise NotImplementedError

    def shifted(self, s: float) -> "Driver":
        """The path re-based at s: shifted.coefficients(t) == self.coefficients(s + t)."""
        return _ShiftedDriver(self, s)


class _ShiftedDriver(Driver):
    def __init__(self, base: Driver, s: float):
        self._base = base
        self._s = float(s)
        self.spec = base.spec
        self.window = (base.window[0] - self._s, base.window[1] - self._s)

    @property
    def piecewise_constant(self):
        return self._base.piecewise_constant

    @property
    def a_bound(self):
        return self._base.a_bound

    def matrices_at(self, ts):
        return self._base.matrices_at(ts + self._s)

    def switch_times_in(self, t0, t1):
        return self._base.switch_times_in(t0 + self._s, t1 + self._s) - self._s

    def a_integral(self, t0, t1):
        return self._base.a_integral(t0 + self._s, t1 + self._s)

    def shifted(self, s):
        return _ShiftedDriver(self._base, self._s + s)


class ConstantDriver(Driver):
    piecewise_constant = True

    def __init__(self, spec, window):
        super().__init__(spec, window)
        self._A = _as_matrix(spec.params["A0"], spec.dimension, "A0")
        self._B = _as_matrix(spec.params["B0"], spec.dimension, "B0")
        self.a_bound = spectral_norm(self._A)

    def matrices_at(self, ts):
        shape = (len(ts),) + self._A.shape
        return np.broadcast_to(self._A, shape), np.broadcast_to(self._B, shape)

    def a_integral(self, t0, t1):
        return self.a_bound * (t1 - t0)

    def shifted(self, s):
        return self


class QuasiPeriodicDriver(Driver):
    def __init__(self, spec, window):
        super().__init__(spec, window)
        prm = spec.params
        self._freqs = np.asarray(prm["freqs"], dtype=float)
        self._a0 = np.asarray(prm["a0"], dtype=float)
        self._b0 = np.asarray(prm["b0"], dtype=float)
        a_trig = np.concatenate([prm["a_cos"], prm["a_sin"]]).astype(float)
        b_trig = np.concatenate([prm["b_cos"], prm["b_sin"]]).astype(float)
        # (2F, 2, N, N): cos then sin rows, A then B coefficients
        self._trig = np.stack([a_trig, b_trig], axis=1)
        self.a_bound = spectral_norm(self._a0) + sum(spectral_norm(m) for m in a_trig)

    def matrices_at(self, ts):
        wt = np.multiply.outer(ts, self._freqs)
        AB = np.tensordot(np.concatenate([np.cos(wt), np.sin(wt)], axis=1), self._trig, axes=1)
        return self._a0 + AB[:, 0], self._b0 + AB[:, 1]

    def a_integral(self, t0, t1, resolution: int = 256):
        n = max(4, int(np.ceil((t1 - t0) * resolution)))
        ts = np.linspace(t0, t1, n + 1)
        vals = spectral_norms(self.matrices_at(ts)[0])
        return float(np.trapezoid(vals, ts))


class TelegraphDriver(Driver):
    """Markov-switched coefficients with the full switch sequence pre-drawn.

    The path is anchored at time 0: the state there is drawn from the
    stationary law, forward switches from one stream, backward switches from
    an independent stream driving the time-reversed chain.  Events therefore
    depend only on (seed, event index), never on the requested window, which
    is what makes overlapping realizations agree.
    """

    piecewise_constant = True

    def __init__(self, spec, window):
        super().__init__(spec, window)
        prm = spec.params
        self._A_states = np.array([A for A, _ in prm["states"]], dtype=float)
        self._B_states = np.array([B for _, B in prm["states"]], dtype=float)
        self._G = np.asarray(prm["generator"], dtype=float)
        self._a_states = spectral_norms(self._A_states)
        self.a_bound = float(self._a_states.max())
        self._pi = stationary_distribution(self._G)
        self._draw_path()

    def _jump_matrix(self, G):
        S = G.shape[0]
        rates = -np.diag(G)
        P = np.zeros((S, S))
        for j in range(S):
            if rates[j] > 0:
                P[j] = G[j] / rates[j]
                P[j, j] = 0.0
        return rates, P

    def _draw_path(self):
        S = len(self._A_states)
        rates, P_fwd = self._jump_matrix(self._G)
        # reversed-chain generator: same rates, jump law reweighted by pi
        G_rev = (self._G.T * self._pi[None, :]) / np.maximum(self._pi[:, None], 1e-300)
        np.fill_diagonal(G_rev, 0.0)
        np.fill_diagonal(G_rev, -G_rev.sum(axis=1))
        _, P_bwd = self._jump_matrix(G_rev)

        seed = self.spec.seed
        state0 = int(_stream(seed, 0).choice(S, p=self._pi)) if S > 1 else 0
        t_lo, t_hi = self.window

        fwd_times, fwd_states = [], []
        rng = _stream(seed, 1)
        t, state = 0.0, state0
        while t <= max(t_hi, 0.0):
            if rates[state] <= 0.0:
                break
            t += rng.exponential(1.0 / rates[state])
            state = int(rng.choice(S, p=P_fwd[state]))
            fwd_times.append(t)
            fwd_states.append(state)

        bwd_times, bwd_states = [], []
        rng = _stream(seed, 2)
        t, state = 0.0, state0
        while t >= min(t_lo, 0.0):
            if rates[state] <= 0.0:
                break
            t -= rng.exponential(1.0 / rates[state])
            state = int(rng.choice(S, p=P_bwd[state]))
            bwd_times.append(t)
            bwd_states.append(state)

        # states[i] holds on [switch_times[i-1], switch_times[i]); right-continuous
        self.switch_times = np.array(list(reversed(bwd_times)) + fwd_times)
        self.states = np.array(
            list(reversed(bwd_states)) + [state0] + fwd_states, dtype=int
        )

    def state_at(self, t: float) -> int:
        idx = int(np.searchsorted(self.switch_times, t, side="right"))
        return int(self.states[idx])

    def matrices_at(self, ts):
        j = self.states[np.searchsorted(self.switch_times, ts, side="right")]
        return self._A_states[j], self._B_states[j]

    def switch_times_in(self, t0, t1):
        i = np.searchsorted(self.switch_times, t0, side="right")
        j = np.searchsorted(self.switch_times, t1, side="left")
        return self.switch_times[i:j]

    def _piecewise_integral(self, values: np.ndarray, t0: float, t1: float) -> float:
        cuts = np.concatenate([[t0], self.switch_times_in(t0, t1), [t1]])
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += values[self.state_at((lo + hi) / 2.0)] * (hi - lo)
        return total

    def a_integral(self, t0, t1):
        return self._piecewise_integral(self._a_states, t0, t1)


_DRIVER_CLASSES = {
    "constant": ConstantDriver,
    "quasi_periodic": QuasiPeriodicDriver,
    "telegraph": TelegraphDriver,
}


def realize(spec: DriverSpec, window: tuple[float, float]) -> Driver:
    """Materialize one coefficient path of `spec` on `window`."""
    return _DRIVER_CLASSES[spec.kind](spec, window)


def summability_report(driver: Driver, horizon: float, resolution: int = 128) -> dict:
    """Empirical stand-ins for the coefficient summability assumptions.

    Reports the time average of the A-norm over [0, horizon] and the average
    over unit cells [r, r+1] of ln+ of the integrated q-th power of the
    B-norm, plus the observed maxima.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    lo, hi = driver.window
    if not (lo <= 0.0 and horizon <= hi + 1e-9):
        raise ValueError(f"[0, {horizon}] not inside driver window {driver.window}")
    q = driver.spec.q

    n = int(np.ceil(horizon * resolution))
    A, B = driver.matrices_at(np.linspace(0.0, horizon, n + 1))
    mean_a = driver.a_integral(0.0, horizon) / horizon

    starts = np.arange(max(int(np.floor(horizon)), 1), dtype=float)
    t_cell = np.linspace(starts, np.minimum(starts + 1.0, horizon), max(resolution, 8) + 1, axis=1)
    b_cell = driver.matrices_at(t_cell.ravel())[1]
    bq = spectral_norms(b_cell).reshape(t_cell.shape) ** q
    integrals = np.trapezoid(bq, t_cell, axis=1)
    return {
        "mean_a": float(mean_a),
        "mean_lnplus_int_bq": float(np.mean(np.log(np.maximum(integrals, 1.0)))),
        "max_a": float(np.max(spectral_norms(A))),
        "max_b": float(np.max(spectral_norms(B))),
    }
