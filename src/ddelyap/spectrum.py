"""Lyapunov spectra, Oseledets frames, and the two-fiber comparison.

Exponents come from the discrete QR method: push an orthonormal probe block
through the unit-step cocycle, re-orthonormalize periodically, and average the
logs of the R diagonals.  Filtration subspaces at a given time are the
trailing right singular directions of a long forward operator product started
there.  Covariant subspaces are built by the forward-push/backward-filtration
intersection: a block pushed up from a negative time spans the sums of the
fast Oseledets spaces, and cutting with the filtration isolates each one.
The construction deliberately avoids adjoint/dual cocycles, which delay
systems do not provide in usable form; the push history is retained so each
covariant vector carries the negative semiorbit that produced it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from scipy.linalg import solve_triangular

from .drivers import Driver, _stream
from .fibers import (
    GridSpec,
    SubspaceFrame,
    containment_angle,
    embedding_matrix,
    fiber_dim,
    orthonormalize,
    principal_angles,
    subspace_intersection,
)
from .propagation import assemble_unit_operator, orbit_step_bounds, unit_step_block

__all__ = [
    "SpectrumConfig",
    "TopExponent",
    "QRSpectrum",
    "SpectrumReport",
    "ComparisonReport",
    "top_exponent",
    "qr_spectrum",
    "oseledets_frames",
    "vector_growth_rate",
    "temperedness_check",
    "step_bound_slopes",
    "compare_fibers",
    "required_window",
]

_PROBE_TAGS = {"continuous": 11, "lp": 13}


@dataclass(frozen=True)
class SpectrumConfig:
    """Controls for the orbit length and subspace windows of one estimation run.

    floor_rate is the per-unit-step log rate below which a direction is
    reported as indistinguishable from a super-exponentially dying one; the
    finite floor stands in for a rate of minus infinity, which no finite run
    can certify.  Pick k so whole multiplicity groups fit inside the block:
    a complex pair cut at the block edge averages in only like 1/horizon.
    """

    k: int
    horizon: int
    renorm_every: int = 1
    transient: int | None = None
    push_steps: int = 80
    filtration_steps: int = 60
    gap_tol: float | None = None
    floor_rate: float = -20.0
    sample_times: tuple[int, ...] = (0, 1)
    probe_seed: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.renorm_every < 1:
            raise ValueError("renorm_every must be >= 1")
        if self.horizon < self.renorm_every:
            raise ValueError("horizon must cover at least one renormalization")
        if self.effective_transient >= self.horizon:
            raise ValueError("transient must be smaller than horizon")
        if self.push_steps < 4 or self.filtration_steps < 2:
            raise ValueError("push_steps and filtration_steps are too small to converge")

    @property
    def effective_transient(self) -> int:
        if self.transient is not None:
            return self.transient
        return max(self.renorm_every, self.horizon // 10)


def required_window(config: SpectrumConfig) -> tuple[float, float]:
    """Driver window an estimation run needs around base time 0."""
    hi = max(config.horizon, max(config.sample_times) + config.filtration_steps) + 2.0
    return (-(config.push_steps + 2.0), float(hi))


def probe_block(driver: Driver, fiber_kind: str, grid: GridSpec, k: int, seed: int | None = None) -> np.ndarray:
    """Seeded orthonormal probe block, independent stream per fiber."""
    d = fiber_dim(grid, driver.dimension, fiber_kind)
    if k > d:
        raise ValueError(f"probe size {k} exceeds fiber dimension {d}")
    return _seeded_block(driver, fiber_kind, grid, driver.spec.seed if seed is None else seed, 0, k)


def _seeded_block(driver, fiber_kind, grid, seed, tag, width):
    """Orthonormal block from a Gaussian draw, independent stream per tag and fiber."""
    d = fiber_dim(grid, driver.dimension, fiber_kind)
    rng = _stream(seed, tag + _PROBE_TAGS[fiber_kind])
    return orthonormalize(rng.standard_normal((d, width))).vectors


def _signed_qr(B: np.ndarray):
    Q, R = np.linalg.qr(B)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, np.abs(np.diag(R)), R * signs[:, None]


@dataclass
class TopExponent:
    value: float
    drift: float
    series: np.ndarray


@dataclass
class QRSpectrum:
    exponents: np.ndarray
    drifts: np.ndarray
    floor_flags: np.ndarray
    groups: list[dict]
    series: np.ndarray
    record_steps: np.ndarray
    reseeds: int
    gap_tol: float


def _push(driver, fiber_kind, grid, Q, t0, steps, stage, every=1):
    """Push a block through `steps` unit steps from time t0, QR every `every` steps.

    Yields (t, Q, R) after each QR, t being the time reached; R has a
    nonnegative diagonal.  A caller may overwrite columns of the yielded Q in
    place to reseed the push.  Raises ValueError naming `stage` and the time
    when a unit step returns a non-finite block.
    """
    driver._check_inside(t0)
    driver._check_inside(t0 + steps)
    t = t0
    for step in range(steps):
        Q = unit_step_block(driver, t, fiber_kind, Q, grid)
        if not np.all(np.isfinite(Q)):
            raise ValueError(f"{stage}: the unit step from t = {t} gave a non-finite block")
        t += 1
        if (step + 1) % every == 0:
            Q, _, R = _signed_qr(Q)
            yield t, Q, R


def _exponents_from_records(records, transient_records, floor_rate, renorm_every):
    post = records[transient_records:]
    if len(post) == 0:
        raise ValueError("no records past the transient; increase horizon")
    per_step = post / renorm_every
    expo = per_step.mean(axis=0)
    half = per_step[len(per_step) // 2 :]
    drift = np.abs(half.mean(axis=0) - expo)
    running = np.cumsum(per_step, axis=0) / np.arange(1, len(per_step) + 1)[:, None]
    floor_flags = expo <= floor_rate * 0.999
    return expo, drift, running, floor_flags


def _group_exponents(sorted_vals, sorted_drifts, floor_flags, gap_tol):
    """Merge sorted exponents within gap_tol.

    Adjacent groups closer than the convergence resolution (a few times the
    summed drifts) are flagged unresolved rather than silently merged.
    """
    groups = []
    i = 0
    while i < len(sorted_vals):
        if floor_flags[i]:
            break
        j = i
        while j + 1 < len(sorted_vals) and not floor_flags[j + 1] and sorted_vals[i] - sorted_vals[j + 1] < gap_tol:
            j += 1
        groups.append(
            {
                "value": float(np.mean(sorted_vals[i : j + 1])),
                "multiplicity": j - i + 1,
                "indices": list(range(i, j + 1)),
                "drift": float(np.max(sorted_drifts[i : j + 1])),
                "unresolved": False,
            }
        )
        i = j + 1
    for a, b in zip(groups[:-1], groups[1:]):
        if a["value"] - b["value"] < 3.0 * (a["drift"] + b["drift"]):
            a["unresolved"] = True
            b["unresolved"] = True
    return groups


def top_exponent(
    driver: Driver,
    fiber_kind: str,
    grid: GridSpec,
    config: SpectrumConfig,
    probe: np.ndarray | None = None,
) -> TopExponent:
    """Top exponent by power iteration of the unit-step cocycle on one probe vector.

    The drift field compares the last-window mean against the full average;
    it is a stability heuristic, not an error bound, since the underlying
    subadditive limit comes with no convergence rate.
    """
    probe = probe[:, :1] if probe is not None else None
    qr = qr_spectrum(driver, fiber_kind, grid, dataclasses.replace(config, k=1), probe=probe)
    return TopExponent(float(qr.exponents[0]), float(qr.drifts[0]), qr.series[:, 0])


def qr_spectrum(
    driver: Driver,
    fiber_kind: str,
    grid: GridSpec,
    config: SpectrumConfig,
    probe: np.ndarray | None = None,
) -> QRSpectrum:
    """Leading-k exponents by the discrete QR cocycle method."""
    if probe is None:
        probe = probe_block(driver, fiber_kind, grid, config.k, config.probe_seed)
    if probe.shape[1] != config.k:
        raise ValueError("probe block width must equal config.k")
    reseed = _stream(driver.spec.seed if config.probe_seed is None else config.probe_seed, 17)
    floor_inc = config.floor_rate * config.renorm_every
    records = []
    reseeds = 0
    for _, Q, R in _push(driver, fiber_kind, grid, probe, 0.0, config.horizon, "QR spectrum", config.renorm_every):
        with np.errstate(divide="ignore"):
            inc = np.log(np.diag(R))
        # a column at the floor is replaced by a fresh direction orthogonal to the rest
        dead = ~np.isfinite(inc) | (inc < floor_inc)
        inc[dead] = floor_inc
        if np.any(dead):
            fresh = reseed.standard_normal((Q.shape[0], int(dead.sum())))
            fresh -= Q @ (Q.T @ fresh)
            norms = np.linalg.norm(fresh, axis=0)
            good = norms > 0
            fresh[:, good] /= norms[good]
            Q[:, dead] = fresh
            reseeds += int(dead.sum())
        records.append(inc)
    records = np.array(records)
    transient_records = math.ceil(config.effective_transient / config.renorm_every)
    expo, drift, running, floor_flags = _exponents_from_records(
        records, transient_records, config.floor_rate, config.renorm_every
    )
    order = np.argsort(expo)[::-1]
    expo, drift, floor_flags = expo[order], drift[order], floor_flags[order]
    gap_tol = config.gap_tol
    if gap_tol is None:
        gap_tol = max(10.0 * float(np.max(drift[~floor_flags], initial=0.0)), 1e-3)
    groups = _group_exponents(expo, drift, floor_flags, gap_tol)
    steps = (np.arange(len(running)) + transient_records + 1) * config.renorm_every
    return QRSpectrum(
        exponents=expo,
        drifts=drift,
        floor_flags=floor_flags,
        groups=groups,
        series=running[:, order],
        record_steps=steps,
        reseeds=reseeds,
        gap_tol=float(gap_tol),
    )


class _OperatorCache:
    """Assembled unit-step matrices keyed by integer base time."""

    def __init__(self, driver, fiber_kind, grid):
        self.driver = driver
        self.fiber_kind = fiber_kind
        self.grid = grid
        self._ops: dict[int, np.ndarray] = {}

    def op(self, t: int) -> np.ndarray:
        if t not in self._ops:
            self._ops[t] = assemble_unit_operator(
                self.driver, float(t), self.fiber_kind, self.grid
            ).matrix
        return self._ops[t]


def _filtration_frames(cache: _OperatorCache, t0: int, steps: int, dims: list[int], seed: int):
    """Filtration frames at time t0 from the forward product over `steps` units.

    The leading right-singular flag of the product is computed by transpose
    power iteration with QR at every factor, which stays well conditioned
    where a single product SVD loses the deeper splits to the floating-point
    range.  F_i is the orthogonal complement of the leading D_i directions;
    the per-column log rates come back as a convergence diagnostic.
    """
    cache.driver._check_inside(t0)
    cache.driver._check_inside(t0 + steps)
    D = dims[-1]
    d = cache.op(t0).shape[0]
    G = orthonormalize(_stream(seed, 31).standard_normal((d, D))).vectors
    rates = np.zeros(D)
    for t in range(t0 + steps - 1, t0 - 1, -1):
        G = cache.op(t).T @ G
        G, diag, _ = _signed_qr(G)
        with np.errstate(divide="ignore"):
            rates += np.log(diag)
    rates /= steps
    Qfull, _ = np.linalg.qr(G, mode="complete")
    # complete QR may flip signs; re-anchor the leading columns to G itself
    frames = [
        SubspaceFrame(d, np.column_stack([G[:, Di:], Qfull[:, D:]]) if Di < D else Qfull[:, D:])
        for Di in dims
    ]
    return frames, rates


@dataclass
class SpectrumReport:
    """Exponents plus Oseledets structure at the sampled times.

    E_frames[s][i] spans the covariant space of group i at integer time s;
    F_frames[s][i] spans the filtration subspace below group i (the last
    entry standing in for the super-exponentially decaying remainder).
    """

    fiber_kind: str
    grid_m: int
    config: SpectrumConfig
    exponents: np.ndarray
    drifts: np.ndarray
    floor_flags: np.ndarray
    groups: list[dict]
    gap_tol: float
    E_frames: dict[int, list[SubspaceFrame]]
    F_frames: dict[int, list[SubspaceFrame]]
    series: np.ndarray
    record_steps: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def resolved_dims(self) -> list[int]:
        return _resolved_dims(self.groups)

    def to_dict(self) -> dict:
        return {
            "fiber_kind": self.fiber_kind,
            "grid_m": self.grid_m,
            "exponents": [float(x) for x in self.exponents],
            "drifts": [float(x) for x in self.drifts],
            "floor_flags": [bool(x) for x in self.floor_flags],
            "gap_tol": self.gap_tol,
            "groups": self.groups,
            "e_frames": {
                str(s): [f.vectors.tolist() for f in frames]
                for s, frames in self.E_frames.items()
            },
            "f_frame_dims": {
                str(s): [f.dim for f in frames] for s, frames in self.F_frames.items()
            },
            "diagnostics": _jsonable(self.diagnostics),
        }

    def series_rows(self) -> list[list[float]]:
        rows = []
        for step, est in zip(self.record_steps, self.series):
            rows.append([int(step)] + [float(x) for x in est])
        return rows


def _resolved_dims(groups) -> list[int]:
    """Cumulative multiplicities: the dimensions of the fast sums E_1 + ... + E_i."""
    return list(accumulate(g["multiplicity"] for g in groups))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def oseledets_frames(
    driver: Driver,
    fiber_kind: str,
    grid: GridSpec,
    config: SpectrumConfig,
    probe: np.ndarray | None = None,
) -> SpectrumReport:
    """Estimate exponents and the Oseledets structure at the sampled times."""
    qr = qr_spectrum(driver, fiber_kind, grid, config, probe=probe)
    sample_times = tuple(sorted(config.sample_times))
    dims = _resolved_dims(qr.groups)
    if not dims:
        raise ValueError("no exponents resolved above the floor; raise k or horizon")

    cache = _OperatorCache(driver, fiber_kind, grid)
    seed = driver.spec.seed if config.probe_seed is None else config.probe_seed
    F_frames: dict[int, list[SubspaceFrame]] = {}
    filtration_rates: dict[int, np.ndarray] = {}
    for s in sample_times:
        F_frames[s], filtration_rates[s] = _filtration_frames(
            cache, s, config.filtration_steps, dims, seed
        )

    # push an orthonormal block up from -push_steps, QR at every step
    t0 = -config.push_steps
    push_probe = _seeded_block(driver, fiber_kind, grid, seed, 23, dims[-1])
    d = push_probe.shape[0]
    Q_hist: dict[int, np.ndarray] = {}
    R_hist: dict[int, np.ndarray] = {}
    for t, Q, R in _push(driver, fiber_kind, grid, push_probe, t0, max(sample_times) - t0, "frame push"):
        Q_hist[t], R_hist[t] = Q, R

    E_frames: dict[int, list[SubspaceFrame]] = {}
    intersection_angles: dict[int, list[float]] = {}
    for s in sample_times:
        frames_s = []
        angles_s = []
        for i, g in enumerate(qr.groups):
            D_i = dims[i]
            fast = SubspaceFrame(d, Q_hist[s][:, :D_i])
            if i == 0:
                frame = SubspaceFrame(d, Q_hist[s][:, : dims[0]].copy())
                angles_s.append(0.0)
            else:
                frame, ia = subspace_intersection(
                    fast, F_frames[s][i - 1], g["multiplicity"]
                )
                angles_s.append(float(np.max(ia)))
            frames_s.append(frame)
        E_frames[s] = frames_s
        intersection_angles[s] = angles_s

    # equivariance: one unit step carries E_i(s) onto E_i(s+1)
    equivariance = {}
    for s in sample_times:
        if s + 1 not in E_frames:
            continue
        angles = []
        for i in range(len(qr.groups)):
            pushed = unit_step_block(driver, float(s), fiber_kind, E_frames[s][i].vectors, grid)
            angles.append(
                float(np.max(principal_angles(orthonormalize(pushed), E_frames[s + 1][i])))
            )
        equivariance[s] = angles

    return SpectrumReport(
        fiber_kind=fiber_kind,
        grid_m=grid.M,
        config=config,
        exponents=qr.exponents,
        drifts=qr.drifts,
        floor_flags=qr.floor_flags,
        groups=qr.groups,
        gap_tol=qr.gap_tol,
        E_frames=E_frames,
        F_frames=F_frames,
        series=qr.series,
        record_steps=qr.record_steps,
        diagnostics={
            "intersection_angles": intersection_angles,
            "equivariance_angles": equivariance,
            "filtration_rates": {s: r[: config.k] for s, r in filtration_rates.items()},
            "reseeds": qr.reseeds,
            "backward_slopes": _backward_slopes(E_frames.get(0, []), dims, Q_hist, R_hist, t0),
        },
    )


def _backward_slopes(frames, dims, Q_hist, R_hist, t0, burn_fraction: float = 0.25):
    """Regression slopes of the negative-time trajectories of the E vectors at time 0.

    Each frame is expressed in the pushed basis at time 0 and its coefficients
    are walked back through the stored triangular factors of the push.
    """
    slopes = []
    for i, frame in enumerate(frames):
        D_i = dims[i]
        k_push = Q_hist[0].shape[1]
        coeff = Q_hist[0][:, :D_i].T @ frame.vectors
        block = []
        for col in range(frame.dim):
            c = np.zeros(k_push)
            c[:D_i] = coeff[:, col]
            logs = [0.0]
            log_acc = 0.0
            for t in range(0, t0, -1):
                c = solve_triangular(R_hist[t], c, lower=False)
                n = np.linalg.norm(c)
                log_acc += math.log(n)
                c /= n
                logs.append(log_acc)
            logs = np.array(logs)
            ts = -np.arange(len(logs), dtype=float)
            burn = int(len(logs) * burn_fraction)
            keep = slice(0, len(logs) - burn)
            slope = float(np.polyfit(ts[keep], logs[keep], 1)[0])
            block.append(slope)
        slopes.append(block)
    return slopes


def vector_growth_rate(
    driver: Driver,
    fiber_kind: str,
    grid: GridSpec,
    coords: np.ndarray,
    horizon: int,
    transient: int | None = None,
    exponents: np.ndarray | None = None,
    gap_tol: float = 1e-2,
    floor_rate: float = -20.0,
):
    """Forward log-growth slope of one vector, classified to the nearest exponent.

    Returns (slope, classification) where classification is an exponent index,
    the string "-inf" for trajectories at or below the floor, or None when no
    exponent list is supplied.
    """
    x = np.asarray(coords, dtype=float)
    n0 = np.linalg.norm(x)
    if n0 == 0:
        raise ValueError("zero vector has no growth rate")
    transient = max(1, horizon // 10) if transient is None else transient
    logs = [0.0]
    acc = 0.0
    for t, _, R in _push(driver, fiber_kind, grid, (x / n0)[:, None], 0.0, horizon, "growth-rate push"):
        n = float(R[0, 0])
        if n == 0.0:
            return -np.inf, "-inf"
        acc += math.log(n)
        logs.append(acc)
        if acc / t < floor_rate:
            return -np.inf, "-inf"
    ts = np.arange(transient, horizon + 1, dtype=float)
    slope = float(np.polyfit(ts, np.array(logs)[transient:], 1)[0])
    if exponents is None:
        return slope, None
    finite = [(i, lam) for i, lam in enumerate(exponents) if np.isfinite(lam)]
    if not finite:
        return slope, "-inf"
    idx, lam = min(finite, key=lambda it: abs(it[1] - slope))
    if abs(lam - slope) > max(5.0 * gap_tol, 0.1 * abs(lam)):
        return slope, "-inf" if slope < floor_rate * 0.5 else None
    return slope, idx


def temperedness_check(
    report: SpectrumReport,
    driver: Driver,
    horizon: int,
    n_samples: int = 21,
) -> dict:
    """Slopes of ln of the Oseledets projection norms along the orbit.

    For each resolved cut i the projection onto the sum of the fast spaces
    along the filtration is rebuilt at sampled integer times; temperedness
    asks the regression slope of its log norm to vanish.
    """
    grid = GridSpec(report.grid_m)
    fiber_kind = report.fiber_kind
    config = report.config
    dims = report.resolved_dims
    cache = _OperatorCache(driver, fiber_kind, grid)
    samples = np.unique(np.linspace(0, horizon, n_samples).astype(int))

    # one continuous push provides the fast sums at every sample time
    seed = driver.spec.seed if config.probe_seed is None else config.probe_seed
    probe = _seeded_block(driver, fiber_kind, grid, seed, 29, dims[-1])
    pushed = _push(
        driver, fiber_kind, grid, probe, -config.push_steps, config.push_steps + horizon, "temperedness push"
    )
    Q_at = {t: Q for t, Q, _ in pushed if t >= 0 and t in samples}
    norms = {i: [] for i in range(len(dims))}
    conditions = []
    for s in samples:
        F_s, _ = _filtration_frames(cache, int(s), config.filtration_steps, dims, seed)
        for i, D_i in enumerate(dims):
            E_sum = Q_at[int(s)][:, :D_i]
            S = np.column_stack([E_sum, F_s[i].vectors])
            # projection onto the fast sum along the filtration
            sel = np.zeros(S.shape[1])
            sel[:D_i] = 1.0
            Sinv = np.linalg.pinv(S) if S.shape[0] != S.shape[1] else np.linalg.inv(S)
            P = (S * sel) @ Sinv
            norms[i].append(float(np.linalg.norm(P, 2)))
            if i == len(dims) - 1:
                conditions.append(float(np.linalg.cond(S)))
    slopes = {}
    for i, vals in norms.items():
        slopes[i] = float(np.polyfit(samples.astype(float), np.log(vals), 1)[0])
    return {
        "slopes": slopes,
        "samples": samples.tolist(),
        "log_norms": {i: [float(np.log(v)) for v in vals] for i, vals in norms.items()},
        "max_condition": float(np.max(conditions)),
    }


def step_bound_slopes(driver: Driver, horizon: int, grid: GridSpec, backward: bool = True) -> dict:
    """Regression slopes of ln c and ln d along the orbit, both time directions."""
    out = {}
    directions = [("forward", np.arange(0.0, horizon + 1))]
    if backward:
        directions.append(("backward", np.arange(-float(horizon), 1)))
    for name, ts in directions:
        cs, ds = orbit_step_bounds(driver, ts, grid)
        out[f"c_slope_{name}"] = float(np.polyfit(ts, np.log(cs), 1)[0])
        if np.all(ds > 0):
            out[f"d_slope_{name}"] = float(np.polyfit(ts, np.log(ds), 1)[0])
        else:
            out[f"d_slope_{name}"] = 0.0
        out[f"c_range_{name}"] = (float(cs.min()), float(cs.max()))
        out[f"d_range_{name}"] = (float(ds.min()), float(ds.max()))
    return out


@dataclass
class ComparisonReport:
    """Checks that both fibers agree: exponents, covariant frames, filtration."""

    exponent_gaps: np.ndarray
    e_angles: list[float]
    f_preimage_angles: list[float]
    f_preimage_dims: list[int]
    tolerances: dict
    flags: list[str]
    passed: dict

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        return {
            "exponent_gaps": [float(x) for x in self.exponent_gaps],
            "e_angles": [float(x) for x in self.e_angles],
            "f_preimage_angles": [float(x) for x in self.f_preimage_angles],
            "f_preimage_dims": self.f_preimage_dims,
            "tolerances": self.tolerances,
            "flags": self.flags,
            "passed": self.passed,
            "all_pass": self.all_pass,
        }


_DEFAULT_COMPARE_TOLS = {
    "exponent_gap": 2e-3,
    "e_angle": 1e-2,
    "f_preimage_angle": 1e-2,
}


def compare_fibers(
    report_c: SpectrumReport,
    report_l: SpectrumReport,
    grid: GridSpec,
    dimension: int,
    tolerances: dict | None = None,
    sample_time: int = 0,
) -> ComparisonReport:
    """Exponent gaps and embedding relations between the two fiber reports."""
    tols = dict(_DEFAULT_COMPARE_TOLS)
    if tolerances:
        tols.update(tolerances)
    flags = []
    k = min(len(report_c.exponents), len(report_l.exponents))
    finite = ~(report_c.floor_flags[:k] | report_l.floor_flags[:k])
    gaps = np.abs(report_c.exponents[:k] - report_l.exponents[:k])
    gaps = np.where(finite, gaps, 0.0)
    if not np.all(finite):
        flags.append("floor indices excluded from exponent gaps")

    E = embedding_matrix(grid, dimension)
    n_groups = min(len(report_c.groups), len(report_l.groups))
    if len(report_c.groups) != len(report_l.groups):
        flags.append("group structures differ between fibers; comparing common prefix")
    e_angles = []
    for i in range(n_groups):
        fc = report_c.E_frames[sample_time][i]
        fl = report_l.E_frames[sample_time][i]
        if report_c.groups[i]["multiplicity"] != report_l.groups[i]["multiplicity"]:
            flags.append(f"group {i} multiplicities differ")
        embedded = orthonormalize(E @ fc.vectors)
        e_angles.append(float(np.max(principal_angles(embedded, fl))))

    # filtration clause: embedded preimages of F_i^(lp) must lie in F_i^(continuous)
    N = dimension
    d_l = (grid.M + 2) * N
    constraint = np.zeros((N, d_l))
    for n in range(N):
        constraint[n, n] = 1.0
        constraint[n, N + grid.M * N + n] = -1.0
    f_angles, f_dims = [], []
    for i in range(n_groups):
        Fl = report_l.F_frames[sample_time][i]
        Fc = report_c.F_frames[sample_time][i]
        C = constraint @ Fl.vectors
        _, sv, Vt = np.linalg.svd(C, full_matrices=True)
        null_mask = np.zeros(Fl.dim, dtype=bool)
        null_mask[len(sv) :] = True
        null_mask[: len(sv)] = sv < 1e-8
        X = Vt[null_mask].T
        combos = Fl.vectors @ X
        preimages = combos[N:, :]
        f_dims.append(preimages.shape[1])
        if preimages.shape[1] == 0:
            flags.append(f"filtration group {i}: empty intersection with the embedded range")
            f_angles.append(np.pi / 2)
            continue
        f_angles.append(containment_angle(preimages, Fc))

    passed = {
        "exponents_equal": bool(np.all(gaps <= tols["exponent_gap"])),
        "e_frames_match": bool(all(a <= tols["e_angle"] for a in e_angles)),
        "f_preimages_contained": bool(all(a <= tols["f_preimage_angle"] for a in f_angles)),
    }
    return ComparisonReport(
        exponent_gaps=gaps,
        e_angles=e_angles,
        f_preimage_angles=f_angles,
        f_preimage_dims=f_dims,
        tolerances=tols,
        flags=flags,
        passed=passed,
    )
