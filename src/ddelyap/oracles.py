"""Independent analytic oracles for constant and periodic coefficients.

For constant (A, B) the exact exponential rates are the real parts of the
characteristic roots, the zeros of det(lambda*I - A - B*exp(-lambda)); they
are located by a coarse modulus scan over a complex rectangle followed by
Newton polishing with the analytic derivative.  For coefficients of period
one, the dense unit-step matrix is a monodromy operator whose eigenvalues and
eigenvectors give the exponents and covariant subspaces of the discretized
system directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fibers import SubspaceFrame, orthonormalize

__all__ = ["CharacteristicRoot", "characteristic_roots", "monodromy_exponents", "monodromy_frames"]


@dataclass(frozen=True)
class CharacteristicRoot:
    value: complex
    residual: float
    multiplicity: int


def _adjugate(G: np.ndarray) -> np.ndarray:
    n = G.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=G.dtype)
    adj = np.empty_like(G)
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = G[np.ix_(rows != i, rows != j)]
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _char_value_and_derivative(lam: complex, A: np.ndarray, B: np.ndarray):
    n = A.shape[0]
    if -lam.real > 300.0:  # exp(-lam) overflows; no rightmost root lives there
        return np.inf, np.inf, None
    E = np.exp(-lam)
    G = lam * np.eye(n) - A - B * E
    Gp = np.eye(n) + B * E
    f = np.linalg.det(G)
    fp = np.trace(_adjugate(G) @ Gp)
    return f, fp, G


def _newton_polish(lam: complex, A, B, iters: int = 60):
    for _ in range(iters):
        f, fp, _ = _char_value_and_derivative(lam, A, B)
        if not (np.isfinite(f) and np.isfinite(fp)) or fp == 0:
            return lam, np.inf, 1
        step = f / fp
        lam = lam - step
        if abs(step) < 1e-14 * (1.0 + abs(lam)):
            break
    f, _, G = _char_value_and_derivative(lam, A, B)
    if G is None or not np.isfinite(f):
        return lam, np.inf, 1
    sv = np.linalg.svd(G, compute_uv=False)
    mult = int(np.sum(sv < 1e-8 * max(1.0, sv[0])))
    return lam, abs(f), max(mult, 1)


def characteristic_roots(
    A: np.ndarray,
    B: np.ndarray,
    count: int,
    residual_tol: float = 1e-10,
    rectangle: tuple[float, float, float] | None = None,
) -> list[CharacteristicRoot]:
    """The `count` characteristic roots with largest real parts.

    Conjugate pairs count as two roots.  The scan rectangle expands once
    automatically if too few roots are found inside it.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    N = A.shape[0]
    na, nb = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    if rectangle is None:
        x_lo = -(5.0 + na + nb)
        x_hi = na + nb + 1.0
        y_hi = 2.0 * np.pi * (count + 2) + na
    else:
        x_lo, x_hi, y_hi = rectangle

    for attempt in range(2):
        roots = _scan_and_polish(A, B, x_lo, x_hi, y_hi, residual_tol)
        total = sum(2 if abs(r.value.imag) > 1e-9 else 1 for r in roots) + sum(
            (r.multiplicity - 1) * (2 if abs(r.value.imag) > 1e-9 else 1) for r in roots
        )
        if total >= count:
            break
        x_lo, y_hi = 2.0 * x_lo - 1.0, 2.0 * y_hi
    else:
        raise RuntimeError(
            f"found only {total} characteristic roots after expanding the scan rectangle"
        )

    # expand into individual entries: conjugates and multiplicities
    expanded: list[CharacteristicRoot] = []
    for r in sorted(roots, key=lambda r: -r.value.real):
        copies = [r.value] * r.multiplicity
        if abs(r.value.imag) > 1e-9:
            copies += [r.value.conjugate()] * r.multiplicity
        for v in copies:
            expanded.append(CharacteristicRoot(v, r.residual, r.multiplicity))
    expanded.sort(key=lambda r: (-r.value.real, abs(r.value.imag)))
    if len(expanded) < count:
        raise RuntimeError(f"only {len(expanded)} roots located, {count} requested")
    return expanded[:count]


def _scan_and_polish(A, B, x_lo, x_hi, y_hi, residual_tol):
    nx = max(40, int(6 * (x_hi - x_lo)))
    ny = max(40, int(6 * y_hi))
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(0.0, y_hi, ny)
    vals = np.empty((ny, nx))
    real_row = np.empty(nx)  # f is real on the real axis
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            f, _, _ = _char_value_and_derivative(complex(x, y), A, B)
            vals[i, j] = abs(f)
            if i == 0:
                real_row[j] = np.real(f)
    found: list[CharacteristicRoot] = []
    # local minima of |f| on the grid seed Newton
    interior = vals[1:-1, 1:-1]
    is_min = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            is_min &= interior <= vals[1 + di : ny - 1 + di, 1 + dj : nx - 1 + dj]
    seeds = [complex(xs[j + 1], ys[i + 1]) for i, j in zip(*np.nonzero(is_min))]
    # boundary rows can hold real roots; seed the y = 0 row minima too
    row = vals[0]
    for j in range(1, nx - 1):
        if row[j] <= row[j - 1] and row[j] <= row[j + 1]:
            seeds.append(complex(xs[j], 0.0))
    # two close real roots can share one row minimum but not one sign change
    sign = np.sign(real_row)
    seeds += [complex(xs[j], 0.0) for j in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]
    for seed in seeds:
        lam, resid, mult = _newton_polish(seed, A, B)
        if resid > residual_tol:
            continue
        if not (x_lo - 1.0 <= lam.real <= x_hi + 1.0 and -0.5 <= lam.imag <= y_hi + 1.0):
            continue
        if lam.imag < 0:
            lam = lam.conjugate()
        if abs(lam.imag) < 1e-9:
            lam = complex(lam.real, 0.0)
        if any(abs(lam - r.value) < 1e-8 * (1.0 + abs(lam)) for r in found):
            continue
        found.append(CharacteristicRoot(lam, resid, mult))
    return found


def monodromy_exponents(matrix: np.ndarray, k: int | None = None) -> np.ndarray:
    """ln of eigenvalue moduli of a period map, sorted nonincreasing."""
    moduli = np.abs(np.linalg.eigvals(matrix))
    with np.errstate(divide="ignore"):
        rates = np.log(moduli)
    rates = np.sort(rates)[::-1]
    return rates if k is None else rates[:k]


def monodromy_frames(matrix: np.ndarray, gap_tol: float = 1e-6) -> list[tuple[float, SubspaceFrame]]:
    """Real invariant-subspace frames of a period map, grouped by |eigenvalue|.

    Complex pairs contribute their real and imaginary parts, so each frame
    dimension equals the real multiplicity of the modulus group.
    """
    evals, evecs = np.linalg.eig(matrix)
    with np.errstate(divide="ignore"):
        rates = np.log(np.abs(evals))
    order = np.argsort(rates)[::-1]
    groups: list[tuple[float, SubspaceFrame]] = []
    used = np.zeros(len(evals), dtype=bool)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and rates[order[j + 1]] > rates[order[i]] - gap_tol:
            j += 1
        idx = [m for m in order[i : j + 1] if not used[m]]
        cols = []
        for m in idx:
            used[m] = True
            v = evecs[:, m]
            cols.append(v.real)
            if abs(v.imag).max() > 1e-12:
                cols.append(v.imag)
        if cols:
            frame = orthonormalize(np.column_stack(cols))
            groups.append((float(np.mean(rates[order[i : j + 1]])), frame))
        i = j + 1
    return groups
