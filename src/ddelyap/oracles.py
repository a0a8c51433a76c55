"""Independent analytic oracles for constant and periodic coefficients.

For constant (A, B) the exact exponential rates are the real parts of the
characteristic roots, the zeros of det(lambda*I - A - B*exp(-lambda)); they
are seeded by the eigenvalues of a Chebyshev collocation of the delay
equation's infinitesimal generator (Breda, Maset and Vermiglio, 2005),
polished by Newton's method with the analytic derivative, and certified
complete by an argument-principle zero count.  For coefficients of period
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


def _collocation(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Chebyshev collocation of phi -> phi' on [-1, 0] with phi'(0) = A phi(0) + B phi(-1).

    D is Trefethen's `cheb` matrix, doubled for the unit interval; node 0 is theta = 0.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    N = A.shape[0]
    L = np.kron(2.0 * D, np.eye(N))
    L[:N] = np.hstack([A, np.zeros((N, (n - 1) * N)), B])
    return L


def _polished_roots(A, B, n: int, count: int):
    """Polished collocation eigenvalues, one entry per root, rightmost first, and
    the index of the first root distinctly left of the count-th (None if none).

    Seeds with Im >= 0 are polished rightmost first until one lies left of that root.
    """
    seeds = np.linalg.eigvals(_collocation(A, B, n))
    roots: list[CharacteristicRoot] = []
    cut = None
    for seed in sorted(seeds[seeds.imag >= 0].tolist(), key=lambda z: -z.real):
        if cut is not None and seed.real < roots[cut].value.real:
            break
        lam, resid, mult = _newton_polish(seed, A, B)
        lam = complex(lam.real, abs(lam.imag) if abs(lam.imag) >= 1e-9 else 0.0)
        if resid > 1e-10 or any(abs(lam - r.value) < 1e-8 * (1.0 + abs(lam)) for r in roots):
            continue
        copies = [lam, lam.conjugate()] if lam.imag else [lam]
        roots += [CharacteristicRoot(v, resid, mult) for v in copies for _ in range(mult)]
        roots.sort(key=lambda r: (-r.value.real, abs(r.value.imag)))
        if len(roots) > count:
            edge = roots[count - 1].value.real - 1e-9 * (1.0 + abs(roots[count - 1].value.real))
            cut = next((i for i in range(count, len(roots)) if roots[i].value.real < edge), None)
    return roots, cut


def _zero_count(A, B, x_lo: float, x_hi: float, y_hi: float, step: float) -> int | None:
    """Zeros of the characteristic determinant inside a rectangle, by the argument principle.

    det is evaluated in one batch at boundary points `step` apart (at most
    2**15 of them), and steps whose phase turns by more than 1 rad are bisected
    until none is left.  None if that needs over 2**18 points or det is not
    finite and nonzero there.
    """
    N = A.shape[0]
    step = max(step, 2.0 * (x_hi - x_lo + 2.0 * y_hi) / 2**15)
    corners = np.array([x_lo, x_hi, x_hi, x_lo, x_lo]) + 1j * y_hi * np.array([-1, -1, 1, 1, -1])
    edges = [np.linspace(a, b, int(abs(b - a) / step) + 2)[:-1] for a, b in zip(corners, corners[1:])]
    z = np.r_[np.concatenate(edges), corners[0]]

    def det(lam):
        return np.linalg.det(lam[:, None, None] * np.eye(N) - A - B * np.exp(-lam)[:, None, None])

    f = det(z)
    for _ in range(60):
        if z.size > 2**18 or not np.all(np.isfinite(f) & (f != 0)):
            return None
        turn = np.angle(f[1:] / f[:-1])
        coarse = np.flatnonzero(np.abs(turn) > 1.0)
        if coarse.size == 0:
            return round(turn.sum() / (2.0 * np.pi))
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        z, f = np.insert(z, coarse + 1, mid), np.insert(f, coarse + 1, det(mid))
    return None


def characteristic_roots(A: np.ndarray, B: np.ndarray, count: int) -> list[CharacteristicRoot]:
    """The `count` characteristic roots with largest real parts, certified complete.

    Conjugate pairs and multiplicities count as separate roots.  A root right
    of x_lo, midway between the count-th real part and the next (1 below it
    if none was found), has |lambda| <= ||A|| + ||B|| exp(-x_lo); the zeros
    counted in the rectangle this bounds must match the roots found.  The
    collocation degree doubles from 32 to 256 until they do; else RuntimeError.
    """
    A, B = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B))
    na, nb = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    for n in (32, 64, 128, 256):
        roots, cut = _polished_roots(A, B, n, count)
        if len(roots) < count:
            continue
        edge = roots[count - 1].value.real
        x_lo = edge - 1.0 if cut is None else 0.5 * (edge + roots[cut].value.real)
        y_hi = na + nb * np.exp(-x_lo) + 1.0
        inside = sum(r.value.real > x_lo for r in roots)
        if _zero_count(A, B, x_lo, na + nb + 1.0, y_hi, min(0.25, edge - x_lo)) == inside:
            return roots[:count]
    raise RuntimeError(f"could not certify {count} characteristic roots up to collocation degree 256")


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
