"""Discretized fiber spaces for delay-equation segments.

Two state spaces live here: continuous segments on [-1, 0] with the sup
norm, and "head + density" pairs modelling R^N x L_p([-1, 0], R^N).  Both
are represented by nodal values on a uniform grid, so the unit delay maps
grid points to grid points.  Subspace utilities (orthonormal frames,
principal angles) operate on plain Euclidean coordinate vectors; growth
rates and subspace identities on a fixed grid do not depend on which
equivalent norm the linear algebra uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _pivoted_qr
from scipy.linalg import subspace_angles

__all__ = [
    "GridSpec",
    "ContinuousSegment",
    "LpSegment",
    "SubspaceFrame",
    "norm_c",
    "norm_lp",
    "embed_segment",
    "try_invert_embedding",
    "principal_angles",
    "orthonormalize",
    "embedding_matrix",
    "segment_to_csv",
    "segment_from_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-1, 0] with M subintervals; step h = 1/M."""

    M: int

    def __post_init__(self):
        if self.M < 4:
            raise ValueError(f"grid needs M >= 4 subintervals, got M={self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def nodes(self) -> np.ndarray:
        return -1.0 + np.arange(self.M + 1) / self.M


@dataclass
class ContinuousSegment:
    """Segment u ∈ C([-1,0], R^N): nodal values, shape (M+1, N)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.M + 1:
            raise ValueError(
                f"values must have shape (M+1, N) = ({self.grid.M + 1}, N), "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("segment values must be finite")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def coords(self) -> np.ndarray:
        """Flat coordinate vector, node-major."""
        return self.values.reshape(-1)

    @classmethod
    def from_coords(cls, grid: GridSpec, coords: np.ndarray, dimension: int):
        return cls(grid, np.asarray(coords, dtype=float).reshape(grid.M + 1, dimension))


@dataclass
class LpSegment:
    """Element (u1, u2) of R^N x L_p: head vector plus nodal density values.

    The head need not match the density at s = 0; the product space allows
    the mismatch.  The nodal density silently stands for the continuous
    representative of its L_p class, which under-reports the norm of data
    with jumps between nodes.
    """

    grid: GridSpec
    head: np.ndarray
    density: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        self.head = np.asarray(self.head, dtype=float).reshape(-1)
        self.density = np.asarray(self.density, dtype=float)
        if self.density.ndim != 2 or self.density.shape[0] != self.grid.M + 1:
            raise ValueError(
                f"density must have shape (M+1, N) = ({self.grid.M + 1}, N), "
                f"got {self.density.shape}"
            )
        if self.head.shape[0] != self.density.shape[1]:
            raise ValueError("head and density dimensions disagree")
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if not (np.all(np.isfinite(self.head)) and np.all(np.isfinite(self.density))):
            raise ValueError("segment values must be finite")

    @property
    def dimension(self) -> int:
        return self.head.shape[0]

    def coords(self) -> np.ndarray:
        """Flat coordinate vector: head first, then node-major density."""
        return np.concatenate([self.head, self.density.reshape(-1)])

    @classmethod
    def from_coords(cls, grid: GridSpec, coords: np.ndarray, dimension: int, p: float = 2.0):
        coords = np.asarray(coords, dtype=float)
        head = coords[:dimension]
        density = coords[dimension:].reshape(grid.M + 1, dimension)
        return cls(grid, head, density, p)


def fiber_dim(grid: GridSpec, dimension: int, fiber_kind: str) -> int:
    """Coordinate dimension of the discretized fiber."""
    if fiber_kind == "continuous":
        return (grid.M + 1) * dimension
    if fiber_kind == "lp":
        return (grid.M + 2) * dimension
    raise ValueError(f"unknown fiber kind {fiber_kind!r}")


def norm_c(u: ContinuousSegment) -> float:
    """Sup norm: max over nodes of the Euclidean norm of u(s_j)."""
    return float(np.max(np.linalg.norm(u.values, axis=1)))


def trapezoid_weights(grid: GridSpec) -> np.ndarray:
    w = np.full(grid.M + 1, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    return w


def norm_lp(u: LpSegment) -> float:
    """Head norm plus trapezoid approximation of the density p-norm."""
    w = trapezoid_weights(u.grid)
    pointwise = np.linalg.norm(u.density, axis=1)
    integral = float(np.dot(w, pointwise**u.p))
    return float(np.linalg.norm(u.head) + integral ** (1.0 / u.p))


def embed_segment(u: ContinuousSegment, p: float = 2.0) -> LpSegment:
    """Natural embedding u -> (u(0), u) of continuous segments into the pair space."""
    return LpSegment(u.grid, u.values[-1].copy(), u.values.copy(), p)


def try_invert_embedding(v: LpSegment, tol: float = 1e-9) -> ContinuousSegment | None:
    """Recover the continuous preimage of v, or None if v is not an embedded segment.

    Succeeds iff the head matches the density at s = 0 within tol.
    """
    if np.linalg.norm(v.head - v.density[-1]) > tol:
        return None
    return ContinuousSegment(v.grid, v.density.copy())


def embedding_matrix(grid: GridSpec, dimension: int) -> np.ndarray:
    """Dense coordinate matrix of the embedding: lp coords = E @ continuous coords."""
    n_c = fiber_dim(grid, dimension, "continuous")
    n_l = fiber_dim(grid, dimension, "lp")
    E = np.zeros((n_l, n_c))
    # head rows copy the s = 0 node
    for n in range(dimension):
        E[n, grid.M * dimension + n] = 1.0
    E[dimension:, :] = np.eye(n_c)
    return E


@dataclass
class SubspaceFrame:
    """Orthonormal spanning set of a subspace, columns in coordinate space."""

    ambient_dim: int
    vectors: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.ambient_dim:
            raise ValueError("frame vectors must be columns of length ambient_dim")
        if self.vectors.shape[1] > self.ambient_dim:
            raise ValueError("more columns than ambient dimension")
        gram = self.vectors.T @ self.vectors
        if not np.allclose(gram, np.eye(self.vectors.shape[1]), atol=1e-12):
            raise ValueError("frame columns are not orthonormal to 1e-12")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def orthonormalize(vectors: np.ndarray, rank_tol: float = 1e-10) -> SubspaceFrame:
    """Orthonormal frame spanning the input columns, via pivoted QR.

    Columns whose pivoted R diagonal falls below rank_tol relative to the
    largest are dropped and reported through SubspaceFrame.dropped.
    """
    A = np.asarray(vectors, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if A.size == 0:
        raise ValueError("empty vector list")
    scale = np.max(np.abs(A))
    if scale == 0.0:
        raise ValueError("cannot orthonormalize all-zero input")
    Q, R, _ = _pivoted_qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > rank_tol * diag[0]))
    return SubspaceFrame(A.shape[0], Q[:, :rank], dropped=A.shape[1] - rank)


def principal_angles(P: SubspaceFrame, Q: SubspaceFrame) -> np.ndarray:
    """Principal angles between two frames, ascending, in [0, pi/2].

    Small angles are computed sine-based (scipy), which keeps accuracy well
    below the sqrt(eps) floor of naive arccos of singular values.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("frames live in different ambient dimensions")
    return np.sort(subspace_angles(P.vectors, Q.vectors))


def containment_angle(vectors: np.ndarray, frame: SubspaceFrame) -> float:
    """Largest angle any input column makes with the span of frame."""
    V = np.asarray(vectors, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    norms = np.linalg.norm(V, axis=0)
    if np.any(norms == 0):
        raise ValueError("zero column has no direction")
    V = V / norms
    resid = V - frame.vectors @ (frame.vectors.T @ V)
    sines = np.clip(np.linalg.norm(resid, axis=0), 0.0, 1.0)
    return float(np.max(np.arcsin(sines)))


def subspace_intersection(A: SubspaceFrame, B: SubspaceFrame, dim: int):
    """Best rank-`dim` approximation of span(A) ∩ span(B).

    Returns (frame, residual_angles): the principal directions of the two
    frames with the `dim` largest cosines, taken on the A side, plus the
    angles those directions make (0 for an exact intersection).
    """
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("frames live in different ambient dimensions")
    if dim > min(A.dim, B.dim):
        raise ValueError("requested intersection larger than either subspace")
    W, s, _ = np.linalg.svd(A.vectors.T @ B.vectors)
    angles = np.arccos(np.clip(s[:dim], -1.0, 1.0))
    frame = orthonormalize(A.vectors @ W[:, :dim])
    return frame, angles


def segment_to_csv(path, segment) -> None:
    """One row per node: s_j then the N components.

    LpSegment heads are carried in a comment line so node rows stay uniform.
    """
    nodes = segment.grid.nodes
    if isinstance(segment, LpSegment):
        header = "head: " + " ".join(repr(float(x)) for x in segment.head) + f"\np: {segment.p!r}"
        table = np.column_stack([nodes, segment.density])
    else:
        header = "continuous segment"
        table = np.column_stack([nodes, segment.values])
    np.savetxt(path, table, delimiter=",", header=header)


def segment_from_csv(path, grid: GridSpec):
    """Inverse of segment_to_csv; the comment header decides the fiber."""
    with open(path) as fh:
        first = fh.readline()
        second = fh.readline()
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    values = table[:, 1:]
    if first.startswith("# head:"):
        head = np.array([float(x) for x in first.split(":", 1)[1].split()])
        p = float(second.split(":", 1)[1])
        return LpSegment(grid, head, values, p)
    return ContinuousSegment(grid, values)
