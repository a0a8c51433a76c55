"""Seeded inputs of the benchmark workloads.

Every workload is a list of (name, raw config) pairs, a pure function of the
workload seed.  The program receives only these configs, written as JSON
files and read back through `ddelyap.config.load_config`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import lambertw

# Coefficients of the shipped configs/compare_telegraph.json and bounds_telegraph.json.
TELEGRAPH_STATES = [
    {"A": [[0.2, 0.5], [-0.3, -0.4]], "B": [[0.6, -0.2], [0.1, 0.5]]},
    {"A": [[-0.5, 0.1], [0.2, 0.3]], "B": [[-0.3, 0.4], [0.5, -0.1]]},
]
TELEGRAPH_GENERATOR = [[-1.0, 1.0], [1.0, -1.0]]

# Coefficients of the shipped configs/oracle_periodic.json (period one).
PERIODIC_DRIVER = {
    "kind": "quasi_periodic",
    "dimension": 2,
    "freqs": [6.283185307179586],
    "a0": [[-0.2, 0.5], [0.0, -0.5]],
    "b0": [[0.8, 0.1], [0.2, -0.6]],
    "a_cos": [[[0.3, 0.0], [0.1, -0.2]]],
    "a_sin": [[[0.0, 0.25], [-0.3, 0.1]]],
    "b_cos": [[[0.2, -0.1], [0.0, 0.3]]],
    "b_sin": [[[-0.15, 0.2], [0.1, 0.0]]],
}

DIAGONAL_SYSTEMS = 2
DIAGONAL_COUNT = 2
# Minimum distance between the `count` leading exponents and from the next
# one.  It keeps QR groups from merging or cutting a group and lets them
# converge within the horizon.  It also keeps clear of a fault in
# ddelyap.oracles.characteristic_roots, whose scan misses one of two real
# roots that lie within about 0.35 of each other (two scan cells).
DIAGONAL_GAP = 0.6


def seeded_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**64 - 1), tag])


def _driver_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def lambert_exponents(a, b, branches: int = 8) -> np.ndarray:
    """Real parts of the characteristic roots of z' = diag(a) z + diag(b) z(t-1).

    Component i has the roots a_i + W_k(b_i exp(-a_i)) over the Lambert W
    branches k; sorted nonincreasing, conjugate pairs listed twice.
    """
    roots = [
        ai + lambertw(bi * np.exp(-ai), k)
        for ai, bi in zip(a, b)
        for k in range(-branches, branches + 1)
    ]
    return np.sort(np.real(roots))[::-1]


def _diagonal_system(rng: np.random.Generator) -> tuple[list, list]:
    """Seeded diagonal (A, B) with ||A|| = ||B|| = 1 and well-separated rates.

    Pinning both norms fixes the characteristic-root scan rectangle, so the
    oracle's work is the same for every seed.  b > 0 makes each component's
    leading root real; h*|a| stays at most 1/32 on the benchmark grid.
    """
    while True:
        a = rng.uniform(-1.0, 1.0, 2)
        b = rng.uniform(0.3, 1.0, 2)
        a /= np.max(np.abs(a))
        b /= np.max(b)
        rates = lambert_exponents(a, b)[: DIAGONAL_COUNT + 1]
        if np.all(-np.diff(rates) >= DIAGONAL_GAP):
            return np.diag(a).tolist(), np.diag(b).tolist()


def telegraph_compare(seed: int) -> list[tuple[str, dict]]:
    """The compare experiment on a seeded telegraph path.

    k = 3 ends the resolved spectrum at the wide gap below the third exponent
    (-1.6 to -2.35).  With k = 4 the last group's E and F frames hang on the
    gap to the unresolved fifth exponent, about 0.16, and compare_fibers fails
    on about 3 % of driver seeds; see the FOUND line in CHANGES.md.
    """
    rng = seeded_rng(seed, 1)
    cfg = {
        "experiment": "compare",
        "driver": {
            "kind": "telegraph",
            "dimension": 2,
            "seed": _driver_seed(rng),
            "states": TELEGRAPH_STATES,
            "generator": TELEGRAPH_GENERATOR,
        },
        "grid": {"M": 64},
        "spectrum": {
            "k": 3,
            "horizon": 500,
            "transient": 50,
            "push_steps": 100,
            "filtration_steps": 60,
        },
        "compare": {
            "tolerances": {"exponent_gap": 2e-3, "e_angle": 1e-2, "f_preimage_angle": 1e-2}
        },
    }
    return [("compare", cfg)]


def analytic_oracles(seed: int) -> list[tuple[str, dict]]:
    rng = seeded_rng(seed, 2)
    out = []
    for i in range(DIAGONAL_SYSTEMS):
        A0, B0 = _diagonal_system(rng)
        out.append(
            (
                f"diagonal_{i}",
                {
                    "experiment": "oracle",
                    "driver": {
                        "kind": "constant",
                        "dimension": 2,
                        "seed": _driver_seed(rng),
                        "A0": A0,
                        "B0": B0,
                    },
                    "grid": {"M": 32},
                    "spectrum": {"k": DIAGONAL_COUNT, "horizon": 200, "transient": 30},
                    "oracle": {"count": DIAGONAL_COUNT, "tolerance": 1e-3},
                },
            )
        )
    # The period map's exponents are at least 0.8 apart, but its conjugate
    # pairs converge column by column only like 1/horizon; an explicit gap_tol
    # keeps each pair in one group, where the default (ten times the drift)
    # splits the -1.7253 pair for some probe seeds.
    out.append(
        (
            "periodic",
            {
                "experiment": "oracle",
                "driver": dict(PERIODIC_DRIVER, seed=_driver_seed(rng)),
                "grid": {"M": 48},
                "spectrum": {
                    "k": 5,
                    "horizon": 240,
                    "transient": 48,
                    "push_steps": 100,
                    "filtration_steps": 80,
                    "gap_tol": 0.05,
                },
                "oracle": {"count": 4, "tolerance": 1e-5},
            },
        )
    )
    # B couples the second component into the first without changing the
    # spectrum: the exact exponents are a1 and -1.7.  a1 >= -1 keeps their gap
    # wide enough that the QR transient error stays far below the h^4 gaps.
    a1 = float(rng.uniform(-1.0, -0.6))
    out.append(
        (
            "converge",
            {
                "experiment": "converge",
                "driver": {
                    "kind": "constant",
                    "dimension": 2,
                    "seed": _driver_seed(rng),
                    "A0": [[a1, 0.0], [0.0, -1.7]],
                    "B0": [[0.0, 0.3], [0.0, 0.0]],
                },
                "grid": {"M": 8},
                "spectrum": {
                    "k": 1,
                    "horizon": 80,
                    "transient": 30,
                    "push_steps": 10,
                    "filtration_steps": 8,
                },
                "converge": {"factors": [1, 2, 4]},
            },
        )
    )
    return out


def telegraph_bounds(seed: int) -> list[tuple[str, dict]]:
    rng = seeded_rng(seed, 3)
    cfg = {
        "experiment": "bounds",
        "driver": {
            "kind": "telegraph",
            "dimension": 2,
            "seed": _driver_seed(rng),
            "states": TELEGRAPH_STATES,
            "generator": TELEGRAPH_GENERATOR,
        },
        "grid": {"M": 32},
        "spectrum": {"k": 2, "horizon": 50},
        "bounds": {"horizon": 500, "samples": 100, "slope_tol": 1e-2},
    }
    return [("bounds", cfg)]


WORKLOADS = {
    "telegraph_compare": telegraph_compare,
    "analytic_oracles": analytic_oracles,
    "telegraph_bounds": telegraph_bounds,
}
