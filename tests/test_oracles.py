import time

import numpy as np
import pytest
from scipy.special import lambertw

from ddelyap.oracles import (
    _collocation,
    _newton_polish,
    characteristic_roots,
    monodromy_exponents,
    monodromy_frames,
)

OMEGA = 0.5671432904097838  # real root of x = exp(-x), by Newton to machine precision


class TestCharacteristicRoots:
    def test_scalar_positive_feedback(self):
        roots = characteristic_roots(np.array([[0.0]]), np.array([[1.0]]), 1)
        assert roots[0].value.imag == 0.0
        assert roots[0].value.real == pytest.approx(OMEGA, abs=1e-12)
        assert roots[0].residual <= 1e-10

    def test_scalar_negative_feedback_pair(self):
        roots = characteristic_roots(np.array([[0.0]]), np.array([[-1.0]]), 2)
        vals = sorted((r.value for r in roots), key=lambda z: z.imag)
        assert vals[0] == pytest.approx(vals[1].conjugate(), abs=1e-10)
        assert vals[1].real == pytest.approx(-0.3181, abs=5e-4)
        assert abs(vals[1].imag) == pytest.approx(1.3372, abs=5e-4)

    def test_no_delay_reduces_to_eigenvalues(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        roots = characteristic_roots(A, np.zeros((2, 2)), 2)
        found = sorted(r.value.real for r in roots)
        assert np.allclose(found, [-2.0, -1.0], atol=1e-11)
        assert all(r.residual <= 1e-10 for r in roots)

    def test_identity_feedback_doubles_roots(self):
        roots = characteristic_roots(np.zeros((2, 2)), np.eye(2), 4)
        vals = [r.value for r in roots]
        assert vals[0] == pytest.approx(OMEGA, abs=1e-10)
        assert vals[1] == pytest.approx(OMEGA, abs=1e-10)
        assert roots[0].multiplicity == 2
        # next pair: second root branch of x = exp(-x)
        assert vals[2].real == pytest.approx(-1.5339, abs=1e-3)
        assert abs(vals[2].imag) == pytest.approx(4.3752, abs=1e-3)

    def test_count_is_honored_with_conjugates(self):
        roots = characteristic_roots(np.array([[0.0]]), np.array([[-1.0]]), 6)
        assert len(roots) == 6
        reals = [r.value.real for r in roots]
        assert reals == sorted(reals, reverse=True)

    def test_close_real_roots_both_found(self):
        # |f| has one minimum on the real scan row here but changes sign twice
        a, b = np.array([1.0, 0.44798]), np.array([0.72592, 1.0])
        exact = sorted((a + lambertw(b * np.exp(-a)).real).tolist(), reverse=True)
        roots = characteristic_roots(np.diag(a), np.diag(b), 2)
        assert [r.value.imag for r in roots] == [0.0, 0.0]
        assert [r.value.real for r in roots] == pytest.approx(exact, abs=1e-10)
        assert exact == pytest.approx([1.21532, 0.86784], abs=1e-5)

    @pytest.mark.parametrize(
        "a, b, count",
        [
            ((1.0, 0.44798), (0.72592, 1.0), 4),
            # small |b|: the second real root of each component lies far left
            ((0.06243225, 0.6823507), (-0.02695913, -0.04811026), 4),
            ((-0.36755626, -0.2465879), (-0.01160159, -0.05506595), 4),
            # roots up to |Im| = 124 need a collocation degree above 32
            ((0.0,), (1.0,), 40),
        ],
    )
    def test_leading_real_parts_match_lambert_w(self, a, b, count):
        a, b = np.array(a), np.array(b)
        branches = range(-count, count + 1)
        exact = np.sort([(ai + lambertw(bi * np.exp(-ai), k)).real for ai, bi in zip(a, b) for k in branches])
        roots = characteristic_roots(np.diag(a), np.diag(b), count)
        assert [r.value.real for r in roots] == pytest.approx(exact[::-1][:count], abs=1e-12)

    def test_complex_pairs_close_in_real_part_found(self):
        # a grid scan of |f| once lost both pairs: two roots 0.31 apart shared one basin
        A, B = np.array([[-0.5, 0.3], [0.1, -1.0]]), np.array([[0.8, 0.2], [0.0, 0.6]])
        roots = characteristic_roots(A, B, 8)
        for seed in (complex(-1.74742, 4.41633), complex(-2.62174, 10.79240)):
            lam, resid, _ = _newton_polish(seed, A, B)
            assert resid <= 1e-10
            assert abs(lam - seed) < 1e-5
            assert sum(abs(r.value - lam) < 1e-10 for r in roots) == 1
            assert sum(abs(r.value - lam.conjugate()) < 1e-10 for r in roots) == 1
        assert [r.value.real for r in roots] == pytest.approx(
            [0.21129, -0.27661, -1.74742, -1.74742, -2.04179, -2.04179, -2.62174, -2.62174], abs=1e-5
        )

    def test_stiff_root_is_fast(self):
        start = time.perf_counter()
        roots = characteristic_roots(-50.0 * np.eye(2), 0.5 * np.eye(2), 1)
        assert time.perf_counter() - start < 1.0
        assert roots[0].value == pytest.approx(-4.5106, abs=1e-4)

    def test_lost_seed_fails_certification(self, monkeypatch):
        # drop the rightmost seed pair; the zero count must notice the missing roots
        def collocation_without_rightmost_pair(A, B, n):
            L = _collocation(A, B, n)
            vals, vecs = np.linalg.eig(L)
            vals[np.argsort(-vals.real)[:2]] = -1e3
            return (vecs @ np.diag(vals) @ np.linalg.inv(vecs)).real

        monkeypatch.setattr("ddelyap.oracles._collocation", collocation_without_rightmost_pair)
        with pytest.raises(RuntimeError, match="certify"):
            characteristic_roots(np.array([[0.0]]), np.array([[-1.0]]), 2)


class TestMonodromy:
    def test_exponents_of_diagonal_map(self):
        m = np.diag([4.0, 1.0, 0.25])
        rates = monodromy_exponents(m)
        assert np.allclose(rates, [np.log(4.0), 0.0, np.log(0.25)], atol=1e-12)

    def test_frames_group_complex_pairs(self):
        # rotation-scaling block pairs with a slow real direction
        theta = 0.7
        r = 2.0
        block = r * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        m = np.zeros((3, 3))
        m[:2, :2] = block
        m[2, 2] = 0.5
        groups = monodromy_frames(m)
        assert len(groups) == 2
        rate0, frame0 = groups[0]
        assert rate0 == pytest.approx(np.log(2.0), abs=1e-12)
        assert frame0.dim == 2
        rate1, frame1 = groups[1]
        assert frame1.dim == 1
        assert rate1 == pytest.approx(np.log(0.5), abs=1e-12)
