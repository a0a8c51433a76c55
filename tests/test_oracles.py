import numpy as np
import pytest
from scipy.special import lambertw

from ddelyap.oracles import characteristic_roots, monodromy_exponents, monodromy_frames

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

    def test_rectangle_expansion_failure_raises(self):
        with pytest.raises(RuntimeError):
            characteristic_roots(
                np.array([[0.0]]), np.array([[1.0]]), 40, rectangle=(-0.5, 1.0, 1.0)
            )


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
