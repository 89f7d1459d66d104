import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from besselsim.chambers import _PAIR_BLOCK
from besselsim.frozen import drift_a, drift_b
from besselsim.zeros import (
    hermite_defect,
    hermite_zeros,
    laguerre_defect,
    laguerre_zeros,
    profile_solution_a,
    profile_solution_b,
)


def hermite_coeffs(n):
    """Monomial coefficients of H_n (ascending), exact integers.

    Independent oracle: three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1}.
    """
    h0, h1 = [1], [0, 2]
    if n == 0:
        return h0
    for k in range(1, n):
        nxt = [0] + [2 * c for c in h1]
        for i, c in enumerate(h0):
            nxt[i] -= 2 * k * c
        h0, h1 = h1, nxt
    return h1


def laguerre_coeffs(n, nu):
    """Monomial coefficients of L_n^(nu-1) (ascending), exact Fractions."""
    alpha = Fraction(nu) - 1
    l0 = [Fraction(1)]
    l1 = [1 + alpha, Fraction(-1)]
    if n == 0:
        return l0
    for k in range(1, n):
        a = [(2 * k + 1 + alpha) * c for c in l1]
        b = [Fraction(0)] + list(l1)
        nxt = [Fraction(0)] * (k + 2)
        for i in range(k + 2):
            v = (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            if i < len(l0):
                v -= (k + alpha) * l0[i]
            nxt[i] = v / (k + 1)
        l0, l1 = l1, nxt
    return l1


def companion_roots(coeffs):
    return np.sort(np.polynomial.Polynomial([float(c) for c in coeffs]).roots().real)[::-1]


def test_hermite_closed_forms():
    assert np.allclose(hermite_zeros(1).zeros, [0.0])
    assert np.allclose(hermite_zeros(2).zeros, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    assert np.allclose(hermite_zeros(3).zeros, [math.sqrt(1.5), 0.0, -math.sqrt(1.5)])


def test_laguerre_closed_forms():
    assert np.allclose(laguerre_zeros(1, 0.7).zeros, [0.7])
    assert np.allclose(laguerre_zeros(2, 1.0).zeros, [2 + math.sqrt(2), 2 - math.sqrt(2)])
    assert np.allclose(laguerre_zeros(2, 2.0).zeros, [3 + math.sqrt(3), 3 - math.sqrt(3)])


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_hermite_matches_companion_matrix(n):
    mine = hermite_zeros(n).zeros
    oracle = companion_roots(hermite_coeffs(n))
    assert np.abs(mine - oracle).max() < 1e-8


@pytest.mark.parametrize("n,nu", [(3, 1.0), (5, 2.0), (8, 1.0), (12, 3.5)])
def test_laguerre_matches_companion_matrix(n, nu):
    mine = laguerre_zeros(n, nu).zeros
    oracle = companion_roots(laguerre_coeffs(n, nu))
    assert np.abs(mine - oracle).max() < 1e-8


def test_oracle_roots_satisfy_fixed_point():
    # the electrostatic characterization itself, on companion-matrix roots
    z = companion_roots(hermite_coeffs(9))
    assert np.abs(hermite_defect(z)).max() < 1e-7
    z = companion_roots(laguerre_coeffs(7, 2.0))
    assert np.abs(laguerre_defect(z, 2.0)).max() < 1e-7


@pytest.mark.parametrize("n", [1, 2, 5, 12, 50, 200])
def test_hermite_residual_and_symmetry(n):
    prof = hermite_zeros(n)
    assert prof.residual <= 1e-10
    assert np.array_equal(prof.zeros, -prof.zeros[::-1])
    assert np.all(np.diff(prof.zeros) < 0) or n == 1


@pytest.mark.parametrize("n,nu", [(1, 1.0), (10, 1.0), (50, 2.0), (200, 1.0)])
def test_laguerre_residual_and_positivity(n, nu):
    prof = laguerre_zeros(n, nu)
    scale = max(1.0, float(prof.zeros.max()))
    assert prof.residual <= 1e-11 * scale
    assert prof.zeros[-1] > 0
    assert np.all(np.diff(prof.zeros) < 0) or n == 1


@pytest.mark.parametrize("n", [2, 5, 9, 30, 2000])
def test_vieta_sums(n):
    # Hermite zeros sum to 0; Laguerre zeros of L_n^(nu-1) sum to n(n+nu-1).
    z = hermite_zeros(n).zeros
    assert abs(z.sum()) < 1e-9 * max(1.0, np.abs(z).max())
    for nu in (1.0, 2.0):
        z = laguerre_zeros(n, nu).zeros
        expect = n * (n + nu - 1)
        assert abs(z.sum() - expect) < 1e-9 * expect


@pytest.mark.parametrize("n,nu", [(10, 1e-5), (100, 1e-4)])
def test_laguerre_product_identity_small_nu(n, nu):
    # prod z_i = (nu)_N for L_N^(nu-1); at small nu the smallest zero is
    # about nu, so this checks it to relative accuracy, not just absolute.
    z = laguerre_zeros(n, nu).zeros
    expect = sum(math.log(nu + j) for j in range(n))
    assert abs(np.log(z).sum() - expect) < 1e-9


_ONE_BLOCK = math.isqrt(_PAIR_BLOCK)  # the largest N whose pair sums take one row block


@pytest.mark.parametrize("n", [1, 2, 6, 150, _ONE_BLOCK - 1, _ONE_BLOCK, _ONE_BLOCK + 1, 2000])
def test_defects_equal_the_dense_pair_matrix_bitwise(n):
    z, nu = hermite_zeros(n).zeros, 1.5
    zl = laguerre_zeros(n, nu).zeros
    if n == 1:
        assert np.array_equal(hermite_defect(z), z) and np.array_equal(laguerre_defect(zl, nu), zl - nu)
        return
    d = z[:, None] - z[None, :]
    np.fill_diagonal(d, np.inf)
    assert hermite_defect(z).tobytes() == (z - (1.0 / d).sum(axis=1)).tobytes()
    d = zl[:, None] - zl[None, :]
    np.fill_diagonal(d, np.inf)
    assert laguerre_defect(zl, nu).tobytes() == (zl - nu - (2.0 * zl[:, None] / d).sum(axis=1)).tobytes()


def test_zero_residuals_at_n_4000_hold_no_pair_matrix():
    # Two dense 4000 x 4000 pair matrices would trace 256 MB.
    hermite_zeros(8), laguerre_zeros(8, 1.5)  # warm imports and LAPACK outside the trace
    tracemalloc.start()
    try:
        h, lag = hermite_zeros(4000), laguerre_zeros(4000, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert h.residual < 1e-8  # 1.4e-9: the defect's sensitivity grows with N
    assert lag.residual <= 1e-11 * float(lag.zeros.max())


def test_invalid_parameters():
    with pytest.raises(ValueError):
        hermite_zeros(0)
    with pytest.raises(ValueError, match="nu must be nonnegative"):
        laguerre_zeros(3, -1.0)


@pytest.mark.parametrize("n", [2, 3, 10, 150])
def test_laguerre_nu_zero_is_zero_then_the_nu_two_zeros(n):
    # L_N^(-1)(x) = -(x/N) L_{N-1}^(1)(x): the Jacobi matrix splits at its first off-diagonal
    prof = laguerre_zeros(n, 0.0)
    assert np.array_equal(prof.zeros, np.append(laguerre_zeros(n - 1, 2.0).zeros, 0.0))
    assert prof.residual < 1e-9


def test_profile_solution_a_values():
    # sqrt(2*1/2) = 1: profile at t=1/2, c=0 is the zero set itself
    p = profile_solution_a(2, 0.0, 0.5)
    assert np.allclose(p.coords, hermite_zeros(2).zeros)
    p = profile_solution_a(4, 1.0, 0.0)
    assert np.allclose(p.coords, hermite_zeros(4).zeros)
    assert np.allclose(profile_solution_a(1, 0.0, 3.0).coords, [0.0])


def test_profile_solution_b_values():
    assert np.allclose(profile_solution_b(1, 1.0, 0.0, 0.5).coords, [1.0])
    p = profile_solution_b(2, 1.0, 0.0, 0.5)
    assert np.allclose(p.coords, np.sqrt([2 + math.sqrt(2), 2 - math.sqrt(2)]))
    p = profile_solution_b(3, 2.0, 1.0, 0.0)
    assert np.allclose(p.coords, np.sqrt(laguerre_zeros(3, 2.0).zeros))


@pytest.mark.parametrize("n,c", [(4, 0.0), (6, 1.0)])
def test_profile_a_satisfies_ode(n, c):
    # d/dt sqrt(2t+c^2) z = z/sqrt(2t+c^2) must equal the drift, and a
    # finite-difference derivative of the profile must agree to 1e-6.
    t, h = 0.8, 1e-5
    x = profile_solution_a(n, c, t).coords
    fd = (profile_solution_a(n, c, t + h).coords - profile_solution_a(n, c, t - h).coords) / (
        2 * h
    )
    assert np.abs(drift_a(x) - fd).max() < 1e-6


@pytest.mark.parametrize("n,nu,c", [(3, 1.0, 0.0), (5, 2.0, 1.0), (4, 0.0, 1.0)])
def test_profile_b_satisfies_ode(n, nu, c):
    t, h = 0.8, 1e-5
    x = profile_solution_b(n, nu, c, t).coords
    fd = (
        profile_solution_b(n, nu, c, t + h).coords - profile_solution_b(n, nu, c, t - h).coords
    ) / (2 * h)
    assert np.abs(drift_b(x, nu) - fd).max() < 1e-6


def test_hermite_profile_is_drift_fixed_point():
    # the zero set z satisfies z_i = sum 1/(z_i - z_j)
    z = hermite_zeros(3).zeros
    assert np.allclose(drift_a(z), z)
