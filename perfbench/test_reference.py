"""Small-case tests of the benchmark's reference computations.

Run with:  python3 -m pytest perfbench -q
Nothing here imports besselsim; the references are checked against
scipy's Gauss-rule nodes, direct expansion at N = 2, and direct ODE
integration of the defining equations.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import roots_genlaguerre, roots_hermite

import reference as ref


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50])
def test_hermite_zeros_match_scipy(n):
    expected = np.sort(roots_hermite(n)[0])[::-1]
    assert np.allclose(ref.hermite_zeros_jacobi(n), expected, rtol=0, atol=1e-12 * max(1.0, abs(expected).max()))


@pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
@pytest.mark.parametrize("nu", [0.5, 1.0, 2.7])
def test_laguerre_zeros_match_scipy(n, nu):
    expected = np.sort(roots_genlaguerre(n, nu - 1.0)[0])[::-1]
    assert np.allclose(ref.laguerre_zeros_jacobi(n, nu), expected, rtol=1e-12, atol=0)


def test_zeros_by_direct_expansion_at_n2():
    # H_2 = 4x^2 - 2;  L_2^(a) = x^2/2 - (a + 2) x + (a + 2)(a + 1)/2
    assert np.allclose(ref.hermite_zeros_jacobi(2), [1 / math.sqrt(2), -1 / math.sqrt(2)])
    nu = 1.8
    a = nu - 1.0
    roots = [(a + 2) + math.sqrt(a + 2), (a + 2) - math.sqrt(a + 2)]
    assert np.allclose(ref.laguerre_zeros_jacobi(2, nu), roots)


def test_drifts_at_n2():
    x = np.array([1.3, -0.4])
    assert np.allclose(ref.drift_a(x), [1 / 1.7, -1 / 1.7])
    nu = 0.6
    d = x[0] ** 2 - x[1] ** 2
    assert np.allclose(ref.drift_b(x, nu), [2 * x[0] / d + nu / x[0], -2 * x[1] / d + nu / x[1]])


def _integrate(rhs, x0, ts):
    sol = solve_ivp(lambda t, y: rhs(y), (ts[0], ts[-1]), x0, t_eval=ts, rtol=1e-12, atol=1e-12, method="DOP853")
    return sol.y.T


@pytest.mark.parametrize("n", [2, 3, 5])
def test_self_similar_solutions_solve_the_odes(n):
    ts = np.array([0.0, 0.3, 1.0])
    c = 0.7
    z = ref.hermite_zeros_jacobi(n)
    assert np.allclose(_integrate(ref.drift_a, c * z, ts), ref.self_similar_a(z, c, ts), atol=1e-8)
    nu = 1.4
    zl = ref.laguerre_zeros_jacobi(n, nu)
    got = _integrate(lambda y: ref.drift_b(y, nu), c * np.sqrt(zl), ts)
    assert np.allclose(got, ref.self_similar_b(zl, c, ts), atol=1e-8)


def test_frozen_power_sum_identities():
    ts = np.linspace(0.0, 0.5, 6)
    n = 4
    x0 = np.array([1.9, 0.7, -0.2, -1.5])
    s1, s2 = ref.power_sums_a(_integrate(ref.drift_a, x0, ts))
    assert np.allclose(s1, s1[0], atol=1e-10)
    assert np.allclose(s2 - s2[0], ref.frozen_identities_a(n, ts), atol=1e-9)
    nu = 0.8
    y0 = np.array([2.2, 1.5, 0.9, 0.4])
    sb = ref.power_sum_b(_integrate(lambda y: ref.drift_b(y, nu), y0, ts))
    assert np.allclose(sb - sb[0], ref.frozen_identity_b(n, nu, ts), atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_generators_match_the_ito_closed_forms(n):
    rng = np.random.default_rng(n)
    k, nu, beta = 0.7, 1.3, 2.5
    for _ in range(5):
        x = np.sort(rng.normal(size=n))[::-1]
        s1, s2 = x.sum(), (x * x).sum()
        g2, g4 = ref.generator_a(x, k)
        assert math.isclose(g2, n * (n - 1) + n / k, rel_tol=1e-10)
        assert math.isclose(g4, (4 * n - 6 + 6 / k) * s2 + 2 * s1 * s1, rel_tol=1e-10)
        y = np.sort(np.abs(rng.normal(size=n)))[::-1]
        g2, g4 = ref.generator_b(y, nu, beta)
        assert math.isclose(g2, 2 * n * (n - 1) + 2 * n * nu + n / beta, rel_tol=1e-10)
        assert math.isclose(g4, (8 * (n - 1) + 4 * nu + 6 / beta) * (y * y).sum(), rel_tol=1e-10)


def test_ito_a_by_direct_expansion_at_n2():
    # U = X1 - X2 is a Bessel process with d(U^2) = (4 + 2/k) dt + mart, and
    # V = X1 + X2 an independent Brownian motion of variance 2t/k;
    # S2 = (U^2 + V^2)/2 and S4 = (U^4 + 6 U^2 V^2 + V^4)/8.
    k, t = 0.8, 1.7
    x0 = np.array([0.9, -0.3])
    u0, v0 = x0[0] - x0[1], x0[0] + x0[1]
    eu2 = u0**2 + (4 + 2 / k) * t
    eu4 = u0**4 + (8 + 12 / k) * (u0**2 * t + (4 + 2 / k) * t * t / 2)
    ev2 = v0**2 + 2 * t / k
    ev4 = v0**4 + 6 * v0**2 * (2 * t / k) + 3 * (2 * t / k) ** 2
    got = ref.ito_a(2, k, t, x0)
    assert math.isclose(got["E_S2"], (eu2 + ev2) / 2, rel_tol=1e-12)
    assert math.isclose(got["E_S4"], (eu4 + 6 * eu2 * ev2 + ev4) / 8, rel_tol=1e-12)


@pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
def test_type_a_hierarchy_matches_ito_to_first_order(k):
    t, big = 1.3, 1e7
    lim, unit = ref.moments_a_zero_start(k, 1, 6, t)
    assert np.allclose(lim, [1, 0, t, 0, 2 * t * t, 0, 5 * t**3])
    d = unit - lim
    ito = ref.ito_a(int(big), k, t, np.zeros(1))
    # ito_a only uses sum x0^p, so a one-atom zero start stands for N atoms at 0
    assert math.isclose(d[2], big * (ito["E_S2"] / big**2 - lim[2]), rel_tol=1e-5, abs_tol=1e-6)
    assert math.isclose(d[4], big * (ito["E_S4"] / big**3 - lim[4]), rel_tol=1e-5, abs_tol=1e-6)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_type_b_hierarchy_matches_ito_to_first_order(beta):
    t, nu0, big = 0.9, 1.0, 1e7
    lim, unit = ref.moments_b_zero_start(nu0, beta, 1, 4, t)
    c = 1.0 + nu0
    assert np.allclose(lim[:3], [1, c * t, c * (1 + c) * t * t])
    e = unit - lim
    ito = ref.ito_b(int(big), nu0 * big, beta, t, np.zeros(1))
    assert math.isclose(e[1], big * (ito["E_S2"] / (2 * big**2) - lim[1]), rel_tol=1e-5, abs_tol=1e-6)
    assert math.isclose(e[2], big * (ito["E_S4"] / (4 * big**3) - lim[2]), rel_tol=1e-5)


def test_quartercircle_moments():
    m = ref.quartercircle_moments(9)
    for l in range(10):
        if l % 2 == 0:
            expected = math.comb(l, l // 2) / (l // 2 + 1)
        else:
            expected = 2.0**l * math.gamma((l + 1) / 2) / (math.sqrt(math.pi) * math.gamma((l + 4) / 2))
        assert math.isclose(m[l], expected, rel_tol=1e-12)


def test_dunkl_even_part_from_the_quartercircle_is_a_semicircle():
    # at nu0 = 0 the even part of the limit is the semicircle of radius 2 sqrt(2t + 1)
    t = 0.7
    m = ref.dunkl_limit_moments(ref.quartercircle_moments(10), 0.0, t, 10)
    r2 = 4.0 * (2.0 * t + 1.0)
    for l in range(0, 11, 2):
        assert math.isclose(m[l], math.comb(l, l // 2) / (l // 2 + 1) * (r2 / 4) ** (l // 2), rel_tol=1e-12)


def test_dunkl_moments_at_time_zero_and_from_delta0():
    m0 = ref.quartercircle_moments(8)
    assert np.allclose(ref.dunkl_limit_moments(m0, 1.0, 0.0, 8), m0)
    m = ref.dunkl_limit_moments([1.0] + [0.0] * 8, 1.0, 0.4, 8)
    assert np.allclose(m[1::2], 0.0)


def test_moment_series_matches_the_semicircle_transform():
    r, z = 2.0, complex(3.0, 4.0)
    moments = [0.0 if l % 2 else math.comb(l, l // 2) / (l // 2 + 1) * (r / 2) ** l for l in range(120)]
    closed = 2 / r**2 * (z - complex(z - r) ** 0.5 * complex(z + r) ** 0.5)
    assert abs(ref.moment_series_stieltjes(moments, z) - closed) < 1e-12


def test_densities_and_cdf():
    assert math.isclose(quad(lambda x: float(ref.semicircle_density(1.7, x)), -1.7, 1.7)[0], 1.0, rel_tol=1e-8)
    c, t = 2.5, 0.6
    lo, hi = t * (math.sqrt(c) - 1) ** 2, t * (math.sqrt(c) + 1) ** 2
    assert math.isclose(quad(lambda x: float(ref.mp_density(c, t, x)), lo, hi, limit=200)[0], 1.0, rel_tol=1e-7)
    xs = np.linspace(-2, 2, 9)
    cdf = np.array([quad(lambda y: float(ref.semicircle_density(2.0, y)), -2, x)[0] for x in xs])
    assert np.allclose(ref.semicircle_cdf(2.0, xs), cdf, atol=1e-9)


def test_ks_distance_of_a_quantile_grid():
    n = 40
    sample = (np.arange(1, n + 1) - 0.5) / n
    assert math.isclose(ref.ks_distance(sample, lambda x: x), 0.5 / n, rel_tol=1e-12)
