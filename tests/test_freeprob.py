import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from besselsim import freeprob as fp
from besselsim.moments import catalan, limit_moment_polys_b, limit_moments_b

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# moment/cumulant algebra
# ---------------------------------------------------------------------------


def test_semicircle_moments_and_cumulants():
    m = fp.semicircle_moments(4, 8)  # sc(2)
    assert m[2] == 1 and m[4] == 2 and m[3] == 0
    k = fp.moments_to_cumulants(m)
    assert k[1] == 0 and k[2] == 1 and all(k[s] == 0 for s in range(3, 9))


def test_atom_cumulants():
    # delta_a has cumulants (a, 0, 0, ...)
    a = Fraction(3, 7)
    m = [a**l for l in range(9)]
    k = fp.moments_to_cumulants(m)
    assert k[1] == a and all(k[s] == 0 for s in range(2, 9))


def test_mp_cumulants_roundtrip():
    k = fp.mp_cumulants(Fraction(2), Fraction(1), 8)
    m = fp.cumulants_to_moments(k)
    assert m[1] == 2 and m[2] == 6  # k2 + k1^2 = 2 + 4
    back = fp.moments_to_cumulants(m)
    assert back[1:] == k[1:]


def test_mp_moments_catalan_at_c1():
    m = fp.cumulants_to_moments(fp.mp_cumulants(1, Fraction(1, 2), 7))
    for l in range(8):
        assert m[l] == catalan(l) * HALF**l


def test_roundtrip_random_rational():
    rng = np.random.default_rng(12)
    m = [Fraction(1)] + [Fraction(int(v), 9) for v in rng.integers(-25, 25, 10)]
    k = fp.moments_to_cumulants(m)
    assert fp.cumulants_to_moments(k) == m


def test_free_add_unit_commutative_associative():
    rng = np.random.default_rng(3)
    def rand_m():
        return [Fraction(1)] + [Fraction(int(v), 7) for v in rng.integers(-10, 10, 8)]

    m1, m2, m3 = rand_m(), rand_m(), rand_m()
    delta0 = [Fraction(1)] + [Fraction(0)] * 8
    assert fp.free_add(m1, delta0) == m1
    assert fp.free_add(m1, m2) == fp.free_add(m2, m1)
    lhs = fp.free_add(fp.free_add(m1, m2), m3)
    rhs = fp.free_add(m1, fp.free_add(m2, m3))
    assert lhs == rhs


def test_semicircle_free_convolution_adds_variances():
    s, t = Fraction(1, 3), Fraction(5, 7)
    out = fp.free_add(fp.semicircle_moments(4 * s, 10), fp.semicircle_moments(4 * t, 10))
    assert out == fp.semicircle_moments(4 * (s + t), 10)


def test_mp_additivity_exact_order_12():
    # MP(a,t) boxplus MP(b,t) = MP(a+b,t), cumulant level, exact rationals
    t = Fraction(1, 2)
    for a, b in [(Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(3, 2))]:
        ma = fp.cumulants_to_moments(fp.mp_cumulants(a, t, 12))
        mb = fp.cumulants_to_moments(fp.mp_cumulants(b, t, 12))
        out = fp.moments_to_cumulants(fp.free_add(ma, mb, 12))
        assert out[1:] == fp.mp_cumulants(a + b, t, 12)[1:]


def test_composition_identity_order_12():
    # MP(nu0, s) boxplus ( sc(2 sqrt s) boxplus (sqrt MP(nu0+1, t))_even )^2
    # equals MP(nu0+1, s+t) at cumulant order 12, exact arithmetic.
    for nu0 in (Fraction(0), Fraction(1)):
        for s in (HALF, Fraction(1)):
            for t in (HALF, Fraction(1)):
                mp_inner = fp.cumulants_to_moments(fp.mp_cumulants(nu0 + 1, t, 24))
                even = [Fraction(0)] * 25
                even[0] = Fraction(1)
                for l in range(1, 13):
                    even[2 * l] = mp_inner[l]  # even moments of sqrt-pushforward
                inner = fp.free_add(fp.semicircle_moments(4 * s, 24), even, 24)
                sq = fp.square_moments(inner)
                total = [
                    x + y
                    for x, y in zip(
                        fp.moments_to_cumulants(sq, 12), fp.mp_cumulants(nu0, s, 12)
                    )
                ]
                assert total[1:] == fp.mp_cumulants(nu0 + 1, s + t, 12)[1:]


def test_pushforward_sequences():
    m = [Fraction(1)] + [Fraction(l) for l in range(1, 11)]
    ev = fp.even_part_moments(m)
    assert all(ev[l] == 0 for l in range(1, 11, 2))
    assert all(ev[l] == m[l] for l in range(0, 11, 2))
    sq = fp.square_moments(m)
    assert sq == [m[0], m[2], m[4], m[6], m[8], m[10]]


def test_even_part_of_quartercircle_is_semicircle():
    qc = fp.quartercircle_moments(12)
    ev = fp.even_part_moments(list(qc))
    sc = fp.semicircle_moments(4.0, 12)
    assert np.abs(np.array(ev) - np.array([float(v) for v in sc])).max() < 1e-12


def test_square_then_sqrt_is_identity_on_halfline_laws():
    mp = fp.marchenko_pastur(1.5, 0.5)
    law = fp.sqrt_law(mp)
    assert law.squared() is mp
    # and at density level: f_sqrt(x) = 2x f_sq(x^2)
    xs = np.linspace(0.1, 1.4, 7)
    assert np.allclose(law.density(xs), 2 * xs * mp.density(xs**2))


def test_square_pushforward_of_semicircle_is_mp():
    law = fp.semicircle(2 * math.sqrt(0.7)).squared()
    assert isinstance(law, fp.MarchenkoPastur)
    assert law.c == pytest.approx(1.0)
    assert law.t == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# quadrature of a truncated moment sequence
# ---------------------------------------------------------------------------


def _jacobi_by_restarts(m, K):
    """The Chebyshev algorithm restarted at depth K - 1 on each loss of positivity."""
    m = [float(v) for v in m]
    K = min(K, len(m) // 2)
    while K >= 1:
        sigma_prev = None
        sigma = list(m)
        alpha = [m[1] / m[0]]
        beta = [m[0]]
        ok = True
        for k in range(1, K):
            new = [0.0] * len(m)
            for l in range(k, 2 * K - k):
                s = sigma[l + 1] - alpha[k - 1] * sigma[l]
                if sigma_prev is not None:
                    s -= beta[k - 1] * sigma_prev[l]
                new[l] = s
            if new[k] <= 0:
                ok = False
                break
            alpha.append(new[k + 1] / new[k] - sigma[k] / sigma[k - 1])
            beta.append(new[k] / sigma[k - 1])
            sigma_prev, sigma = sigma, new
        if ok:
            return np.array(alpha), np.array(beta)
        K -= 1
    raise fp.FreeProbDomainError("moment sequence admits no positive quadrature rule")


def test_jacobi_single_pass_bitwise_equals_restarts():
    rng = np.random.default_rng(2024)
    shrunk = 0
    for _ in range(120):
        n_atoms = int(rng.integers(1, 14))
        locs = rng.uniform(-3, 3, n_atoms)
        weights = rng.dirichlet(np.ones(n_atoms))
        length = int(rng.integers(2, 50))
        m = [float(np.sum(weights * locs**l)) for l in range(length)]
        if rng.uniform() < 0.3:  # break positivity at a random depth
            m = [v * (1 + rng.normal(0, 1e-3)) for v in m]
        for K in (1, 3, 7, 12, 25):
            a1, b1 = fp._jacobi_from_moments(m, K)
            a2, b2 = _jacobi_by_restarts(m, K)
            assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()
            shrunk += a1.size < min(K, length // 2)
    assert shrunk > 50  # the shrinking branch is exercised
    with pytest.raises(fp.FreeProbDomainError):
        fp._jacobi_from_moments([1.0], 3)


# ---------------------------------------------------------------------------
# laws and limit-law constructors
# ---------------------------------------------------------------------------


def test_semicircle_law_values():
    sc = fp.semicircle(2.0)
    assert sc.moment(2) == pytest.approx(1.0)
    assert sc.moment(4) == pytest.approx(2.0)
    mass, _ = quad(sc.density, -2, 2, limit=200)
    assert abs(mass - 1.0) < 1e-10


def test_mp_law_density_and_atom():
    mp = fp.marchenko_pastur(0.5, 1.0)
    assert mp.atom_at_zero() == pytest.approx(0.5)
    xm, xp = 1.0 * (math.sqrt(0.5) - 1) ** 2, 1.0 * (math.sqrt(0.5) + 1) ** 2
    mass, _ = quad(mp.density, xm, xp, limit=200)
    assert abs(mass + 0.5 - 1.0) < 1e-8
    assert mp.moment(1) == pytest.approx(0.5)
    assert mp.moment(2) == pytest.approx(0.5 + 0.25)


def test_limit_law_a_cases():
    # delta_0 start gives the pure semicircle
    law = fp.limit_law_a([1.0] + [0.0] * 12, 0.7)
    assert isinstance(law, fp.Semicircle) and law.r == pytest.approx(2 * math.sqrt(0.7))
    # semicircle start: radii add in quadrature
    law = fp.limit_law_a(fp.semicircle(2 * math.sqrt(0.3)), 0.7)
    assert isinstance(law, fp.Semicircle) and law.r == pytest.approx(2.0, rel=1e-15)
    ref = fp.semicircle_moments(4.0, 12)
    assert np.abs(np.array(law.moments(12)) - np.array([float(v) for v in ref])).max() < 1e-10
    # t = 0 returns the start
    mu0 = fp.quartercircle_law()
    assert fp.limit_law_a(mu0, 0.0) is mu0


def test_limit_law_b_cases():
    # delta_0 start: sqrt(MP(1 + nu0, t))
    law = fp.limit_law_b([1.0] + [0.0] * 24, 1.0, 0.5)
    assert isinstance(law, fp.SquareRoot) and isinstance(law.sq_law, fp.MarchenkoPastur)
    assert law.sq_law.c == pytest.approx(2.0)
    assert law.sq_law.t == pytest.approx(0.5)
    # squared-side moments match the recurrence route (Catalans at nu0=0)
    law0 = fp.limit_law_b([1.0] + [0.0] * 24, 0.0, 1.0)
    for l in range(6):
        assert law0.sq_law.moment(l) == pytest.approx(float(catalan(l)), rel=1e-12)


def test_laguerre_beta_density_identity():
    # MP(1, 1/2) pushed through x -> x/2 has the beta(1/2, 3/2) density
    mp = fp.marchenko_pastur(1.0, 0.5)
    ys = np.linspace(0.02, 0.98, 25)
    lhs = 2.0 * mp.density(2.0 * ys)
    rhs = beta_dist.pdf(ys, 0.5, 1.5)
    assert np.abs(lhs - rhs).max() < 1e-10


# ---------------------------------------------------------------------------
# Stieltjes transforms
# ---------------------------------------------------------------------------


def test_stieltjes_examples():
    # delta_0
    assert fp.stieltjes([1.0, 0.0, 0.0], 2 + 1j) == pytest.approx(1 / (2 + 1j))
    # semicircle closed form at 2i
    g = fp.semicircle(2.0).stieltjes(2j)
    assert g == pytest.approx(1j * (1 - math.sqrt(2)))
    # scaling law G_{sc,R}(z) = (1/s) G_{sc,2}(z/s), s = R/2
    t = 0.9
    s = math.sqrt(2 * t + 1)
    z = 1.3 + 0.4j
    lhs = fp.semicircle(2 * s).stieltjes(z)
    rhs = fp.semicircle(2.0).stieltjes(z / s) / s
    assert lhs == pytest.approx(rhs)


def test_stieltjes_series_vs_quadrature_consistency():
    law = fp.limit_law_a(fp.quartercircle_law(), 0.5)
    z = 8 + 0.5j
    moments = law.moments(32)
    series = sum(moments[l] / z ** (l + 1) for l in range(33))
    assert abs(law.stieltjes(z) - series) < 1e-10


def test_herglotz_sign_everywhere():
    rng = np.random.default_rng(21)
    laws = [
        fp.semicircle(2.0),
        fp.marchenko_pastur(0.5, 1.0),
        fp.marchenko_pastur(2.0, 0.5),
        fp.quartercircle_law(),
        fp.limit_law_a(fp.quartercircle_law(), 1.0),
        fp.limit_law_b(fp.quartercircle_law(), 1.0, 0.5),
        fp.atom_law([0.3, 1.7]),
    ]
    for law in laws:
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4.0))
            assert fp.stieltjes(law, z).imag < 0


def test_mp_stieltjes_closed_vs_series():
    mp = fp.marchenko_pastur(2.0, 1.0)
    z = 11 + 2j
    moments = mp.moments(39)
    series = sum(moments[l] / z ** (l + 1) for l in range(40))
    assert abs(mp.stieltjes(z) - series) < 1e-9


# ---------------------------------------------------------------------------
# Stieltjes inversion
# ---------------------------------------------------------------------------


def test_invert_semicircle():
    sc = fp.semicircle(2.0)
    grid = np.linspace(-1.9, 1.9, 41)
    sd = fp.stieltjes_invert(sc.stieltjes, grid)
    assert np.abs(sd.density - sc.density(grid)).max() < 1e-3
    assert not sd.diverged.any()
    assert sd.clip_mass < 1e-12


def test_invert_mp_away_from_edges():
    mp = fp.marchenko_pastur(2.0, 1.0)
    xm = (math.sqrt(2) - 1) ** 2
    xp = (math.sqrt(2) + 1) ** 2
    grid = np.linspace(xm + 0.35, xp - 0.35, 31)
    sd = fp.stieltjes_invert(mp.stieltjes, grid)
    assert np.abs(sd.density - mp.density(grid)).max() < 1e-3


def test_invert_detects_atom():
    sd = fp.stieltjes_invert(lambda z: 1.0 / z, np.linspace(-0.5, 0.5, 11))
    locs = [loc for loc, w in sd.atoms]
    assert 0.0 in locs
    w = dict(sd.atoms)[0.0]
    assert abs(w - 1.0) < 0.05


# ---------------------------------------------------------------------------
# full-space jump-system limit
# ---------------------------------------------------------------------------


def test_dunkl_stieltjes_t0_and_symmetric_start():
    qc = fp.quartercircle_law()
    z = 1 + 1j
    assert fp.dunkl_limit_stieltjes(qc, 0.0, 0.0, z) == pytest.approx(qc.stieltjes(z))
    # symmetric start: odd part vanishes, G equals the even composite
    sc = fp.semicircle(2.0)
    g = fp.dunkl_limit_stieltjes(sc, 0.0, 0.5, z)
    mixed = fp.semicircle(2 * math.sqrt(2 * 0.5 + 1))
    assert g == pytest.approx(mixed.stieltjes(z), rel=1e-8)


def test_dunkl_quartercircle_composition_matches_closed_density():
    qc = fp.quartercircle_law()
    t = 0.5
    edge = 2 * math.sqrt(2 * t + 1)
    xs = np.linspace(-0.95 * edge, 0.95 * edge, 31)
    for x in xs:
        g = fp.dunkl_limit_stieltjes(qc, 0.0, t, complex(x, 1e-9))
        f = -g.imag / math.pi
        assert abs(f - fp.quartercircle_dunkl_density(t, x)) < 1e-4


def test_dunkl_characteristics_match_series_large_z():
    from besselsim.moments import limit_moments_dunkl

    qc = fp.quartercircle_law()
    c0 = list(fp.quartercircle_moments(40))
    for nu0, t in [(1.0, 0.25), (0.5, 0.5)]:
        ms = limit_moments_dunkl(c0, nu0, t, 40)
        for z in (6 + 1j, -5 + 2j, 7 - 1.5j):
            series = sum(float(ms.values[l]) / z ** (l + 1) for l in range(41))
            g = fp.dunkl_limit_stieltjes(qc, nu0, t, z)
            assert abs(g - series) < 1e-8


def _qc_characteristic_g(nu0):
    """(t, z) -> (G_even, G_odd) of the quartercircle start by the foot-point route."""
    qc = fp.quartercircle_law()
    return lambda t, z: fp.DunklLaw(qc, nu0, t).characteristic(z)[0]


def test_dunkl_foot_point_route_at_nu0_zero_equals_composition():
    # the nu0 > 0 route run at nu0 = 0 is an independent second route to the
    # closed composition
    qc = fp.quartercircle_law()
    g = _qc_characteristic_g(0.0)
    for t in (0.25, 0.5, 1.0):
        for z in (-1.5 + 0.5j, -0.5 + 0.5j, 0.5 + 0.5j, 1.5 + 0.5j, 0.3 + 2j, -3 + 0.1j):
            g_even, g_odd = g(t, z)
            assert abs(g_even + g_odd - fp.dunkl_limit_stieltjes(qc, 0.0, t, z)) < 1e-12


def test_dunkl_foot_point_rejects_roots_whose_path_leaves_the_half_plane():
    g_q0 = fp.semicircle(2.0).squared().cauchy
    nu0, t, z = 1.0, 0.5, 1 + 0.5j
    w0, _ = fp._dunkl_foot_point(g_q0, nu0, t, z)
    z0 = cmath.sqrt(w0) if cmath.sqrt(w0).imag > 0 else -cmath.sqrt(w0)
    assert z0.imag > z.imag and fp._foot_point_valid(z0 * z0, g_q0, nu0, t)
    # w(t; w0) = z^2 has another root in the lower half-plane of w
    end_map = lambda w: fp._characteristic_end(g_q0, nu0, t, w)  # noqa: E731
    spurious = fp._newton(end_map, z * z, -0.1 - 0.5j)
    assert abs(fp._characteristic_end(g_q0, nu0, t, spurious)[0] - z * z) < 1e-12
    assert abs(cmath.sqrt(spurious) ** 2 - z0 * z0) > 0.1
    assert not fp._foot_point_valid(spurious, g_q0, nu0, t)


def test_dunkl_characteristics_far_field_matches_64_term_series():
    from besselsim.moments import limit_moments_dunkl

    qc = fp.quartercircle_law()
    t, nu0 = 0.5, 1.0
    ms = limit_moments_dunkl(list(fp.quartercircle_moments(64)), nu0, t, 64).floats()
    for a in (0.3, 1.2, 2.5, -0.7, -2.9):
        z = 5 * cmath.exp(1j * a)
        series = sum(ms[l] / z ** (l + 1) for l in range(65))
        assert abs(fp.dunkl_limit_stieltjes(qc, nu0, t, z) - series) < 1e-12


def test_dunkl_characteristics_solve_even_and_odd_pdes():
    # central differences with h = 1e-5: the O(h^2) truncation is ~1e-10 here
    points = [(0.5, complex(x, 0.5)) for x in (-1.5, -0.5, 0.5, 1.5)]
    for nu0 in (0.5, 1.0):
        g = _qc_characteristic_g(nu0)
        g_even = lambda t, z: g(t, z)[0]  # noqa: E731
        g_odd = lambda t, z: g(t, z)[1]  # noqa: E731
        res = fp.pde_residual("dunkl_even", g_even, points, nu0=nu0, h=1e-5)
        assert res["max_abs"] <= 1e-8
        res = fp.pde_residual("dunkl_odd", g_odd, points, nu0=nu0, h=1e-5, even_evaluator=g_even)
        assert res["max_abs"] <= 1e-8


def test_dunkl_density_keeps_sign_and_gap_on_401_points():
    qc = fp.quartercircle_law()
    values = []

    def g(z):
        values.append((z, fp.dunkl_limit_stieltjes(qc, 1.0, 0.5, z)))
        return values[-1][1]

    grid = np.linspace(-4, 4, 401)
    sd = fp.stieltjes_invert(g, grid)
    assert len(values) == 4 * grid.size
    assert all(v.imag < 0 for _, v in values)
    # conjugate symmetry below the axis
    z, v = values[123]
    assert fp.dunkl_limit_stieltjes(qc, 1.0, 0.5, z.conjugate()) == v.conjugate()
    # nu0 > 0 repels mass from the origin
    assert sd.density[np.abs(grid) < 0.15].max() < 1e-8
    assert not sd.diverged.any()


def test_dunkl_law_refuses_negative_nu0_at_construction():
    for make in (fp.DunklLaw, fp.dunkl_limit_law):
        with pytest.raises(ValueError, match="nu0 must be nonnegative"):
            make(fp.quartercircle_law(), -0.5, 0.5)


def test_dunkl_even_part_agrees_with_b_composite():
    # the even component of the limit law equals the doubled-time sqrt
    # composite of the type B theory
    qc = fp.quartercircle_law()
    t, nu0 = 0.5, 1.0
    law = fp.dunkl_limit_law(qc, nu0, t)
    composite = fp.limit_law_b(qc, nu0, 2 * t).sq_law
    sq0 = fp.even_part_moments(list(fp.quartercircle_moments(32)))
    half = [sq0[2 * l] for l in range(17)]
    ref = limit_moments_b(half, nu0, 2 * t, 16).floats()
    # the composite's cumulant route and the Dunkl recurrence's even moments
    got = np.array([composite.moment(l) for l in range(17)])
    assert np.abs(got - ref).max() < 1e-8
    assert np.abs(np.array(law.moments(32)[0::2]) - ref).max() < 1e-8
    assert law.support_radius() == math.sqrt(composite.support_radius())


# ---------------------------------------------------------------------------
# closed-form density of the quartercircle start
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
def test_quartercircle_density_normalized(t):
    edge = 2 * math.sqrt(2 * t + 1)
    val, err = quad(lambda x: fp.quartercircle_dunkl_density(t, x), -edge, edge, limit=400)
    assert abs(val - 1.0) < 1e-6


def test_quartercircle_density_even_part_is_semicircle():
    t = 0.7
    edge = 2 * math.sqrt(2 * t + 1)
    xs = np.linspace(-0.999 * edge, 0.999 * edge, 200)
    even = 0.5 * (fp.quartercircle_dunkl_density(t, xs) + fp.quartercircle_dunkl_density(t, -xs))
    sc = fp.semicircle(edge).density(xs)
    assert np.abs(even - sc).max() < 1e-10


def test_quartercircle_density_t0_limit():
    xs = np.linspace(0.05, 1.95, 21)
    f0 = fp.quartercircle_dunkl_density(0.0, xs)
    assert np.abs(f0 - np.sqrt(4 - xs**2) / math.pi).max() < 1e-12
    assert np.all(fp.quartercircle_dunkl_density(0.0, -xs) == 0.0)


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------


def _series_evaluator(polys):
    def g(t, z):
        acc = 0j
        zp = z
        for p in polys:
            acc += float(p(t)) / zp
            zp *= z
        return acc

    return g


def test_burgers_residual_small():
    from besselsim.moments import limit_moment_polys_a

    polys = limit_moment_polys_a([1.0] + [0.0] * 40, 40)
    g = _series_evaluator(polys)
    points = [(t, 4 * cmath.exp(1j * a)) for t in (0.5, 1.0) for a in (0.4, 1.2, 2.0, -1.0)]
    res = fp.pde_residual("burgers_a", g, points)
    assert res["max_abs"] < 1e-6


def test_r_transform_residuals_exact():
    from besselsim.moments import limit_moment_polys_a

    polys = limit_moment_polys_a([1, HALF, HALF, Fraction(1, 4)] + [0] * 13, 16)
    k = fp.moments_to_cumulants(polys)
    res = fp.pde_residual("r_transform_a", cumulant_polys=k)
    assert res["max_abs"] == 0.0

    polys_b = limit_moment_polys_b([1, HALF, Fraction(1, 3)] + [0] * 11, Fraction(1), 13)
    kb = fp.moments_to_cumulants(polys_b)
    res = fp.pde_residual("r_transform_b", cumulant_polys=kb, nu0=Fraction(1))
    assert res["max_abs"] == 0.0


def test_pde_residual_validation():
    with pytest.raises(ValueError):
        fp.pde_residual("nope", lambda t, z: 0j, [(0.5, 4j)])
    with pytest.raises(ValueError):
        fp.pde_residual("burgers_a")
    with pytest.raises(ValueError):
        fp.pde_residual("dunkl_odd", lambda t, z: 0j, [(0.5, 6j)])


def test_limit_laws_match_recurrence_moments():
    # law-level outputs equal the moment-recurrence route
    from besselsim.moments import limit_moments_a as rec_a, limit_moments_b as rec_b

    qc = fp.quartercircle_law()
    t = 0.75
    law = fp.limit_law_a(qc, t)
    ref = rec_a(list(fp.quartercircle_moments(10)), t, 10).floats()
    got = np.array(law.moments(10))
    assert np.abs(got - ref).max() < 1e-10

    lawb = fp.limit_law_b(qc, 1.0, t)
    c0sq = [float(fp.quartercircle_moments(16)[2 * l]) for l in range(9)]
    refb = rec_b(c0sq, 1.0, t, 8).floats()
    gotb = np.array([lawb.sq_law.moment(l) for l in range(9)])
    assert np.abs(gotb - refb).max() < 1e-9


# ---------------------------------------------------------------------------
# closed forms and the characteristic (foot-point) route of every law
# ---------------------------------------------------------------------------


def _series(moments, z):
    return sum(m / z ** (l + 1) for l, m in enumerate(moments))


def test_quartercircle_transform_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    qc = fp.quartercircle_law()
    rng = np.random.default_rng(5)
    for _ in range(60):
        z = complex(rng.uniform(-4, 4), rng.choice([-1, 1]) * 10 ** rng.uniform(-6, 0.5))
        zz = mpmath.mpc(z.real, z.imag)
        cuts = [0.0, z.real, 2.0] if 0 < z.real < 2 else [0.0, 2.0]
        f = lambda x, p: mpmath.sqrt(4 - x * x) / mpmath.pi / (zz - x) ** p  # noqa: E731
        g_ref = complex(mpmath.quad(lambda x: f(x, 1), cuts))
        dg_ref = -complex(mpmath.quad(lambda x: f(x, 2), cuts))
        g, dg = qc.cauchy(z)
        assert abs(g - g_ref) <= 1e-11 * abs(g_ref)
        assert abs(dg - dg_ref) <= 1e-11 * abs(dg_ref)


@pytest.mark.parametrize("c,t", [(2.0, 0.5), (1.0, 1.0), (0.5, 1.0), (3.3, 0.2)])
def test_mp_cdf_closed_form_matches_quad(c, t):
    mp = fp.marchenko_pastur(c, t)
    xm, xp = t * (math.sqrt(c) - 1) ** 2, t * (math.sqrt(c) + 1) ** 2
    for x in np.linspace(-0.5, xp + 0.5, 29):
        cont = quad(mp.density, xm, min(max(x, xm), xp), limit=200)[0]
        expect = (mp.atom_at_zero() if x >= 0 else 0.0) + cont
        assert abs(mp.cdf(x) - expect) < 1e-9


def test_beta_law_closed_moments_and_transform():
    law = fp.beta_law(0.5, 1.5)
    for l in range(6):
        ref = quad(lambda x: x**l * beta_dist.pdf(x, 0.5, 1.5), 0, 1, limit=200)[0]
        assert law.moment(l) == pytest.approx(ref, rel=1e-8)
    for z in (2 + 1j, 0.5 + 0.1j, -1 + 0.3j):
        ref = quad(lambda x: (beta_dist.pdf(x, 0.5, 1.5) / (z - x)).real, 0, 1, limit=400)[0]
        ref += 1j * quad(lambda x: (beta_dist.pdf(x, 0.5, 1.5) / (z - x)).imag, 0, 1, limit=400)[0]
        assert abs(law.stieltjes(z) - ref) < 1e-9
    xs = np.linspace(-0.1, 1.1, 13)
    assert np.abs(law.cdf(xs) - beta_dist.cdf(xs, 0.5, 1.5)).max() < 1e-12


def test_half_line_square_root_transform_matches_quad():
    law = fp.sqrt_law(fp.marchenko_pastur(1.0, 0.5))
    edge = law.support_radius()
    for z in (1 + 0.5j, -0.01 + 0.05j, 0.3 + 0.05j, -3 + 0.1j, 5j, 0.8 - 0.2j):
        f = lambda x: law.density(x) / (z - x)  # noqa: E731
        ref = quad(lambda x: f(x).real, 0, edge, limit=400)[0] + 1j * quad(lambda x: f(x).imag, 0, edge, limit=400)[0]
        g, dg = law.cauchy(z)
        assert abs(g - ref) < 1e-10
        h = 1e-6
        assert abs(dg - (law.cauchy(z + h)[0] - law.cauchy(z - h)[0]) / (2 * h)) < 1e-7
    with pytest.raises(fp.FreeProbDomainError):
        law.moment(1)


def test_type_a_far_field_matches_moment_series():
    from besselsim.moments import limit_moments_a

    starts = [fp.quartercircle_law(), fp.Atoms([0.3, -1.0, 1.7], [0.2, 0.5, 0.3])]
    for mu0 in starts:
        for t in (0.5, 1.0):
            law = fp.limit_law_a(mu0, t)
            assert isinstance(law, fp.FreeConvA)
            rec = limit_moments_a(mu0.moments(60), t, 60).floats()
            for z in (8 + 1j, -7 + 3j, 6j, 9 - 2j):
                assert abs(law.stieltjes(z) - _series(rec, z)) < 1e-10


def test_type_b_far_field_matches_moment_series():
    from besselsim.moments import limit_moments_b

    qc = fp.quartercircle_law()
    c0sq = qc.squared().moments(60)
    for nu0, t in ((1.0, 0.5), (0.5, 0.25), (2.0, 1.0)):
        sq = fp.limit_law_b(qc, nu0, t).sq_law
        assert isinstance(sq, fp.FreeConvB)
        rec = limit_moments_b(c0sq, nu0, t, 60).floats()
        for w in (25 + 3j, 30 - 5j, -20 + 1j):
            assert abs(sq.stieltjes(w) - _series(rec, w)) < 1e-10


def test_burgers_and_transport_residuals_near_the_axis():
    qc = fp.quartercircle_law()
    # central differences with h = 1e-5: the O(h^2) truncation is ~1e-10 here
    g_a = lambda t, z: fp.limit_law_a(qc, t).stieltjes(z)  # noqa: E731
    points = [(0.5, complex(x, 0.3)) for x in (-1.5, 0.2, 1.0, 2.5)]
    assert fp.pde_residual("burgers_a", g_a, points, h=1e-5)["max_abs"] <= 1e-8
    for nu0 in (0.0, 1.0):
        g_b = lambda t, w: fp.limit_law_b(qc, nu0, t).sq_law.stieltjes(w)  # noqa: E731
        points = [(0.5, complex(x, 0.3)) for x in (0.5, 2.0, 4.0, 7.0)]
        res = fp.pde_residual("transport_b", g_b, points, nu0=nu0, h=1e-5)
        assert res["max_abs"] <= 1e-8


def test_composite_cdf_integrates_the_inverted_density():
    # FreeConvA run on a semicircle start must give the closed semicircle
    law = fp.FreeConvA(fp.semicircle(1.5), 0.7)
    exact = fp.semicircle(math.sqrt(1.5**2 + 4 * 0.7))
    xs = np.linspace(-2.5, 2.5, 41)
    assert np.abs(law.cdf(xs) - exact.cdf(xs)).max() < 1e-3
    assert np.abs(law.density(xs) - exact.density(xs)).max() < 1e-3
    # laws keep no state between evaluations
    before = dict(vars(law))
    law.cdf(xs), law.stieltjes(0.3 + 0.1j), law.moments(8)
    assert vars(law) == before


@pytest.mark.parametrize("nu0", [0.0, 0.1, 1.0])
def test_type_b_composite_cdf_has_mass_one_and_is_zero_below_the_support(nu0):
    # read from the squared side, nu0 = 0 put 0.19 of the mass below x = 0
    law = fp.limit_law_b(fp.quartercircle_law(), nu0, 0.5)
    r = law.support_radius()
    xs = np.linspace(-1.0, 1.1 * r, 301)
    cdf = law.cdf(xs)
    assert np.all(cdf[xs < 0] == 0.0) and law.cdf(-1e-9) == 0.0
    assert np.all(np.diff(cdf) >= 0.0)
    assert law.cdf(1.01 * r) == pytest.approx(1.0, abs=1e-12)
    sym = fp.sqrt_law(law.sq_law, symmetrized=True)
    assert sym.cdf(-1.01 * r) == 0.0
    assert sym.cdf(0.0) == pytest.approx(0.5, abs=1e-9)
    assert sym.cdf(1.01 * r) == pytest.approx(1.0, abs=1e-12)


def test_composite_derivatives_match_finite_differences():
    qc = fp.quartercircle_law()
    laws = [
        fp.limit_law_a(qc, 0.5),
        fp.limit_law_b(qc, 1.0, 0.5).sq_law,
        fp.dunkl_limit_law(qc, 0.0, 0.5),
        fp.dunkl_limit_law(qc, 1.0, 0.5),
        fp.sqrt_law(fp.limit_law_b(qc, 1.0, 0.5).sq_law, symmetrized=True),
    ]
    h = 1e-6
    for law in laws:
        for z in (0.7 + 0.4j, -1.2 + 0.3j, 2.5 - 0.5j):
            fd = (law.cauchy(z + h)[0] - law.cauchy(z - h)[0]) / (2 * h)
            assert abs(law.cauchy(z)[1] - fd) < 1e-6 * max(1.0, abs(fd))


def test_symmetrized_sqrt_law_keeps_its_closed_density():
    sq = fp.marchenko_pastur(2.0, 0.5)
    grid = np.linspace(-3.0, 3.0, 401)
    sd = fp.sqrt_law(sq, symmetrized=True).spectral_density(grid)
    assert np.array_equal(sd.density, np.abs(grid) * sq.density(grid * grid))
    assert not sd.diverged.any() and sd.atoms == []
    # atoms of the square split evenly between +-sqrt(y)
    sd = fp.sqrt_law(fp.atom_law([1.0, 4.0]), symmetrized=True).spectral_density(np.linspace(-3, 3, 13))
    assert sorted(loc for loc, _ in sd.atoms) == [-2.0, -1.0, 1.0, 2.0]
    assert all(w == pytest.approx(0.25, abs=1e-8) for _, w in sd.atoms)


def test_atoms_cauchy_matches_the_sum_over_atoms():
    rng = np.random.default_rng(5)
    locs, weights = rng.standard_normal(100), rng.dirichlet(np.ones(100))
    law = fp.Atoms(locs, weights)
    for z in (0.3 + 1e-3j, -1.2 + 0.5j, 4 - 2j):
        terms = [w / (z - x) for x, w in zip(locs, weights)]
        g, dg = law.cauchy(z)
        # float64 sums in another order agree to a few ulps of the sum of |terms|
        assert abs(g - sum(terms)) <= 1e-13 * sum(abs(v) for v in terms)
        d_terms = [-w / (z - x) ** 2 for x, w in zip(locs, weights)]
        assert abs(dg - sum(d_terms)) <= 1e-13 * sum(abs(v) for v in d_terms)
