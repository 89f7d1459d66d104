import math
from fractions import Fraction

import numpy as np
import pytest

from besselsim.harness import EmpiricalMeasure
from besselsim.moments import (
    MomentSequence,
    catalan,
    limit_moment_polys_a,
    limit_moment_polys_b,
    limit_moment_polys_dunkl,
    limit_moments_a,
    limit_moments_b,
    limit_moments_dunkl,
)
from besselsim.zeros import hermite_zeros

DELTA0 = [1] + [0] * 16


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796
    # recurrence C_{n+1} = sum C_k C_{n-k}
    for n in range(1, 12):
        assert catalan(n + 1) == sum(catalan(k) * catalan(n - k) for k in range(n + 1))
    # exact big-integer arithmetic well past 30
    assert catalan(40) == math.comb(80, 40) // 41


def test_a_recurrence_from_origin():
    ms = limit_moments_a(DELTA0, Fraction(1, 2), 12)
    for l in range(13):
        if l % 2:
            assert ms.values[l] == 0
        else:
            assert ms.values[l] == catalan(l // 2) * Fraction(1, 2) ** (l // 2)


def test_a_low_order_closed_forms():
    c0 = [1, Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)] + [0] * 10
    t = Fraction(3, 4)
    ms = limit_moments_a(c0, t, 3)
    assert ms.values[1] == c0[1]
    assert ms.values[2] == c0[2] + t
    assert ms.values[3] == c0[3] + 3 * c0[1] * t


def test_a_polynomial_degrees_and_catalan_leading():
    polys = limit_moment_polys_a(DELTA0, 16)
    for l in range(17):
        assert polys[l].degree <= l // 2
    for l in range(0, 17, 2):
        assert polys[l].c[-1] == catalan(l // 2)


def test_a_degree_bound_generic_start():
    rng = np.random.default_rng(9)
    c0 = [1] + [Fraction(int(v), 16) for v in rng.integers(-20, 20, 12)]
    polys = limit_moment_polys_a(c0, 12)
    for l, p in enumerate(polys):
        assert p.degree <= l // 2


def test_b_recurrence_examples():
    # delta_0, nu0=0: Catalan t^l (matches (sc(2 sqrt t))^2 = MP(1, t))
    ms = limit_moments_b(DELTA0, 0, Fraction(2), 8)
    for l in range(9):
        assert ms.values[l] == catalan(l) * Fraction(2) ** l
    # c_1(t) = c_1(0) + (nu0 + 1) t
    c0 = [1, Fraction(1, 2)] + [0] * 7
    ms = limit_moments_b(c0, Fraction(3), Fraction(1, 4), 1)
    assert ms.values[1] == Fraction(1, 2) + 4 * Fraction(1, 4)
    # delta_0, nu0=1, t=1: c_1 = 2
    assert limit_moments_b(DELTA0, 1, 1, 1).values[1] == 2


def test_dunkl_recurrence_examples():
    c0 = [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)] + [0] * 9
    nu0, t = Fraction(1), Fraction(2, 3)
    ms = limit_moments_dunkl(c0, nu0, t, 3)
    assert ms.values[1] == c0[1]  # c_1 constant in time
    assert ms.values[2] == c0[2] + 2 * (nu0 + 1) * t
    assert ms.values[3] == c0[3] + (2 * nu0 + 4) * c0[1] * t


def test_dunkl_even_chain_is_b_chain_at_doubled_time():
    rng = np.random.default_rng(4)
    even0 = [Fraction(int(v), 8) for v in rng.integers(1, 20, 7)]
    c0_dunkl = [1] + [0] * 13
    c0_b = [1] + [0] * 6
    for l in range(1, 7):
        c0_dunkl[2 * l] = even0[l]
        c0_b[l] = even0[l]
    pd = limit_moment_polys_dunkl(c0_dunkl, Fraction(1, 2), 12)
    pb = limit_moment_polys_b(c0_b, Fraction(1, 2), 6)
    for l in range(7):
        for t in (Fraction(1, 4), Fraction(1), Fraction(7, 3)):
            assert pd[2 * l](t) == pb[l](2 * t)


def test_empirical_moments_examples():
    ms = EmpiricalMeasure(np.array([1.0, -1.0])).moments(2)
    assert np.allclose(ms, [1.0, 0.0, 1.0])
    # Hermite zeros of H_3 over sqrt(3): second moment (1/9) * sum z^2 = 1/3
    z = hermite_zeros(3).zeros
    ms = EmpiricalMeasure(z / math.sqrt(3)).moments(2)
    assert abs(ms[2] - 1.0 / 3.0) < 1e-12
    ms = EmpiricalMeasure(np.array([2.5])).moments(4)
    assert np.allclose(ms, [2.5**l for l in range(5)])
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([]))


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence([0.5, 1.0])
    with pytest.raises(ValueError):
        limit_moments_a([1, 0], 1.0, 5)  # too few initial moments
    with pytest.raises(ValueError):
        limit_moments_b(DELTA0, -1.0, 1.0, 4)
    with pytest.raises(ValueError):
        limit_moments_a(DELTA0, 1.0, 100)  # order cap


def test_float_inputs_stay_float_and_match_exact():
    c0f = [1.0, 0.25, 0.5] + [0.0] * 10
    c0x = [1, Fraction(1, 4), Fraction(1, 2)] + [0] * 10
    mf = limit_moments_a(c0f, 0.75, 10)
    mx = limit_moments_a(c0x, Fraction(3, 4), 10)
    assert isinstance(mf.values[4], float)
    assert np.abs(mf.floats() - mx.floats()).max() < 1e-12


def test_finite_n_moment_convergence_is_order_one_over_n():
    # halving-N regression on a frozen type A run: |S_{N,l}(t) - c_l(t)|
    # should shrink by ~2x per doubling of N
    from besselsim.frozen import solve_frozen

    t, l = 0.5, 4
    errs = []
    for n in (25, 50, 100):
        traj = solve_frozen("a", np.zeros(n), [t])
        s = np.mean((traj.states[-1] / math.sqrt(n)) ** l)
        c = float(limit_moments_a([1] + [0] * l, t, l).values[l])
        errs.append(abs(s - c))
    assert errs[0] > errs[1] > errs[2]
    for a, b in zip(errs, errs[1:]):
        assert 1.4 < a / b < 2.6  # ~ 1/N scaling
