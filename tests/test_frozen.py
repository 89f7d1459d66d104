import math
import warnings

import numpy as np
import pytest

import besselsim.frozen as frozen
from besselsim.chambers import _PAIR_BLOCK, SingularConfigurationError
from besselsim.frozen import drift_a, drift_b, ou_transform_frozen, solve_frozen
from besselsim.freeprob import limit_law_b, quartercircle_law
from besselsim.harness import SCALE_SQRT_2N, SCALE_SQRT_N, EmpiricalMeasure, ks_distance, starting_profile
from besselsim.zeros import hermite_zeros, laguerre_zeros, profile_solution_b


def power_moment(states, l):
    """S_{N,l} of a type A state under the sqrt(N) scaling."""
    n = states.shape[-1]
    return np.sum((states / math.sqrt(n)) ** l, axis=-1) / n


def squared_moment(states, l):
    """Squared-side S_{N,l} of a type B state under the sqrt(2N) scaling."""
    n = states.shape[-1]
    return np.sum((states**2 / (2 * n)) ** l, axis=-1) / n


def test_drift_a_examples():
    assert np.allclose(drift_a([1.0, -1.0]), [0.5, -0.5])
    assert np.allclose(drift_a([5.0]), [0.0])
    z = hermite_zeros(3).zeros
    assert np.allclose(drift_a(z), z)


def test_drift_b_examples():
    assert np.allclose(drift_b([2.0], 1.0), [0.5])
    assert np.allclose(drift_b([3.0, 1.0], 2.0), [17.0 / 12.0, 7.0 / 4.0])
    # sqrt-Laguerre profile at t=1/2, c=0 is a fixed point of y -> drift(y) - y
    y = math.sqrt(2 * 0.5) * np.sqrt(laguerre_zeros(2, 1.0).zeros)
    assert np.abs(drift_b(y, 1.0) - y).max() < 1e-12


def test_drift_singular_configurations():
    with pytest.raises(SingularConfigurationError):
        drift_a([1.0, 1.0])
    with pytest.raises(SingularConfigurationError):
        drift_b([2.0, 2.0], 1.0)
    with pytest.raises(SingularConfigurationError):
        drift_b([2.0, 0.0], 1.0)


# The largest N whose pair matrix is a single row block of the pair-sum kernel.
_ONE_BLOCK = math.isqrt(_PAIR_BLOCK)


def _dense_pairs(num_col, y):
    """The dense pair-matrix row sums the kernel replaces: sum_{j != i} num_i/(y_i - y_j)."""
    d = y[:, None] - y[None, :]
    np.fill_diagonal(d, np.inf)
    return (num_col / d).sum(axis=1)


@pytest.mark.parametrize("n", [1, 2, 6, 150, _ONE_BLOCK - 1, _ONE_BLOCK, _ONE_BLOCK + 1, 2000])
def test_drifts_equal_the_dense_pair_matrix_bitwise(n):
    rng = np.random.default_rng(n)
    x = np.sort(rng.standard_normal(n))[::-1] * math.sqrt(n)
    mags = np.sort(np.abs(x))[::-1] + 0.01
    if n == 1:
        assert np.array_equal(drift_a(x), [0.0]) and np.array_equal(drift_b(mags, 0.0), [0.0])
    else:
        assert drift_a(x).tobytes() == _dense_pairs(1.0, x).tobytes()
        dense_b = _dense_pairs(2.0 * mags[:, None], mags * mags)
        assert drift_b(mags, 0.0).tobytes() == dense_b.tobytes()
        assert drift_b(mags, 1.5).tobytes() == (dense_b + 1.5 / mags).tobytes()
        # full-space Dunkl states carry coordinates of either sign
        assert drift_b(x, 0.0).tobytes() == _dense_pairs(2.0 * x[:, None], x * x).tobytes()


@pytest.mark.parametrize(
    "drift,x",
    [
        (drift_a, [1.0, 1.0]),
        (drift_a, np.append(np.linspace(5.0, -5.0, 1999), -5.0)),  # the pair sits in the last row block
        (lambda x: drift_b(x, 0.0), [2.0, 1.0, -2.0]),  # x and -x
        (lambda x: drift_b(x, 0.0), [0.0, -0.0]),
        (lambda x: drift_b(x, 1.0), [2.0, 0.0]),  # a zero coordinate with nu > 0
    ],
)
def test_singular_drifts_raise_without_a_warning(drift, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularConfigurationError):
            drift(np.asarray(x))


@pytest.mark.parametrize("x", [[1.0, math.nan, 0.0], [math.inf, 1.0]])
def test_non_finite_drift_input_is_named_as_such(x):
    for drift in (drift_a, lambda y: drift_b(y, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite") as err:
                drift(np.asarray(x))
        assert not isinstance(err.value, SingularConfigurationError)
        assert "coincident" not in str(err.value)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -1.0])
def test_type_b_refuses_a_nu_that_is_not_finite_and_nonnegative(nu):
    with pytest.raises(ValueError, match="nu must be nonnegative and finite"):
        solve_frozen("b", [3.0, 2.0, 1.0], [0.0, 0.5], nu=nu)
    with pytest.raises(ValueError, match="nu must be nonnegative and finite"):
        drift_b([3.0, 2.0, 1.0], nu)


def test_frozen_a_from_origin_is_hermite_profile():
    traj = solve_frozen("a", np.zeros(3), [0.0, 0.5])
    assert np.abs(traj.states[-1] - hermite_zeros(3).zeros).max() < 1e-8
    assert np.array_equal(traj.states[0], np.zeros(3))


def test_frozen_a_profile_preserved():
    n, c = 8, 1.0
    z = hermite_zeros(n).zeros
    traj = solve_frozen("a", c * z, [0.0, 0.3, 1.0, 2.0])
    for i, t in enumerate(traj.times):
        expect = math.sqrt(2 * t + c * c) * z
        rel = np.abs(traj.states[i] - expect).max() / np.abs(expect).max()
        assert rel < 1e-8


def test_frozen_b_from_origin_is_laguerre_profile():
    traj = solve_frozen("b", np.zeros(2), [0.0, 0.5], nu=1.0)
    expect = np.sqrt(laguerre_zeros(2, 1.0).zeros)
    assert np.abs(traj.states[-1] - expect).max() < 1e-8


def test_frozen_b_profile_preserved():
    n, nu, c = 5, 2.0, 1.0
    z = np.sqrt(laguerre_zeros(n, nu).zeros)
    traj = solve_frozen("b", c * z, [0.0, 1.0], nu=nu)
    expect = math.sqrt(2 * 1.0 + c * c) * z
    assert np.abs(traj.states[-1] - expect).max() / expect.max() < 1e-8


def test_frozen_a_exact_moment_identities():
    # S_1 is conserved; S_2 grows exactly at rate (N-1)/N.
    n = 50
    rng = np.random.default_rng(0)
    x0 = np.sort(rng.normal(size=n) * math.sqrt(n))[::-1]
    ts = np.linspace(0.0, 2.0, 9)
    traj = solve_frozen("a", x0, ts)
    s1 = power_moment(traj.states, 1)
    s2 = power_moment(traj.states, 2)
    assert np.abs(s1 - s1[0]).max() < 1e-8
    assert np.abs(s2 - s2[0] - ts * (n - 1) / n).max() < 1e-8


def test_frozen_b_exact_first_moment_identity():
    # squared-side S_1 grows exactly at rate N(N+nu-1)/N^2.
    n, nu = 50, 2.0
    rng = np.random.default_rng(1)
    x0 = np.sort(np.abs(rng.normal(size=n)) * math.sqrt(2 * n))[::-1]
    ts = np.linspace(0.0, 2.0, 9)
    traj = solve_frozen("b", x0, ts, nu=nu)
    s1 = squared_moment(traj.states, 1)
    assert np.abs(s1 - s1[0] - ts * (n + nu - 1) / n).max() < 1e-8


def test_ordering_preserved_along_trajectory():
    rng = np.random.default_rng(2)
    x0 = np.sort(rng.normal(size=12))[::-1] * 2
    traj = solve_frozen("a", x0, np.linspace(0, 1, 21))
    assert all(np.all(np.diff(s) < 0) for s in traj.states[1:])
    assert traj.min_gap > 0


def test_partial_cluster_bootstrap():
    # coincident pair splits and integrates; multiset near the exact
    # two-body solution sqrt(gap^2 + ...) is not available, so check
    # ordering, conservation, and the O(sqrt(delta)) start.
    x0 = np.array([1.0, 1.0, -2.0])
    traj = solve_frozen("a", x0, [0.0, 0.4])
    assert np.all(np.diff(traj.states[-1]) < 0)
    assert abs(traj.states[-1].sum() - x0.sum()) < 1e-8


def test_b_zero_cluster_bootstrap_with_nu():
    x0 = np.array([2.0, 0.0, 0.0])
    traj = solve_frozen("b", x0, [0.0, 0.2], nu=1.5)
    assert traj.states[-1][-1] > 0
    assert np.all(np.diff(traj.states[-1]) < 0)


def test_frozen_b_nu_zero_runs():
    # nu = 0: no wall repulsion; smallest particle decays but never crosses.
    x0 = np.array([3.0, 1.0, 0.3])
    traj = solve_frozen("b", x0, [0.0, 0.5], nu=0.0)
    assert traj.states[-1][-1] >= 0.0
    assert np.all(np.diff(traj.states[-1]) < 0)


def test_ou_transform_limits():
    n, lam = 6, 0.8
    z = hermite_zeros(n).zeros
    x0 = np.linspace(3, -3, n) * 2

    # t -> infinity: sqrt(1/lam) * Hermite zeros
    pt = ou_transform_frozen(x0, lam, 30.0)
    assert np.abs(pt.coords - math.sqrt(1 / lam) * z).max() < 1e-6

    # t = 0 returns the start
    p0 = ou_transform_frozen(x0, lam, 0.0)
    assert np.allclose(p0.coords, np.sort(x0)[::-1])

    # lam -> 0 approaches the plain flow
    plain = solve_frozen("a", x0, [0.0, 0.7]).states[-1]
    small = ou_transform_frozen(x0, 1e-6, 0.7).coords
    assert np.abs(small - plain).max() < 1e-4


def test_frozen_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_frozen("c", np.zeros(2), [0.0, 1.0])
    with pytest.raises(ValueError):
        solve_frozen("b", np.zeros(2), [0.0, 1.0])  # missing nu
    with pytest.raises(ValueError):
        solve_frozen("a", np.zeros(2), [1.0, 0.5])  # non-monotone grid


def test_output_grid_alignment():
    ts = [0.0, 0.123, 0.456, 1.0]
    traj = solve_frozen("a", np.linspace(2, -2, 4), ts)
    assert np.array_equal(traj.times, ts)
    assert traj.states.shape == (4, 4)


# The frozen Dunkl envelope of a quartercircle start at N = 150, T = 0.5,
# dt = 0.01: 51 record times and 257 fine nodes, 305 distinct.
ENV_T = 0.5
ENV_GRID = np.union1d(np.linspace(0.0, ENV_T, 51), np.linspace(0.0, ENV_T, 257))


def _envelope_start():
    x0 = starting_profile("quartercircle", 150, SCALE_SQRT_N, "B").coords
    return np.sort(np.abs(x0))[::-1]


@pytest.mark.parametrize("nu", [0.0, 150.0])
def test_steps_do_not_depend_on_the_output_grid(nu):
    mags = _envelope_start()
    assert ENV_GRID.size == 305
    dense = solve_frozen("b", mags, ENV_GRID, nu=nu)
    end = solve_frozen("b", mags, [0.0, ENV_T], nu=nu)
    assert (dense.n_accepted, dense.n_rejected) == (end.n_accepted, end.n_rejected)
    assert dense.n_accepted < 200
    assert np.array_equal(dense.states[-1], end.states[-1])
    assert dense.min_gap == end.min_gap


@pytest.mark.parametrize("nu", [0.0, 150.0])
def test_dense_nodes_match_a_solve_to_that_node(nu):
    mags = _envelope_start()
    traj = solve_frozen("b", mags, ENV_GRID, nu=nu)
    assert all(np.all(np.diff(s) < 0) and s[-1] > 0 for s in traj.states)
    for i in range(3, ENV_GRID.size, 31):
        ref = solve_frozen("b", mags, [0.0, ENV_GRID[i]], nu=nu).states[-1]
        assert np.all(np.abs(traj.states[i] - ref) <= 1e-9 * (1.0 + np.abs(ref)))


def test_repeated_and_late_grid_entries():
    x0 = np.array([3.0, 1.0, 0.4])
    base = solve_frozen("b", x0, [0.0, 0.2, 0.5], nu=1.0)
    repeated = solve_frozen("b", x0, [0.0, 0.2, 0.2, 0.5, 0.5], nu=1.0)
    assert np.array_equal(repeated.states, base.states[[0, 1, 1, 2, 2]])
    late = solve_frozen("b", x0, [0.2, 0.5], nu=1.0)
    assert np.array_equal(late.states, base.states[1:])
    assert (late.n_accepted, late.n_rejected) == (base.n_accepted, base.n_rejected)


@pytest.mark.parametrize("grid", [[0.0, math.inf], [0.0, math.nan, 1.0], [-1.0, 0.0]])
def test_grid_must_be_finite_nonnegative_and_nondecreasing(grid):
    with pytest.raises(ValueError, match="t_grid must be nonnegative, nondecreasing and finite"):
        solve_frozen("a", np.array([1.0, 0.0]), grid)


def test_grid_ending_inside_the_bootstrap_horizon():
    ts = [0.0, 0.25 * frozen._BOOT_DELTA, frozen._BOOT_DELTA]
    traj = solve_frozen("b", np.zeros(4), ts, nu=2.0)
    assert traj.n_accepted == traj.n_rejected == 0
    assert np.array_equal(traj.states[0], np.zeros(4))
    for i, t in enumerate(ts[1:], 1):
        assert np.allclose(traj.states[i], profile_solution_b(4, 2.0, 0.0, t).coords, rtol=1e-12, atol=0)


def test_right_hand_sides_per_step(monkeypatch):
    calls = []

    def counting(x, nu):
        calls.append(1)
        return drift_b(x, nu)

    monkeypatch.setattr(frozen, "drift_b", counting)
    traj = solve_frozen("b", _envelope_start(), ENV_GRID, nu=0.0)
    assert traj.n_rejected > 0
    assert len(calls) <= 6 * (traj.n_accepted + traj.n_rejected) + 1


@pytest.mark.parametrize("nu0", [0.1, 1.0])
def test_frozen_type_b_particles_converge_to_the_limit_cdf(nu0):
    # N * KS measured 0.62-0.66 at N = 50-200; the squared-side CDF read KS 0.033
    # at nu0 = 0.1 for every N
    law = limit_law_b(quartercircle_law(), nu0, 0.5)
    for n in (100, 200):
        x0 = starting_profile("quartercircle", n, SCALE_SQRT_2N, "B")
        traj = solve_frozen("b", x0, [0.0, 0.5], nu=nu0 * n)
        assert n * ks_distance(EmpiricalMeasure.from_point(traj.states[-1], SCALE_SQRT_2N), law) <= 1.0
