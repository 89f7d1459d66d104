import math
import time

import numpy as np
import pytest
from scipy.special import chndtr

import besselsim.stochastic as st
import warnings

from besselsim.chambers import (
    CHAMBER_A,
    CHAMBER_B,
    FULL_SPACE,
    ChamberPoint,
    Reflection,
    apply_reflection,
    project_to_chamber,
)
from besselsim.frozen import IntegrationError, drift_a, drift_b, ou_transform_frozen, solve_frozen
from besselsim.harness import SCALE_SQRT_2N, SCALE_SQRT_N, starting_profile
from besselsim.stochastic import (
    RngStream,
    simulate_bessel_a,
    simulate_bessel_b,
    simulate_bessel_ou,
    simulate_dunkl_b,
)
from besselsim.zeros import hermite_zeros


def test_multiplicity_validation():
    x0, s = np.array([1.0, 0.5]), RngStream(0, 0)
    simulate_bessel_a(x0, 0.5, 0.01, 0.01, s)
    simulate_bessel_a(x0, math.inf, 0.01, 0.01, s)
    simulate_bessel_ou(x0, 0.5, 1.0, 0.01, 0.01, s)
    simulate_bessel_b(x0, 1.0, 0.5, 0.01, 0.01, s)
    simulate_dunkl_b(x0, 0.0, math.inf, 0.01, 0.01, s)
    for bad_k in (0.4, math.nan):
        with pytest.raises(ValueError, match="k >= 1/2"):
            simulate_bessel_a(x0, bad_k, 0.01, 0.01, s)
        with pytest.raises(ValueError, match="k >= 1/2"):
            simulate_bessel_ou(x0, bad_k, 1.0, 0.01, 0.01, s)
    for simulate in (simulate_bessel_b, simulate_dunkl_b):
        with pytest.raises(ValueError, match="nu\\*beta >= 1/2"):
            simulate(x0, 0.5, 0.5, 0.01, 0.01, s)  # nu*beta < 1/2
        with pytest.raises(ValueError, match="beta >= 1/2"):
            simulate(x0, 1.0, 0.25, 0.01, 0.01, s)
        for bad_beta in (-math.inf, math.nan):  # -inf used to run the beta = +inf path
            with pytest.raises(ValueError, match="beta >= 1/2"):
                simulate(x0, 1.0, bad_beta, 0.01, 0.01, s)
        for bad_nu in (-1.0, math.nan, math.inf):  # NaN passes both nu < 0 and nu > 0 tests
            for beta in (math.inf, 1.0):
                with pytest.raises(ValueError, match="nu must be nonnegative"):
                    simulate(x0, bad_nu, beta, 0.01, 0.01, s)


def test_rng_streams_reproducible_and_independent():
    a = RngStream(9, 0).generator().standard_normal(8)
    b = RngStream(9, 0).generator().standard_normal(8)
    c = RngStream(9, 1).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_reproducibility_bitwise():
    x0 = np.linspace(2, -2, 6)
    p1 = simulate_bessel_a(x0, 1.0, 0.4, 0.01, RngStream(1, 3))
    p2 = simulate_bessel_a(x0, 1.0, 0.4, 0.01, RngStream(1, 3))
    assert np.array_equal(p1.states, p2.states)
    d1 = simulate_dunkl_b(np.array([2.0, 1.0, 0.5]), 1.0, math.inf, 0.3, 0.01, RngStream(2, 0))
    d2 = simulate_dunkl_b(np.array([2.0, 1.0, 0.5]), 1.0, math.inf, 0.3, 0.01, RngStream(2, 0))
    assert np.array_equal(d1.states, d2.states)
    assert d1.jump_log == d2.jump_log


def test_paths_stay_in_chamber():
    rng_seeds = range(4)
    x0 = np.linspace(3, -3, 8)
    for r in rng_seeds:
        p = simulate_bessel_a(x0, 0.5, 0.5, 0.01, RngStream(5, r))
        assert p.chamber == CHAMBER_A
        assert all(np.all(np.diff(s) <= 0) for s in p.states)
    x0b = np.linspace(4, 0.5, 6)
    for r in rng_seeds:
        p = simulate_bessel_b(x0b, 2.0, 1.0, 0.5, 0.01, RngStream(6, r))
        assert p.chamber == CHAMBER_B
        assert all(np.all(np.diff(s) <= 0) and s[-1] >= 0 for s in p.states)
        assert p.diagnostics["max_violation"] < 0.5  # scheme overshoot stays small


def test_frozen_delegation():
    # k = inf delegates to the deterministic flow
    p = simulate_bessel_a(np.zeros(3), math.inf, 0.5, 0.25, RngStream(0, 0))
    assert p.diagnostics.get("frozen")
    assert np.abs(p.states[-1] - hermite_zeros(3).zeros).max() < 1e-8
    pb = simulate_bessel_b(np.zeros(2), 1.0, math.inf, 0.5, 0.25, RngStream(0, 0))
    assert pb.diagnostics.get("frozen")


def test_single_particle_is_free_brownian_motion():
    # N=1 type A: no interaction; the path is x0 + B_t/sqrt(k)
    tot = []
    for r in range(400):
        p = simulate_bessel_a(np.array([1.0]), 4.0, 1.0, 0.05, RngStream(17, r))
        tot.append(p.states[-1][0])
    tot = np.array(tot)
    assert abs(tot.mean() - 1.0) < 3 * tot.std() / math.sqrt(400)
    assert abs(tot.var() - 1.0 / 4.0) < 0.06


def test_sum_is_driftless_gaussian():
    # sum_i X_i(t) - sum_i x0_i has mean 0 and variance N t / k
    n, k, t = 10, 1.0, 1.0
    tot = np.array(
        [
            simulate_bessel_a(np.zeros(n), k, t, 0.02, RngStream(7, r)).states[-1].sum()
            for r in range(500)
        ]
    )
    assert abs(tot.mean()) < 3 * math.sqrt(n * t / k / 500)
    assert abs(tot.var() - n * t / k) < 1.5


def test_b_single_particle_second_moment_drift():
    # E[X^2(t)] = x0^2 + (2 nu + 1/beta) t
    nu, beta, t = 1.0, 2.0, 0.5
    vals = np.array(
        [
            simulate_bessel_b(np.array([1.0]), nu, beta, t, 0.005, RngStream(3, r)).states[-1][0]
            ** 2
            for r in range(1500)
        ]
    )
    expect = 1.0 + (2 * nu + 1 / beta) * t
    assert abs(vals.mean() - expect) < 3 * vals.std() / math.sqrt(1500) + 0.02


def _ks_statistic(cdf_values):
    """Kolmogorov-Smirnov distance of a sample from its law, given the law's CDF at the sorted sample."""
    n = cdf_values.size
    return max((np.arange(1, n + 1) / n - cdf_values).max(), (cdf_values - np.arange(n) / n).max())


@pytest.mark.parametrize("system", ["a", "b"])
def test_squared_norm_follows_its_exact_noncentral_chi2_law(system):
    # c |X_T|^2 / T is noncentral chi^2, c = k (type A) or beta (type B), with
    # k N(N - 1) + N (A) or beta (2 N(N - 1) + 2 N nu) + N (B) degrees of freedom
    # and noncentrality c |x0|^2 / T: c |X|^2 is a squared Bessel process
    n, T, dt, reps = 8, 0.5, 0.01, 4000
    x0 = 0.3 * np.random.default_rng(0).standard_normal(n)
    if system == "a":
        c, dof = 1.0, 1.0 * n * (n - 1) + n
        run = lambda s: simulate_bessel_a(x0, c, T, dt, s)
    else:
        nu, c = 2.0, 1.0
        dof = c * (2 * n * (n - 1) + 2 * n * nu) + n
        run = lambda s: simulate_bessel_b(x0, nu, c, T, dt, s)
    stat = np.array([c * np.sum(run(RngStream(41, r)).states[-1] ** 2) / T for r in range(reps)])
    ks = _ks_statistic(chndtr(np.sort(stat), dof, c * (x0 @ x0) / T))
    # 1.63 is the 1% point of the Kolmogorov law of sqrt(reps) KS
    assert math.sqrt(reps) * ks < 1.63


def test_b_empirical_first_moment_uses_shifted_nu():
    # finite-N squared-side first moment drifts at (N + nu + 1/(2 beta) - 1)/N
    n, nu, beta, t = 5, 2.0, 1.0, 0.4
    s1 = []
    for r in range(800):
        p = simulate_bessel_b(np.linspace(3, 1, n), nu, beta, t, 0.005, RngStream(23, r))
        s1.append(np.sum(p.states[-1] ** 2) / (2 * n * n) - np.sum(p.states[0] ** 2) / (2 * n * n))
    s1 = np.array(s1)
    expect = t * (n + nu + 1 / (2 * beta) - 1) / n
    assert abs(s1.mean() - expect) < 3 * s1.std() / math.sqrt(800) + 0.01


def test_ou_lambda_zero_is_bessel_a_bitwise():
    x0 = np.linspace(2, -2, 4)
    pa = simulate_bessel_a(x0, 1.0, 0.3, 0.01, RngStream(5, 1))
    po = simulate_bessel_ou(x0, 1.0, 0.0, 0.3, 0.01, RngStream(5, 1), mode="direct")
    assert np.array_equal(pa.states, po.states)


def test_ou_transform_vs_direct_moments():
    n, lam, t, L = 5, 1.0, 0.5, 2
    x0 = np.linspace(2, -2, n)
    sd, st_ = [], []
    for r in range(300):
        pd = simulate_bessel_ou(x0, 1.0, lam, t, 0.005, RngStream(31, r), "direct")
        pt = simulate_bessel_ou(x0, 1.0, lam, t, 0.005, RngStream(77, r), "transform")
        sd.append(np.mean((pd.states[-1] / math.sqrt(n)) ** L))
        st_.append(np.mean((pt.states[-1] / math.sqrt(n)) ** L))
    sd, st_ = np.array(sd), np.array(st_)
    se = math.hypot(sd.std() / math.sqrt(300), st_.std() / math.sqrt(300))
    assert abs(sd.mean() - st_.mean()) < 3 * se


def test_ou_frozen_long_time_profile():
    lam = 1.0
    p = simulate_bessel_ou(np.linspace(4, -4, 6), math.inf, lam, 20.0, 10.0, RngStream(0, 0))
    assert np.abs(p.states[-1] - math.sqrt(1 / lam) * hermite_zeros(6).zeros).max() < 1e-6


@pytest.mark.parametrize(
    "lam,T,dt",
    [(-0.5, 3.0, 0.1), (0.7, 2.0, 0.05), (1.0, 20.0, 2.0), (2.0, 4.0, 0.2)]
    # restarts every 2/|lam|, at record times and off them
    + [(-0.5, 30.0, 3.0), (3.0, 10.0, 0.7)],
)
def test_ou_frozen_path_is_the_transform_at_every_record_time(lam, T, dt):
    x0 = np.linspace(3, -2, 8)
    p = simulate_bessel_ou(x0, math.inf, lam, T, dt, RngStream(0, 0))
    for t, state in zip(p.times, p.states):
        expect = ou_transform_frozen(x0, lam, float(t)).coords
        assert np.abs(state - expect).max() <= 1e-8 * np.abs(expect).max()


def test_ou_frozen_path_past_the_float64_range_of_exp_2_lam_t():
    # 2 lam T = 800: one warped solve would have to reach exp(800)
    lam, x0 = 10.0, np.linspace(3, -2, 5)
    p = simulate_bessel_ou(x0, math.inf, lam, 40.0, 8.0, RngStream(0, 0))
    assert np.abs(p.states[1:] - math.sqrt(1 / lam) * hermite_zeros(5).zeros).max() < 1e-9
    # the finite-k transform restarts its warp too; E sum X^2 follows the Ito
    # identity dS = (N(N-1) + N/k - 2 lam S) dt
    n, k, T, reps = 5, 2.0, 40.0, 25
    s = np.empty(reps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in range(reps):
            p = simulate_bessel_ou(x0, k, lam, T, 4.0, RngStream(3, r), "transform")
            assert np.isfinite(p.states).all()
            s[r] = np.sum(p.states[-1] ** 2)
    decay = math.exp(-2 * lam * T)
    expect = decay * np.sum(x0**2) + (1 - decay) * (n * (n - 1) + n / k) / (2 * lam)
    assert abs(s.mean() - expect) < 3 * s.std(ddof=1) / math.sqrt(reps)
    # exp(-lam T) = exp(800) overflows in every route
    for k, mode in [(2.0, "direct"), (2.0, "transform"), (math.inf, "direct")]:
        with pytest.raises(ValueError, match="lam = -10, T = 80"):
            simulate_bessel_ou(x0, k, -10.0, 80.0, 1.0, RngStream(0, 0), mode)


def test_ou_transform_without_restart_is_the_chained_lam_zero_path_bitwise():
    # |lam| T = 2: no restart, so one warped grid carries the whole path; the
    # coincident pair splits within the first warped step and runs from there
    x0, k, lam, T, dt = np.array([2.0, 1.0, 0.0, 0.0, -1.0, -2.0]), 1.0, -1.0, 2.0, 0.02
    p = simulate_bessel_ou(x0, k, lam, T, dt, RngStream(8, 1), mode="transform")
    grid, rng = st._record_grid(T, dt), RngStream(8, 1).generator()
    warped = np.expm1(2 * lam * grid) / (2 * lam)
    start, x, t = st._em_start(x0, CHAMBER_A, 0.0, warped[1])
    assert 0.0 < t < warped[1] and np.array_equal(start, x0)
    states = [start]
    diag = {"max_violation": 0.0, "min_gap": np.inf} | dict.fromkeys(st._EM_COUNTERS, 0)
    for w in np.diff(warped):
        _, seg, d = st._em_path(x, x, t, drift_a, k, CHAMBER_A, w, w, rng)
        x, t = seg[-1], 0.0
        states.append(x)
        diag["max_violation"] = max(diag["max_violation"], d["max_violation"])
        diag["min_gap"] = min(diag["min_gap"], d["min_gap"])
        for key in st._EM_COUNTERS:
            diag[key] += d[key]
    expect = np.array([math.exp(-lam * t) * y for t, y in zip(grid, states)])
    assert expect.tobytes() == p.states.tobytes()
    assert diag == p.diagnostics


def test_dunkl_jump_rates_examples():
    blocks = dict(st._jump_blocks(np.array([2.0]), 1.0))
    assert blocks["flip"].tolist() == [1.0 / 8.0]
    assert blocks["sign_swap"].size == 0
    blocks = dict(st._jump_blocks(np.array([2.0, 1.0]), 0.0))
    assert blocks["sign_swap"].tolist() == [pytest.approx(1.0 / 9.0)]
    assert "flip" not in blocks
    assert [kind for kind, _ in st._jump_blocks(np.array([2.0, 1.0]), 1.0)] == ["flip", "sign_swap"]
    # invariance under global sign flip
    x = np.array([1.5, -0.7, 0.3])
    for (k1, r1), (k2, r2) in zip(st._jump_blocks(x, 2.0), st._jump_blocks(-x, 2.0)):
        assert k1 == k2 and np.array_equal(r1, r2)


def _slots(v):
    """Slot state of a full-space point: sorted magnitudes, their signs, their labels."""
    labels = np.argsort(np.abs(v))[::-1]
    return np.abs(v)[labels], np.where(v[labels] < 0, -1.0, 1.0), labels


def test_slot_rates_total_the_full_space_rates():
    rng = np.random.default_rng(5)
    for n, nu in ((1, 1.5), (2, 0.0), (7, 2.0), (12, 0.5), (40, 3.0)):
        for _ in range(5):
            v = rng.uniform(-3.0, 3.0, n)
            rho, sigma, _ = _slots(v)
            # one envelope node: the bounds are the rates at that state
            _, _, _, over_sum, over_diff = st._slot_bounds(rho[None, :], nu)
            iu, ju = st._pairs(n)
            slot = {
                "flip": over_sum[:n].sum(),
                "sign_swap": np.where(sigma[iu] == sigma[ju], over_sum[n:], over_diff[n:]).sum(),
            }
            full = {"flip": 0.0} | {k: r.sum() for k, r in st._jump_blocks(v, nu)}
            for kind, total in full.items():
                assert slot[kind] == pytest.approx(total, rel=1e-12, abs=0.0)
    st._check_bound(np.array([4.0]), np.array([4.0]), np.array([0.1]))
    with pytest.raises(RuntimeError, match="above its thinning bound"):
        st._check_bound(np.array([1.0, 4.0]), np.array([2.0, 3.9]), np.array([0.05, 0.1]))


def test_sign_blind_slot_bound_dominates_both_rates():
    rng = np.random.default_rng(8)
    n = 9
    for _ in range(20):
        rho = -np.sort(-rng.uniform(0.2, 3.0, (3, n)), axis=1)  # three envelope nodes
        rho[1, 4] = rho[1, 5]  # a coincident pair and a zero magnitude at one node
        rho[2, -1] = 0.0
        rho = -np.sort(-rho, axis=1)
        _, _, bound, over_sum, over_diff = st._slot_bounds(rho, 1.0)
        bound, over_sum, over_diff = bound[n:], over_sum[n:], over_diff[n:]
        iu, ju = st._pairs(n)
        assert (over_diff == 0.0).any() and (over_sum > 0.0).all()
        assert np.array_equal(bound, np.where(over_diff > 0.0, over_diff, over_sum))
        # rates of either sign relation at interpolated points between the nodes
        for s in rng.uniform(0.0, 1.0, 20):
            j = rng.integers(0, 2)
            r = (1.0 - s) * rho[j] + s * rho[j + 1]
            same = 1.0 / (r[iu] + r[ju]) ** 2
            assert np.all(same <= bound * (1.0 + 1e-12))
            on = over_diff > 0.0
            assert np.all(1.0 / (r[iu] - r[ju])[on] ** 2 <= bound[on] * (1.0 + 1e-12))


def test_slot_moves_match_apply_reflection():
    v = np.random.default_rng(6).uniform(-3.0, 3.0, 6)
    refls = [Reflection("flip", 2), Reflection("sign_swap", 1, 4), Reflection("sign_swap", 3, 5)]
    for refl in refls:
        rho, sigma, labels = _slots(v)
        slot_of = np.argsort(labels)
        st._slot_move(sigma, labels, slot_of[refl.i], None if refl.j is None else slot_of[refl.j])
        w = np.empty(v.size)
        w[labels] = sigma * rho
        assert np.array_equal(w, apply_reflection(ChamberPoint(v, FULL_SPACE), refl).coords)


@pytest.mark.parametrize("dt", [0.1, 0.5])
def test_dunkl_frozen_flip_count_is_exact(dt):
    # one particle: x^2 = x0^2 + 2 nu t, and flips at nu/(2 x^2) form a Poisson
    # count of mean (1/4) ln(1 + 2 nu T / x0^2) whatever the record step
    x0, nu, t, reps = 0.5, 1.0, 0.5, 4000
    counts = np.array(
        [
            len(simulate_dunkl_b(np.array([x0]), nu, math.inf, t, dt, RngStream(71, r)).jump_log)
            for r in range(reps)
        ]
    )
    exact = 0.25 * math.log1p(2.0 * nu * t / x0**2)
    assert abs(counts.mean() - exact) < 4.0 * counts.std(ddof=1) / math.sqrt(reps)


def test_dunkl_frozen_jump_counters():
    x0 = np.array([2.0, -1.0, 0.5, 0.25])
    p, again = (simulate_dunkl_b(x0, 1.0, math.inf, 0.3, 0.01, RngStream(12, 3)) for _ in range(2))
    d = p.diagnostics
    assert {k: d[k] for k in st._JUMP_COUNTERS} == {k: again.diagnostics[k] for k in st._JUMP_COUNTERS}
    assert all(type(d[k]) is int for k in st._JUMP_COUNTERS)
    kinds = [r.kind for _, r in p.jump_log]
    assert [d["flips"], d["sign_swaps"]] == [kinds.count(k) for k in ("flip", "sign_swap")]
    assert d["flips"] + d["sign_swaps"] == len(p.jump_log) <= d["proposals"]
    assert d["flips"] > 0 and d["sign_swaps"] > 0


def test_dunkl_finite_beta_counters():
    x0 = np.array([2.0, -1.0, 0.5, 0.25])
    keys = {"substeps", "floor_substeps", "flips", "sign_swaps", "min_gap"}
    p, again = (simulate_dunkl_b(x0, 2.0, 0.5, 0.3, 0.01, RngStream(12, 3)) for _ in range(2))
    d = p.diagnostics
    assert set(d) == keys and d == again.diagnostics
    assert all(type(d[k]) is int for k in keys - {"min_gap"})
    kinds = [r.kind for _, r in p.jump_log]
    assert [d["flips"], d["sign_swaps"]] == [kinds.count(k) for k in ("flip", "sign_swap")]
    assert d["flips"] + d["sign_swaps"] == len(p.jump_log)
    assert d["flips"] > 0 and d["sign_swaps"] > 0
    assert d["substeps"] >= p.times.size - 1 and 0 <= d["floor_substeps"] <= d["substeps"]
    # the smallest distance of |x| to its neighbours and to 0 (nu > 0) is the start's or later
    mags = np.sort(np.abs(x0))
    assert 0.0 < d["min_gap"] <= min(mags[0], np.diff(mags).min())
    # a near-collision start is stepped at the dt/1000 floor
    q = simulate_dunkl_b(np.array([1.0, 0.9999]), 1.0, 1.0, 0.01, 0.01, RngStream(12, 3)).diagnostics
    assert q["floor_substeps"] >= 1 and q["min_gap"] == pytest.approx(1e-4)


def test_dunkl_finite_beta_zero_start_runs_from_its_split_time():
    # the split at t = 1e-3 is not recorded at t = 0: the path records the zero
    # start there, jumps only after the split time and ends at T
    for r in range(4):
        p = simulate_dunkl_b(np.zeros(4), 1.0, 1.0, 0.05, 0.01, RngStream(14, r))
        assert not p.states[0].any() and p.states[1:].all()
        assert p.times[-1] == 0.05 and p.jump_log
        assert min(t for t, _ in p.jump_log) > 1e-3
        assert max(t for t, _ in p.jump_log) <= 0.05 + 1e-12


def test_dunkl_frozen_even_moments_deterministic():
    x0 = np.linspace(5.0, 1.0, 12)
    vals = []
    for s in range(5):
        p = simulate_dunkl_b(x0, 1.0, math.inf, 0.4, 0.01, RngStream(100 + s, 0))
        vals.append([np.sum(p.states[-1] ** l) for l in (2, 4, 6)])
    vals = np.array(vals)
    assert np.abs(vals - vals[0]).max() < 1e-9 * np.abs(vals).max()


def test_dunkl_frozen_magnitudes_match_frozen_b():
    x0 = np.linspace(5.0, 1.0, 12)
    p = simulate_dunkl_b(x0, 1.0, math.inf, 0.4, 0.01, RngStream(3, 0))
    traj = solve_frozen("b", x0, [0.0, 0.4], nu=1.0)
    assert np.abs(np.sort(np.abs(p.states[-1])) - np.sort(traj.states[-1])).max() < 1e-9


def test_dunkl_no_flips_without_nu_term():
    # nu = 0, positive start: signs appear only via sign-swaps
    x0 = np.linspace(4.0, 1.0, 6)
    p = simulate_dunkl_b(x0, 0.0, math.inf, 0.2, 0.01, RngStream(8, 0))
    kinds = {r.kind for _, r in p.jump_log}
    assert "flip" not in kinds
    assert kinds <= {"sign_swap"}


def test_dunkl_sum_martingale_frozen():
    x0 = np.linspace(4.0, 1.0, 10)
    tot = np.array(
        [
            simulate_dunkl_b(x0, 1.0, math.inf, 0.3, 0.01, RngStream(19, r)).states[-1].sum()
            for r in range(300)
        ]
    )
    assert abs(tot.mean() - x0.sum()) < 3 * tot.std() / math.sqrt(300)


def test_dunkl_finite_beta_sum_martingale():
    x0 = np.array([3.0, 1.5, 0.7])
    tot = np.array(
        [
            simulate_dunkl_b(x0, 1.0, 2.0, 0.3, 0.005, RngStream(21, r)).states[-1].sum()
            for r in range(300)
        ]
    )
    assert abs(tot.mean() - x0.sum()) < 3 * tot.std() / math.sqrt(300)


def test_dunkl_finite_beta_second_moment_generator_rate():
    # d/dt E[sum X^2] = 2 N (N-1) + N (2 nu + 1/beta)
    n, nu, beta, t = 3, 1.0, 2.0, 0.3
    x0 = np.array([3.0, 1.5, 0.7])
    vals = np.array(
        [
            np.sum(simulate_dunkl_b(x0, nu, beta, t, 0.005, RngStream(22, r)).states[-1] ** 2)
            for r in range(400)
        ]
    )
    expect = np.sum(x0**2) + t * (2 * n * (n - 1) + n * (2 * nu + 1 / beta))
    assert abs(vals.mean() - expect) < 3 * vals.std() / math.sqrt(400) + 0.05


def test_dunkl_fullspace_chamber_tag_and_jump_log():
    p = simulate_dunkl_b(np.array([2.0, -1.0]), 1.0, math.inf, 0.2, 0.01, RngStream(4, 0))
    assert p.chamber == FULL_SPACE
    times = [t for t, _ in p.jump_log]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_projection_violation_shrinks_with_dt():
    x0 = np.linspace(3, -3, 8)
    viols = []
    for dt in (0.04, 0.0025):
        pooled = 0.0
        for r in range(6):
            p = simulate_bessel_a(x0, 0.5, 0.3, dt, RngStream(55, r))
            pooled = max(pooled, p.diagnostics["max_violation"])
        viols.append(pooled)
    assert viols[1] < viols[0]


def test_dunkl_envelope_solved_once_per_start(monkeypatch):
    envs = []

    def counting(*args, **kwargs):
        envs.append(solve_frozen(*args, **kwargs))
        return envs[-1]

    st._dunkl_envelope.cache_clear()
    monkeypatch.setattr(st, "solve_frozen", counting)
    x0 = np.array([2.0, -1.0, 0.5])
    streams = [RngStream(3, 0), RngStream(3, 1), RngStream(4, 0), RngStream(5, 7)]
    paths = [simulate_dunkl_b(x0, 1.0, math.inf, 0.2, 0.01, s) for s in streams]
    assert len(envs) == 1
    assert all(
        (p.diagnostics["rk_accepted"], p.diagnostics["rk_rejected"])
        == (envs[0].n_accepted, envs[0].n_rejected)
        for p in paths
    )
    assert envs[0].n_accepted > 0
    assert not envs[0].states.flags.writeable
    with pytest.raises(ValueError):
        envs[0].states[0, 0] = 0.0
    simulate_dunkl_b(x0, 2.0, math.inf, 0.2, 0.01, RngStream(3, 0))
    assert [e.nu for e in envs] == [1.0, 2.0]


def test_dunkl_envelope_reuse_is_bitwise():
    x0 = np.array([2.5, -1.5, 1.0, -0.25])
    warm = [simulate_dunkl_b(x0, 1.0, math.inf, 0.3, 0.01, RngStream(6, r)) for r in range(2)]
    st._dunkl_envelope.cache_clear()
    cold = simulate_dunkl_b(x0, 1.0, math.inf, 0.3, 0.01, RngStream(6, 1))
    assert st._dunkl_envelope.cache_info().misses == 1
    assert np.array_equal(warm[1].states, cold.states)
    assert warm[1].jump_log == cold.jump_log
    assert warm[1].diagnostics == cold.diagnostics


def _reference_slot_bounds(rho, nu):
    """Reference copy of the per-interval bounds: flip bounds, sign-blind pair bounds, over_sum, over_diff."""
    m = rho.min(axis=0)
    d = np.concatenate(([0.0], np.cumsum((rho[:, :-1] - rho[:, 1:]).min(axis=0))))
    iu, ju = st._pairs(m.size)
    over_sum = st._excluded_inverse_square(m[iu] + m[ju])
    over_diff = st._excluded_inverse_square(d[ju] - d[iu])
    return 0.5 * nu * st._excluded_inverse_square(m), np.maximum(over_sum, over_diff), over_sum, over_diff


def _reference_proposals(nodes, g, nu, ends, rng):
    """Reference copy of the per-interval sampler: bounds, draws, tests and survivors of one record interval."""
    flip, pair, over_sum, over_diff = _reference_slot_bounds(nodes, nu)
    bound = np.concatenate((flip, pair))
    cum = np.cumsum(bound)
    k = int(rng.poisson(cum[-1] * (g[-1] - g[0])))
    if k == 0:
        return 0, []
    u = rng.random((3, k))
    t = g[0] + (g[-1] - g[0]) * np.sort(u[0])
    pick = np.minimum(cum.searchsorted(u[1] * cum[-1], "right"), cum.searchsorted(cum[-1]))
    a, b, w = ends[0][pick], ends[1][pick], bound[pick]
    j = np.minimum(g.searchsorted(t, "right") - 1, g.size - 2)
    s = (t - g[j]) / (g[j + 1] - g[j])
    ra = (1.0 - s) * nodes[j, a] + s * nodes[j + 1, a]
    rb = (1.0 - s) * nodes[j, b] + s * nodes[j + 1, b]
    flips = b < 0
    scale = np.where(flips, 0.5 * nu, 1.0)
    on = [np.concatenate((flip, over))[pick] > 0.0 for over in (over_sum, over_diff)]
    same = np.divide(scale, np.where(flips, ra, ra + rb) ** 2, out=np.zeros(k), where=on[0])
    opp = np.divide(scale, np.where(flips, ra, ra - rb) ** 2, out=np.zeros(k), where=on[1])
    st._check_bound(np.maximum(same, opp), w, t)
    w *= u[2]
    same_ok, opp_ok = w < same, w < opp
    live = np.flatnonzero(same_ok | opp_ok)
    return k, [x[live].tolist() for x in (t, a, b, same_ok, opp_ok)]


def _reference_frozen_dunkl(x0, nu, T, dt, stream):
    """Reference copy of the frozen Dunkl path, drawing and testing each record interval's proposals in turn."""
    rng = stream.generator()
    times = st._record_grid(T, dt)
    n_fine = max(times.size - 1, min(4096, max(256, int(round(T / dt)))))
    grid = np.union1d(times, np.linspace(0.0, T, n_fine + 1))
    labels = np.argsort(np.abs(x0))[::-1]
    rho = solve_frozen("b", np.abs(x0)[labels], grid, nu=nu).states
    sigma = np.where(x0[labels] < 0, -1.0, 1.0)
    if not x0.any():
        labels, sigma = rng.permutation(x0.size), rng.choice([-1.0, 1.0], x0.size)
    n = labels.size
    iu, ju = st._pairs(n)
    ends = np.concatenate((np.arange(n), iu)), np.concatenate((np.full(n, -1), ju))
    rec = np.searchsorted(grid, times)
    states = np.empty((times.size, n))
    states[0, labels] = sigma * rho[rec[0]] + 0.0
    jump_log = []
    counts = dict.fromkeys(st._JUMP_COUNTERS, 0)
    for idx in range(1, times.size):
        j0, j1 = int(rec[idx - 1]), int(rec[idx])
        k, batch = _reference_proposals(rho[j0 : j1 + 1], grid[j0 : j1 + 1], nu, ends, rng)
        counts["proposals"] += k
        for t, a, b, by_sum, by_diff in zip(*batch):
            if b < 0:
                kind, refl, b = "flip", (int(labels[a]),), None
            elif by_sum if sigma[a] == sigma[b] else by_diff:
                kind, refl = "sign_swap", sorted((int(labels[a]), int(labels[b])))
            else:
                continue
            jump_log.append((t, Reflection(kind, *refl)))
            counts[kind + "s"] += 1
            st._slot_move(sigma, labels, a, b)
        states[idx, labels] = sigma * rho[j1] + 0.0
    return states, jump_log, counts


def _oracle_starts():
    rng = np.random.default_rng(2022)
    for n in (1, 2, 12, 40, 150):
        # magnitudes at least 0.2 apart over N: near-coincident ones make millions of proposals
        mags = np.linspace(0.2, 3.0, n) + rng.uniform(0.0, 0.1, n) * 2.8 / max(n, 2)
        x0 = rng.permutation(mags) * rng.choice([-1.0, 1.0], n)
        for nu in sorted({0.0, 2.0, float(n)}):
            yield f"n{n}-nu{nu:g}", x0, nu, 0.3, 0.01
    yield "zero-start-nu0", np.zeros(12), 0.0, 0.3, 0.02
    yield "zero-start-nu2", np.zeros(12), 2.0, 0.3, 0.02
    yield "zero-and-opposite", np.array([1.0, -1.0, 0.5, 0.0, 2.0, -2.0, 0.0]), 0.0, 0.3, 0.02
    yield "dt-not-dividing-t", np.array([2.0, -1.0, 0.5, 0.25]), 1.0, 0.3, 0.07


@pytest.mark.parametrize("case", list(_oracle_starts()), ids=lambda c: c[0])
def test_frozen_dunkl_equals_per_interval_reference(case):
    _, x0, nu, T, dt = case
    for r in range(3):
        stream = RngStream(31, r)
        p = simulate_dunkl_b(x0, nu, math.inf, T, dt, stream)
        states, jump_log, counts = _reference_frozen_dunkl(x0, nu, T, dt, stream)
        assert p.states.tobytes() == states.tobytes()
        assert [(t.hex(), r) for t, r in p.jump_log] == [(t.hex(), r) for t, r in jump_log]
        assert {k: p.diagnostics[k] for k in st._JUMP_COUNTERS} == counts
    assert x0.size < 12 or counts["flips"] + counts["sign_swaps"] > 0


@pytest.mark.parametrize("batch", [1, 7])
def test_frozen_dunkl_proposal_batches_of_any_size_equal_the_reference(monkeypatch, batch):
    # batches cut inside record intervals and join several of them
    monkeypatch.setattr(st, "_PROPOSAL_BATCH", batch)
    for name, x0, nu, T, dt in _oracle_starts():
        if name in ("n12-nu2", "zero-and-opposite"):
            p = simulate_dunkl_b(x0, nu, math.inf, T, dt, RngStream(32, 0))
            states, jump_log, counts = _reference_frozen_dunkl(x0, nu, T, dt, RngStream(32, 0))
            assert p.states.tobytes() == states.tobytes() and p.jump_log == jump_log
            assert {k: p.diagnostics[k] for k in st._JUMP_COUNTERS} == counts

def test_thinning_tables_built_once_per_record_grid(monkeypatch):
    calls = []

    def counting(rho, nu):
        calls.append(rho.shape[0])
        return slot_bounds(rho, nu)

    slot_bounds = st._slot_bounds
    monkeypatch.setattr(st, "_slot_bounds", counting)
    st._dunkl_envelope.cache_clear()
    x0 = np.array([2.0, -1.0, 0.5, 0.25])
    # T = 0.5 at dt = 0.125 and at dt = 0.25 share one envelope grid, not one record grid
    for dt, intervals in ((0.125, 4), (0.25, 2), (0.125, 4)):
        calls.clear()
        for r in range(5):
            simulate_dunkl_b(x0, 1.0, math.inf, 0.5, dt, RngStream(9, r))
        assert len(calls) == intervals
        assert sum(calls) == 256 + intervals  # each interval's nodes, its ends shared
    assert st._dunkl_envelope.cache_info().misses == 1


def test_batched_thinning_refuses_a_rate_above_its_bound(monkeypatch):
    reflection_bounds = st._reflection_bounds

    def halved(*args):
        bound, over_sum, over_diff = reflection_bounds(*args)
        return 0.5 * bound, over_sum, over_diff

    monkeypatch.setattr(st, "_reflection_bounds", halved)
    st._dunkl_envelope.cache_clear()
    with pytest.raises(RuntimeError, match="above its thinning bound"):
        simulate_dunkl_b(np.array([2.0, -1.0, 0.5, 0.25]), 1.0, math.inf, 0.3, 0.01, RngStream(10, 0))
    st._dunkl_envelope.cache_clear()

def _scalar_em_path(x0, x, t0, drift, sigma, chamber, T, dt, rng, nu=0.0):
    """Reference copy of the scalar Euler-Maruyama sub-step loop.

    Records x0 at t = 0 and runs from x at t0, in sub-steps of min(dt, time
    left).  Hot pairs come from a Python double loop and a stable sort by
    span, the drift leg is rescaled to |x - c|^2 + 2 (x - c).inc about its
    center c, every flow is applied one pair at a time on ndarray scalars,
    and every sub-step projects through ``project_to_chamber``.  Counters
    are added the way ``_em_path`` defines them.
    """
    wall = chamber == CHAMBER_B and nu > 0

    def gap_of(x):
        g = float(np.min(x[:-1] - x[1:])) if x.size > 1 else np.inf
        return min(g, float(x[-1])) if wall else g

    def hot_pairs(x, threshold):
        x = x.tolist()
        out = []
        for i in range(len(x) - 1):
            for j in range(i + 1, len(x)):
                span = x[i] - x[j]
                if span >= threshold:
                    break
                out.append((span, i, j))
        out.sort(key=lambda p: p[0])
        return out

    times = st._record_grid(T, dt)
    x = x.copy()
    n = x.size
    states = np.empty((times.size, n))
    states[0] = x0
    diag = dict(max_violation=0.0, min_gap=gap_of(x), substeps=0, pair_flows=0, wall_flows=0, clipped=0)
    for idx in range(1, times.size):
        t_target, t = times[idx], times[idx - 1] if idx > 1 else t0
        while t_target - t > 1e-12 * max(1.0, T):
            diag["min_gap"] = min(diag["min_gap"], gap_of(x))
            h = min(dt, t_target - t)
            diag["substeps"] += 1
            noise_scale, root_h = sigma * math.sqrt(h), math.sqrt(h)
            b = drift(x)
            wall_hot = []
            if wall:
                for i in range(n - 1, -1, -1):
                    if x[i] >= 4.0 * math.sqrt(nu * h):
                        break
                    wall_hot.append(i)
                    b[i] -= nu / x[i]
            hot = hot_pairs(x, 4.0 * root_h) if n > 1 else []
            for u, i, j in hot:
                b[i] -= 1.0 / u
                b[j] += 1.0 / u
            d = x[:-1] - x[1:]
            near = np.minimum(np.concatenate([[np.inf], d]), np.concatenate([d, [np.inf]]))
            cap = np.maximum(np.maximum(16.0 * noise_scale, 4.0 * root_h), 0.5 * near)
            inc = np.clip(h * b, -cap, cap)
            diag["clipped"] += int(np.count_nonzero(inc != h * b))
            x_raw = x + inc
            c = np.mean(x) if chamber == CHAMBER_A else 0.0
            s2 = 1.0 - np.dot(inc, inc) / np.dot(x_raw - c, x_raw - c)
            if 0.0 < s2 < 1.0:
                x_raw = c + math.sqrt(s2) * (x_raw - c)
            for _, i, j in hot:
                c = 0.5 * (x_raw[i] + x_raw[j])
                u = x_raw[i] - x_raw[j]
                u_new = math.sqrt(u * u + 4.0 * h)
                x_raw[i] = c + 0.5 * u_new
                x_raw[j] = c - 0.5 * u_new
            for i in wall_hot:
                x_raw[i] = math.sqrt(max(x_raw[i], 0.0) ** 2 + 2.0 * nu * h)
            diag["pair_flows"] += len(hot)
            diag["wall_flows"] += len(wall_hot)
            if sigma > 0:
                x_raw += noise_scale * rng.standard_normal(n)
            if chamber == CHAMBER_A:
                viol = float(np.max(np.diff(x_raw), initial=0.0))
            else:
                viol = max(
                    float(np.max(np.diff(np.abs(x_raw)), initial=0.0)),
                    float(max(0.0, -np.min(x_raw))),
                )
            diag["max_violation"] = max(diag["max_violation"], viol)
            x = project_to_chamber(x_raw, chamber).coords
            t += h
        states[idx] = x
    return states, diag


@pytest.mark.parametrize("case", ["a-zero-clustered", "b-wall", "ou-direct", "a-clipped"])
def test_em_path_bitwise_equals_scalar_loop(case):
    nu, chamber, replicas = 0.0, CHAMBER_A, 1
    if case == "a-zero-clustered":
        k, x0, T, dt = 0.5, np.zeros(40), 0.3, 0.005
        run = lambda s: simulate_bessel_a(x0, k, T, dt, s)
        drift, sigma = drift_a, 1 / math.sqrt(k)
    elif case == "b-wall":
        # Many short wall-heavy paths: the wall flow's float power differs
        # from v*v after the square root on about 1 in 4000 wall flows.
        nu, beta, x0, T, dt, chamber, replicas = 10.0, 2.0, np.zeros(10), 0.2, 0.1, CHAMBER_B, 160
        run = lambda s: simulate_bessel_b(x0, nu, beta, T, dt, s)
        drift, sigma = (lambda y: drift_b(y, nu)), 1 / math.sqrt(beta)
    elif case == "ou-direct":
        k, lam, x0, T, dt = 1.0, 0.7, np.linspace(2.0, -2.0, 12), 0.5, 0.005
        run = lambda s: simulate_bessel_ou(x0, k, lam, T, dt, s, mode="direct")
        drift, sigma = (lambda y: drift_a(y) - lam * y), 1 / math.sqrt(k)
    else:
        # a particle beside a dense cluster just past the hot-pair span 4 sqrt(dt)
        # = 0.4: its residual drift exceeds the cap
        k, T, dt = 100.0, 0.08, 0.01
        x0 = np.concatenate([[0.0], -0.41 - 0.01 * np.arange(60)])
        run = lambda s: simulate_bessel_a(x0, k, T, dt, s)
        drift, sigma = drift_a, 1 / math.sqrt(k)
    start = st._em_start(x0, chamber, nu, dt)
    totals = dict.fromkeys(st._EM_COUNTERS, 0)
    for r in range(replicas):
        stream = RngStream(4242, r)
        path = run(stream)
        states, diag = _scalar_em_path(*start, drift, sigma, chamber, T, dt, stream.generator(), nu)
        assert states.tobytes() == path.states.tobytes()
        assert diag == path.diagnostics
        for key in totals:
            totals[key] += diag[key]
    assert totals["pair_flows"] > 0
    assert totals["wall_flows"] > 1000 or case != "b-wall"
    assert totals["clipped"] > 0 or case != "a-clipped"


def test_em_counters_present_and_reproducible():
    x0 = np.zeros(12)
    keys = {"max_violation", "min_gap", "substeps", "pair_flows", "wall_flows", "clipped"}
    runs = [
        lambda s: simulate_bessel_a(x0, 0.5, 0.2, 0.01, s),
        lambda s: simulate_bessel_b(x0, 12.0, 0.5, 0.2, 0.01, s),
        lambda s: simulate_bessel_ou(x0, 1.0, 0.7, 0.2, 0.01, s, mode="direct"),
        lambda s: simulate_bessel_ou(x0, 1.0, 0.7, 0.2, 0.01, s, mode="transform"),
        # restarts at t = 2/3 and 4/3, off the record grid
        lambda s: simulate_bessel_ou(x0, 1.0, 3.0, 2.0, 0.25, s, mode="transform"),
    ]
    for run in runs:
        first, again = run(RngStream(31, 2)), run(RngStream(31, 2))
        assert set(first.diagnostics) == keys
        assert first.diagnostics == again.diagnostics
        d = first.diagnostics
        assert all(type(d[key]) is int for key in st._EM_COUNTERS)
        assert d["substeps"] >= first.times.size - 1 and d["pair_flows"] > 0
    # transform mode sums its segments' counters: one segment of one sub-step
    # per record step and one more per restart off the record grid
    p = simulate_bessel_ou(x0, 1.0, 0.7, 0.2, 0.01, RngStream(31, 2), mode="transform")
    assert p.diagnostics["substeps"] == p.times.size - 1
    p = simulate_bessel_ou(x0, 1.0, 3.0, 2.0, 0.25, RngStream(31, 2), mode="transform")
    assert p.diagnostics["substeps"] == p.times.size - 1 + 2


def test_whole_record_steps_take_one_substep_each():
    # h = min(dt, time left); a zero start is recorded at t = 0, split at
    # t = 1e-3 and run over the rest of its first record step
    za = starting_profile("zero", 50, SCALE_SQRT_N, CHAMBER_A)
    zb = starting_profile("zero", 50, SCALE_SQRT_2N, CHAMBER_B)
    paths = [
        simulate_bessel_a(za, 0.5, 1.0, 0.01, RngStream(3, 0)),
        simulate_bessel_b(zb, 50.0, 0.5, 1.0, 0.01, RngStream(3, 0)),
        simulate_bessel_ou(za, 1.0, 0.7, 1.0, 0.01, RngStream(3, 0), mode="direct"),
    ]
    for p in paths:
        assert p.times.size == 101 and p.diagnostics["substeps"] == p.times.size - 1
        assert not p.states[0].any() and p.states[1].all()
    # a start off the walls runs from t = 0, also at a step longer than the split time
    p = simulate_bessel_a(np.linspace(2.0, -2.0, 6), 1.0, 0.3, 0.1, RngStream(3, 0))
    assert p.diagnostics["substeps"] == 3
    # a record step no whole multiple of dt ends in a shorter sub-step
    p = simulate_bessel_a(np.linspace(2.0, -2.0, 6), 1.0, 1.0, 0.3, RngStream(3, 0))
    assert p.times.size == 4 and p.diagnostics["substeps"] == 6


def test_frozen_dunkl_zero_start_rejected_quickly():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"nu/\(2x\^2\) is infinite at t = 0"):
        simulate_dunkl_b(np.array([1.0, 0.0, 0.0, 3.0]), 1.0, math.inf, 0.1, 0.02, RngStream(1, 0))
    with pytest.raises(ValueError, match="infinite at t = 0"):
        simulate_dunkl_b(np.array([2.0, 0.0, -1.0]), 0.5, math.inf, 0.1, 0.02, RngStream(1, 0))
    assert time.perf_counter() - t0 < 1.0
    # nu = 0 has no flip rate, so a zero start stays valid; its zero magnitude
    # reads 0 whatever sign its slot has
    for seed in range(8):
        p = simulate_dunkl_b(np.zeros(4), 0.0, math.inf, 0.1, 0.02, RngStream(seed, 0))
        assert np.all(np.isfinite(p.states)) and np.count_nonzero(p.states[1:] == 0) == p.times.size - 1
        assert not np.signbit(p.states[p.states == 0]).any()


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_frozen_dunkl_zero_start_signs_are_uniform_at_every_dt(nu):
    # every rate scales as 1/t, so at t > 0 the signs of the nonzero
    # coordinates are fair coins: 5 at nu = 0 (the flow keeps one at 0), 6 at nu > 0
    n, reps = 6, 500
    coins = n - (nu == 0.0)
    mean, var = coins / 2.0, coins / 4.0
    m4 = var * (1.0 + 3.0 * (coins - 2) / 4.0)  # central fourth moment of Binomial(coins, 1/2)
    for dt in (1.0, 0.1, 0.01):
        neg = np.array(
            [
                np.count_nonzero(simulate_dunkl_b(np.zeros(n), nu, math.inf, 1.0, dt, RngStream(5, r)).states[-1] < 0)
                for r in range(reps)
            ]
        )
        assert abs(neg.mean() - mean) < 4.0 * math.sqrt(var / reps), (dt, neg.mean())
        assert abs(neg.var(ddof=1) - var) < 4.0 * math.sqrt((m4 - var**2) / reps), (dt, neg.var(ddof=1))


@pytest.mark.parametrize("x0, exact", [((2.0, 0.5), 0.0648), ((2.0, -0.5), 0.1362)])
def test_frozen_dunkl_two_particle_swap_law_is_exact(x0, exact):
    # N = 2, nu = 0: S = x1^2 + x2^2 = S0 + 4t, and the signed product P = x1 x2
    # is constant, as a sign-swap keeps the sign relation; so swaps are Poisson
    # at rate 1/(S + 2P) and the labels are exchanged at T with probability
    # (1 - exp(-2 L))/2, L = (1/4) ln((S0 + 4T + 2P)/(S0 + 2P))
    T, reps = 0.5, 10000
    s0, p = x0[0] ** 2 + x0[1] ** 2, x0[0] * x0[1]
    lam = 0.25 * math.log((s0 + 4.0 * T + 2.0 * p) / (s0 + 2.0 * p))
    prob = 0.5 * (1.0 - math.exp(-2.0 * lam))
    assert prob == pytest.approx(exact, abs=5e-5)
    swapped = np.mean(
        [
            np.diff(np.abs(simulate_dunkl_b(np.array(x0), 0.0, math.inf, T, 0.05, RngStream(7, r)).states[-1]))[0] > 0
            for r in range(reps)
        ]
    )
    assert abs(swapped - prob) < 4.0 * math.sqrt(prob * (1.0 - prob) / reps)


def test_jump_rates_at_opposite_and_zero_coordinates_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_dunkl_b(np.zeros(4), 0.0, math.inf, 0.1, 0.02, RngStream(1, 0))
        x0 = np.array([1.0, -1.0, 0.5, 0.0])
        p = simulate_dunkl_b(x0, 0.0, math.inf, 0.1, 0.02, RngStream(1, 0))
        blocks = dict(st._jump_blocks(x0, 0.0))
    assert blocks["sign_swap"][0] == 0.0  # x_0 + x_1 = 0 is excluded
    assert blocks["sign_swap"][1] == pytest.approx(1.0 / 2.25)
    assert np.all(np.isfinite(p.states))


def test_em_start_splits_full_space_magnitudes_and_keeps_signs():
    from besselsim.frozen import _bootstrap_start

    x0 = np.array([-1.0, 0.0, 1.0, 2.0, -0.5])
    start, x, t = st._em_start(x0, FULL_SPACE, 1.0, 0.01)
    assert np.array_equal(start, x0) and t == 0.001
    nonzero = x0 != 0
    assert np.array_equal(np.sign(x[nonzero]), np.sign(x0[nonzero]))
    # the magnitudes are the type B split of the sorted magnitudes
    mags = _bootstrap_start(np.sort(np.abs(x0))[::-1], CHAMBER_B, 1.0, 0.001)[1]
    assert np.array_equal(np.sort(np.abs(x))[::-1], mags)
    assert np.all(np.diff(mags) < 0) and mags[-1] > 0
    # a start off every hyperplane runs as it is, from t = 0
    plain = np.array([0.3, -1.2, 2.0])
    start, x, t = st._em_start(plain, FULL_SPACE, 1.0, 0.01)
    assert np.array_equal(start, plain) and np.array_equal(x, plain) and t == 0.0
