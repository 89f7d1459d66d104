import math
import time

import numpy as np
import pytest

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
from besselsim.frozen import IntegrationError, drift_a, drift_b, solve_frozen
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
        with pytest.raises(ValueError, match="nu must be nonnegative"):
            simulate(x0, -1.0, math.inf, 0.01, 0.01, s)


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
            flip, over_sum, over_diff = st._slot_bounds(rho[None, :], nu, np.empty((2, n, n)))
            same = sigma[:, None] == sigma
            upper = np.triu_indices(n, 1)
            slot = {
                "flip": flip.sum(),
                "sign_swap": np.where(same, over_sum, over_diff)[upper].sum(),
            }
            full = {"flip": 0.0} | {k: r.sum() for k, r in st._jump_blocks(v, nu)}
            for kind, total in full.items():
                assert slot[kind] == pytest.approx(total, rel=1e-12, abs=0.0)
    st._check_bound(4.0, 4.0, 0.1)
    with pytest.raises(RuntimeError, match="above its thinning bound"):
        st._check_bound(4.0, 3.9, 0.1)


def test_slot_bound_rows_follow_sign_changes():
    rng = np.random.default_rng(8)
    n = 9
    rho = -np.sort(-rng.uniform(0.2, 3.0, (3, n)), axis=1)  # three envelope nodes
    _, over_sum, over_diff = st._slot_bounds(rho, 1.0, np.empty((2, n, n)))
    sigma = rng.choice([-1.0, 1.0], n)
    w = np.where(sigma[:, None] == sigma, over_sum, over_diff)
    row = w.sum(axis=1)
    for c in rng.integers(0, n, 40):
        sigma[c] = -sigma[c]
        st._refresh_bounds(w, row, sigma, over_sum, over_diff, c)
        fresh = np.where(sigma[:, None] == sigma, over_sum, over_diff)
        assert np.array_equal(w, fresh)
        assert row == pytest.approx(fresh.sum(axis=1), rel=1e-12, abs=0.0)


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


def _scalar_em_path(x0, drift, sigma, chamber, T, dt, rng, gap_scale, nu=0.0):
    """Reference copy of the scalar Euler-Maruyama sub-step loop.

    Hot pairs come from a Python double loop and a stable sort by span,
    every flow is applied one pair at a time on ndarray scalars, and every
    sub-step projects through ``project_to_chamber``.  Counters are added
    the way ``_em_path`` defines them.
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
    x = x0.copy()
    n = x.size
    states = np.empty((times.size, n))
    states[0] = x
    diag = dict(max_violation=0.0, min_gap=gap_of(x), substeps=0, floor_substeps=0,
                pair_flows=0, wall_flows=0, clipped=0)
    h_floor = dt / 8.0
    for idx in range(1, times.size):
        t_target, t = times[idx], times[idx - 1]
        while t_target - t > 1e-12 * max(1.0, T):
            g = gap_of(x)
            diag["min_gap"] = min(diag["min_gap"], g)
            h = min(dt, t_target - t, max(g * g * gap_scale, h_floor))
            if h <= 0.0 or t + h == t:
                raise IntegrationError("step size underflow", t, h)
            diag["substeps"] += 1
            diag["floor_substeps"] += int(g * g * gap_scale < h_floor)
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
        drift, sigma, scale = drift_a, 1 / math.sqrt(k), min(1.0, k)
    elif case == "b-wall":
        # Many short wall-heavy paths: the wall flow's float power differs
        # from v*v after the square root on about 1 in 4000 wall flows.
        nu, beta, x0, T, dt, chamber, replicas = 10.0, 2.0, np.zeros(10), 0.2, 0.1, CHAMBER_B, 160
        run = lambda s: simulate_bessel_b(x0, nu, beta, T, dt, s)
        drift, sigma, scale = (lambda y: drift_b(y, nu)), 1 / math.sqrt(beta), min(1.0, beta)
    elif case == "ou-direct":
        k, lam, x0, T, dt = 1.0, 0.7, np.linspace(2.0, -2.0, 12), 0.5, 0.005
        run = lambda s: simulate_bessel_ou(x0, k, lam, T, dt, s, mode="direct")
        drift, sigma, scale = (lambda y: drift_a(y) - lam * y), 1 / math.sqrt(k), min(1.0, k)
    else:
        # a particle beside a dense cluster: its residual drift exceeds the cap
        k, T, dt = 100.0, 0.08, 0.08
        x0 = np.concatenate([[0.0], -0.41 - 0.01 * np.arange(60)])
        run = lambda s: simulate_bessel_a(x0, k, T, dt, s)
        drift, sigma, scale = drift_a, 1 / math.sqrt(k), min(1.0, k)
    start = st._em_start(x0, chamber, nu, dt)
    totals = dict.fromkeys(st._EM_COUNTERS, 0)
    for r in range(replicas):
        stream = RngStream(4242, r)
        path = run(stream)
        states, diag = _scalar_em_path(
            start, drift, sigma, chamber, T, dt, stream.generator(), scale, nu
        )
        assert states.tobytes() == path.states.tobytes()
        assert diag == path.diagnostics
        for key in totals:
            totals[key] += diag[key]
    assert totals["pair_flows"] > 0
    assert totals["wall_flows"] > 1000 or case != "b-wall"
    assert totals["clipped"] > 0 or case != "a-clipped"


def test_em_counters_present_and_reproducible():
    x0 = np.zeros(12)
    keys = {"max_violation", "min_gap", "substeps", "floor_substeps", "pair_flows",
            "wall_flows", "clipped"}
    runs = [
        lambda s: simulate_bessel_a(x0, 0.5, 0.2, 0.01, s),
        lambda s: simulate_bessel_b(x0, 12.0, 0.5, 0.2, 0.01, s),
        lambda s: simulate_bessel_ou(x0, 1.0, 0.7, 0.2, 0.01, s, mode="direct"),
        lambda s: simulate_bessel_ou(x0, 1.0, 0.7, 0.2, 0.01, s, mode="transform"),
    ]
    for run in runs:
        first, again = run(RngStream(31, 2)), run(RngStream(31, 2))
        assert set(first.diagnostics) == keys
        assert first.diagnostics == again.diagnostics
        d = first.diagnostics
        assert all(type(d[key]) is int for key in st._EM_COUNTERS)
        assert d["substeps"] >= 20 and 0 <= d["floor_substeps"] <= d["substeps"]
    # transform mode sums its segments' counters: one segment per record step
    p = simulate_bessel_ou(x0, 1.0, 0.7, 0.2, 0.01, RngStream(31, 2), mode="transform")
    assert p.diagnostics["substeps"] >= p.times.size - 1


def test_frozen_dunkl_zero_start_rejected_quickly():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"nu/\(2x\^2\) is infinite at t = 0"):
        simulate_dunkl_b(np.zeros(4), 1.0, math.inf, 0.1, 0.02, RngStream(1, 0))
    with pytest.raises(ValueError, match="infinite at t = 0"):
        simulate_dunkl_b(np.array([2.0, 0.0, -1.0]), 0.5, math.inf, 0.1, 0.02, RngStream(1, 0))
    assert time.perf_counter() - t0 < 1.0
    # nu = 0 has no flip rate, so a zero start stays valid
    p = simulate_dunkl_b(np.zeros(4), 0.0, math.inf, 0.1, 0.02, RngStream(1, 0))
    assert np.all(np.isfinite(p.states))


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
    x = st._em_start(x0, FULL_SPACE, 1.0, 0.01)
    nonzero = x0 != 0
    assert np.array_equal(np.sign(x[nonzero]), np.sign(x0[nonzero]))
    # the magnitudes are the type B split of the sorted magnitudes
    mags = _bootstrap_start(np.sort(np.abs(x0))[::-1], CHAMBER_B, 1.0, 0.001)[1]
    assert np.array_equal(np.sort(np.abs(x))[::-1], mags)
    assert np.all(np.diff(mags) < 0) and mags[-1] > 0
    # a start off every hyperplane is returned as it is
    plain = np.array([0.3, -1.2, 2.0])
    assert np.array_equal(st._em_start(plain, FULL_SPACE, 1.0, 0.01), plain)
