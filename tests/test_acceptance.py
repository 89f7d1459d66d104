"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not computed; stochastic checks use fixed
seeds and the replica protocol stated in each criterion.  Criteria 2, 3,
6 and 7 run the shipped ``validate`` presets with every default key
pinned, so they check exactly the code that ``validate`` runs.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from besselsim import freeprob as fp
from besselsim.chambers import CHAMBER_A, CHAMBER_B
from besselsim.harness import (
    PRESETS,
    SCALE_SQRT_2N,
    SCALE_SQRT_N,
    EmpiricalMeasure,
    ks_distance,
    run_experiment,
    starting_profile,
)
from besselsim.frozen import ou_transform_frozen, solve_frozen
from besselsim.moments import (
    limit_moment_polys_a,
    limit_moment_polys_b,
    limit_moment_polys_dunkl,
    limit_moments_a,
    limit_moments_b,
    limit_moments_dunkl,
)
from besselsim.stochastic import RngStream, simulate_bessel_ou, simulate_dunkl_b
from besselsim.zeros import hermite_zeros

HALF = Fraction(1, 2)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _report_preset(num, config, n_rows, budget):
    """Run the preset whose every default key ``config`` pins; report its rows and time."""
    assert set(config) - {"preset"} == set(PRESETS[config["preset"]][0])
    t0 = time.time()
    report = run_experiment(config)
    elapsed = time.time() - t0

    def line(r):
        return f'{r["name"]} n={r["n"]} {r["metric"]}: {r["value"]:.4g} vs {r["threshold"]:.4g}'

    closest = max(report.rows, key=lambda r: r["value"] / r["threshold"])
    ok = len(report.rows) == n_rows and report.passed and elapsed < budget
    summary = f"row count {len(report.rows)} (expected {n_rows}), closest {line(closest)}; {elapsed:.1f}s < {budget}s"
    _report(num, ok, "; ".join([summary, *(line(r) for r in report.rows if not r["passed"])]))


def _hermite_coeffs(n):
    h0, h1 = [1], [0, 2]
    if n == 0:
        return h0
    for k in range(1, n):
        nxt = [0] + [2 * c for c in h1]
        for i, c in enumerate(h0):
            nxt[i] -= 2 * k * c
        h0, h1 = h1, nxt
    return h1


def test_criterion_01_hermite_electrostatic_oracle():
    t0 = time.time()
    worst_res = 0.0
    for n in list(range(1, 13)) + [50, 200]:
        worst_res = max(worst_res, hermite_zeros(n).residual)
    worst_gap = 0.0
    for n in range(1, 13):
        mine = hermite_zeros(n).zeros
        oracle = np.sort(np.polynomial.Polynomial(_hermite_coeffs(n)).roots().real)[::-1]
        worst_gap = max(worst_gap, float(np.abs(mine - oracle).max()))
    elapsed = time.time() - t0
    ok = worst_res <= 1e-10 and worst_gap <= 1e-8 and elapsed < 5.0
    _report(
        1,
        ok,
        f"max residual {worst_res:.2e} <= 1e-10, companion gap {worst_gap:.2e} <= 1e-8, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_02_semicircle_limit_of_hermite_zeros():
    # KS of the Hermite zeros / sqrt(N) to sc(sqrt 2)
    config = {
        "preset": "hermite-classical",
        "n_list": [200, 500],
        "thresholds": {"200": 0.02, "500": 0.01},
        "default_threshold": 0.05,
    }
    _report_preset(2, config, n_rows=2, budget=10)


def test_criterion_03_beta_limit_of_laguerre_zeros():
    # KS of the Laguerre zeros / (4N) to beta(1/2, 3/2)
    config = {
        "preset": "laguerre-classical",
        "n_list": [200],
        "nu": 1.0,
        "thresholds": {"200": 0.02},
        "default_threshold": 0.05,
    }
    _report_preset(3, config, n_rows=1, budget=10)


def test_criterion_04_exact_finite_n_moment_identities():
    t0 = time.time()
    n = 50
    ts = np.linspace(0.0, 2.0, 9)

    x0 = starting_profile("semicircle:2", n, SCALE_SQRT_N, CHAMBER_A)
    traj = solve_frozen("a", x0, ts)
    scaled = traj.states / math.sqrt(n)
    s1 = (scaled**1).sum(axis=1) / n
    s2 = (scaled**2).sum(axis=1) / n
    err_a1 = float(np.abs(s1 - s1[0]).max())
    err_a2 = float(np.abs(s2 - s2[0] - ts * (n - 1) / n).max())

    nu = 2.0
    y0 = starting_profile("quartercircle", n, SCALE_SQRT_2N, CHAMBER_B)
    trajb = solve_frozen("b", y0, ts, nu=nu)
    sq = trajb.states**2 / (2 * n)
    s1b = sq.sum(axis=1) / n
    err_b1 = float(np.abs(s1b - s1b[0] - ts * (n + nu - 1) / n).max())
    elapsed = time.time() - t0
    ok = err_a1 <= 1e-8 and err_a2 <= 1e-8 and err_b1 <= 1e-8 and elapsed < 30.0
    _report(
        4,
        ok,
        f"A: |dS1| {err_a1:.2e}, |S2 defect| {err_a2:.2e}; B: |S1 defect| {err_b1:.2e} "
        f"(all <= 1e-8), {elapsed:.1f}s < 30s",
    )


def _initial_laws():
    """(name, moments on R up to order 24, available for B) for criterion 5."""
    delta0 = [Fraction(1)] + [Fraction(0)] * 24
    sc2 = fp.semicircle_moments(4, 24)
    qc = list(fp.quartercircle_moments(24))
    mp_m = fp.cumulants_to_moments(fp.mp_cumulants(Fraction(1), Fraction(1), 12))
    sqrt_mp = [0.0] * 25
    mp_law = fp.marchenko_pastur(1.0, 1.0)

    def half_mom(l):
        val, _ = quad(lambda u: u ** (l / 2.0) * mp_law.density(u), 0, 4, limit=400)
        return val

    for l in range(25):
        sqrt_mp[l] = float(mp_m[l // 2]) if l % 2 == 0 else half_mom(l)
    two_atom = [(HALF**l + Fraction(3, 2) ** l) / 2 for l in range(25)]
    return [
        ("delta0", delta0),
        ("sc2", sc2),
        ("quartercircle", qc),
        ("sqrt-mp", sqrt_mp),
        ("two-atom", two_atom),
    ]


def _rel_gap(a, b):
    a = np.asarray([float(v) for v in a])
    b = np.asarray([float(v) for v in b])
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def test_criterion_05_dual_route_moment_equality():
    # gaps are measured relative to the moment size (moments at L = 12,
    # t = 2 reach ~1e13, past double precision's absolute 1e-10); for
    # exact-rational inputs the routes are additionally exactly equal.
    t0 = time.time()
    L = 12
    worst = 0.0
    n_exact = 0
    for name, m0 in _initial_laws():
        exact = all(isinstance(v, (int, Fraction)) for v in m0)
        for t in (HALF, Fraction(1), Fraction(2)):
            # route A: recurrence vs cumulant addition
            rec = limit_moments_a(m0[: L + 1], t, L).values
            conv = fp.free_add(fp.semicircle_moments(4 * t, L), m0[: L + 1], L)
            worst = max(worst, _rel_gap(rec, conv))
            if exact:
                assert list(rec) == list(conv)
                n_exact += 1
            for nu0 in (0, 1):
                # route B on the squared side
                c0sq = [m0[2 * l] for l in range(L + 1)]
                rec_b = limit_moments_b(c0sq, nu0, t, L).values
                even = fp.even_part_moments(m0)
                inner = fp.free_add(fp.semicircle_moments(4 * t, 2 * L), even, 2 * L)
                sq = fp.square_moments(inner)
                ks = [
                    a + b
                    for a, b in zip(fp.moments_to_cumulants(sq, L), fp.mp_cumulants(nu0, t, L))
                ]
                conv_b = fp.cumulants_to_moments(ks, L)
                worst = max(worst, _rel_gap(rec_b, conv_b))
                if exact:
                    assert list(rec_b) == list(conv_b)
                # full-space route: even chain at t equals the B composite at 2t
                rec_d = limit_moments_dunkl(m0, nu0, t, 2 * L).values[::2]
                inner2 = fp.free_add(fp.semicircle_moments(8 * t, 2 * L), even, 2 * L)
                sq2 = fp.square_moments(inner2)
                ks2 = [
                    a + b
                    for a, b in zip(
                        fp.moments_to_cumulants(sq2, L), fp.mp_cumulants(nu0, 2 * t, L)
                    )
                ]
                conv_d = fp.cumulants_to_moments(ks2, L)
                worst = max(worst, _rel_gap(rec_d, conv_d))
                if exact:
                    assert list(rec_d) == list(conv_d)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and n_exact == 9 and elapsed < 5.0
    _report(
        5,
        ok,
        f"max relative route gap {worst:.2e} <= 1e-10 over 5 laws x 3 t x 2 nu0 "
        f"(rational cases exact), {elapsed:.1f}s < 5s",
    )


def test_criterion_06_type_a_sde_limit():
    # The raw criterion bands sit below the true finite-size offsets at
    # N = 100, l = 6 (exactly computable: E S_6(1; k=1/2) = 5 + 22/N),
    # so per the k-independence invariant the comparison uses "Monte
    # Carlo + O(1/N)" bands: references are the O(1/N)-corrected finite-N
    # expectations, with the stated max(5% of c_l, 3 stderr) tolerance.
    # Rows: l = 1..6 for each k (18), and for each k-pair on the offsets
    # from those references (18).
    config = {
        "preset": "bessel-a-sde",
        "n": 100,
        "k_list": [0.5, 1.0, 4.0],
        "t": 1.0,
        "dt": 0.005,
        "replicas": 200,
        "order": 6,
        "rel_band": 0.05,
        "start": "zero",
        "seed": 60420,
    }
    _report_preset(6, config, n_rows=36, budget=300)


def test_criterion_07_type_b_sde_limit():
    # squared-side moments against sqrt(MP(1, t) boxplus (sc(2 sqrt t))^2),
    # corrected to O(1/N) as in criterion 6; nu(N) = N so nu0 = 1
    config = {
        "preset": "bessel-b-sde",
        "n": 100,
        "nu0": 1.0,
        "beta_list": [0.5, 2.0],
        "t": 1.0,
        "dt": 0.002,
        "replicas": 200,
        "order": 6,
        "rel_band": 0.05,
        "start": "zero",
        "seed": 70421,
    }
    _report_preset(7, config, n_rows=12, budget=300)


def test_criterion_08_frozen_dunkl_moments():
    t0 = time.time()
    n, t, reps = 150, 0.5, 64
    x0 = starting_profile("quartercircle", n, SCALE_SQRT_N, CHAMBER_B).coords
    c0 = EmpiricalMeasure(x0 / math.sqrt(n)).moments(10)
    ok = True
    detail = []
    for nu0 in (0.0, 1.0):
        nu = nu0 * n
        ref = limit_moments_dunkl([1.0] + list(c0[1:]), nu0, t, 10).floats()
        finals = []
        for s in range(5):
            p = simulate_dunkl_b(x0, nu, math.inf, t, 0.01, RngStream(80422 + s, 0))
            finals.append(EmpiricalMeasure.from_point(p.states[-1]).moments(10))
        finals = np.array(finals)
        spread = float(
            max(finals[:, l].max() - finals[:, l].min() for l in range(2, 11, 2))
        )
        if spread > 1e-6:
            ok = False
            detail.append(f"nu0={nu0} even spread {spread:.2e}")
        samples = np.empty((reps, 11))
        for r in range(reps):
            p = simulate_dunkl_b(x0, nu, math.inf, t, 0.01, RngStream(90423, r))
            samples[r] = EmpiricalMeasure.from_point(p.states[-1]).moments(10)
        means = samples.mean(axis=0)
        ses = samples.std(axis=0, ddof=1) / math.sqrt(reps)
        for l in (1, 3, 5):
            band = 3.0 * ses[l] + 40.0 * l * l / n
            if abs(means[l] - ref[l]) > band:
                ok = False
                detail.append(f"nu0={nu0} odd l={l}: {abs(means[l]-ref[l]):.3g} > {band:.3g}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 180.0
    _report(8, ok, f"even spread <= 1e-6 across 5 seeds; odd moments in bands; {elapsed:.0f}s < 180s"
            + ("; " + "; ".join(detail) if detail else ""))


def test_criterion_09_quartercircle_closed_form():
    t0 = time.time()
    ok = True
    detail = []
    # normalization
    for t in (0.1, 1.0, 10.0, 100.0):
        edge = 2 * math.sqrt(2 * t + 1)
        val, _ = quad(lambda x: fp.quartercircle_dunkl_density(t, x), -edge, edge, limit=400)
        if abs(val - 1.0) > 1e-6:
            ok = False
            detail.append(f"mass(t={t}) {val:.8f}")
    # even part equals the matching semicircle pointwise
    t = 0.5
    edge = 2 * math.sqrt(2 * t + 1)
    xs = np.linspace(-edge * 0.999, edge * 0.999, 200)
    even = 0.5 * (fp.quartercircle_dunkl_density(t, xs) + fp.quartercircle_dunkl_density(t, -xs))
    gap_even = float(np.abs(even - fp.semicircle(edge).density(xs)).max())
    if gap_even > 1e-10:
        ok = False
        detail.append(f"even-part gap {gap_even:.2e}")
    # Stieltjes composition route reproduces the closed form
    qc = fp.quartercircle_law()
    worst = 0.0
    for x in np.linspace(-0.95 * edge, 0.95 * edge, 41):
        g = fp.dunkl_limit_stieltjes(qc, 0.0, t, complex(x, 1e-9))
        worst = max(worst, abs(-g.imag / math.pi - fp.quartercircle_dunkl_density(t, x)))
    if worst > 1e-4:
        ok = False
        detail.append(f"composition-route gap {worst:.2e}")
    # pooled Monte Carlo KS
    n, reps = 150, 300
    x0 = starting_profile("quartercircle", n, SCALE_SQRT_N, CHAMBER_B).coords
    pool = np.concatenate(
        [
            simulate_dunkl_b(x0, 0.0, math.inf, t, 0.01, RngStream(90424, r)).states[-1]
            / math.sqrt(n)
            for r in range(reps)
        ]
    )
    sd = fp.dunkl_limit_law(qc, 0.0, t).spectral_density(np.linspace(-edge, edge, 2001))
    d = ks_distance(EmpiricalMeasure(pool), sd)
    if d > 0.06:
        ok = False
        detail.append(f"pooled KS {d:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(
        9,
        ok,
        f"mass 1e-6, even part 1e-10, composition 1e-4 (got {worst:.1e}), "
        f"pooled KS {d:.4f} <= 0.06; {elapsed:.0f}s < 300s"
        + ("; " + "; ".join(detail) if detail else ""),
    )


def _series_eval(polys):
    def g(t, z):
        acc = 0j
        zp = z
        for p in polys:
            acc += float(p(t)) / zp
            zp *= z
        return acc

    return g


def test_criterion_10_pde_residual_suite():
    t0 = time.time()
    ok = True
    detail = []
    angles = (0.35, 1.2, 2.3, -0.9, -2.1)

    def ring(radius):
        return [radius * cmath.exp(1j * a) for a in angles]

    # Burgers, type A: delta_0 and sc(2) starts
    for c0, zs in [
        ([1.0] + [0.0] * 64, ring(4) + ring(6)),
        ([float(v) for v in fp.semicircle_moments(4, 48)], ring(6)),
    ]:
        polys = limit_moment_polys_a(c0, len(c0) - 1)
        g = _series_eval(polys)
        pts = [(t, z) for t in (0.5, 1.0) for z in zs]
        r = fp.pde_residual("burgers_a", g, pts)
        if r["max_abs"] > 1e-6:
            ok = False
            detail.append(f"burgers {r['max_abs']:.2e}")

    # transport, type B squared side: delta_0 start at |z| = 4, quartercircle
    # start (wider support) at |z| = 14
    for nu0 in (0.0, 1.0):
        polys = limit_moment_polys_b([1.0] + [0.0] * 64, nu0, 64)
        r = fp.pde_residual(
            "transport_b", _series_eval(polys), [(0.5, z) for z in ring(4) + ring(6)], nu0=nu0
        )
        if r["max_abs"] > 1e-6:
            ok = False
            detail.append(f"transport-b delta0 nu0={nu0} {r['max_abs']:.2e}")
        c0sq = [float(fp.quartercircle_moments(2 * 40)[2 * l]) for l in range(41)]
        polys = limit_moment_polys_b(c0sq, nu0, 40)
        r = fp.pde_residual(
            "transport_b", _series_eval(polys), [(0.25, z) for z in ring(14)], nu0=nu0
        )
        if r["max_abs"] > 1e-6:
            ok = False
            detail.append(f"transport-b qc nu0={nu0} {r['max_abs']:.2e}")

    # full-space system: even and odd transforms, quartercircle start
    c0 = [float(v) for v in fp.quartercircle_moments(64)]
    for nu0 in (0.0, 1.0):
        polys = limit_moment_polys_dunkl(c0, nu0, 64)
        even_polys = [polys[i] if i % 2 == 1 else None for i in range(65)]

        def g_even(t, z, polys=polys):
            acc = 0j
            for l in range(0, 65, 2):
                acc += float(polys[l](t)) / z ** (l + 1)
            return acc

        def g_odd(t, z, polys=polys):
            acc = 0j
            for l in range(1, 65, 2):
                acc += float(polys[l](t)) / z ** (l + 1)
            return acc

        pts = [(0.25, z) for z in ring(4) + ring(6)]
        r = fp.pde_residual("dunkl_even", g_even, pts, nu0=nu0)
        if r["max_abs"] > 1e-6:
            ok = False
            detail.append(f"dunkl-even nu0={nu0} {r['max_abs']:.2e}")
        r = fp.pde_residual("dunkl_odd", g_odd, pts, nu0=nu0, even_evaluator=g_even)
        if r["max_abs"] > 1e-6:
            ok = False
            detail.append(f"dunkl-odd nu0={nu0} {r['max_abs']:.2e}")

    # R-transform laws, coefficientwise on exact polynomial cumulants
    polys = limit_moment_polys_a([1, HALF, Fraction(1, 3), Fraction(1, 5)] + [0] * 13, 16)
    r = fp.pde_residual("r_transform_a", cumulant_polys=fp.moments_to_cumulants(polys))
    if r["max_abs"] > 1e-8:
        ok = False
        detail.append(f"r-a {r['max_abs']:.2e}")
    for nu0 in (Fraction(0), Fraction(1)):
        polys = limit_moment_polys_b([1, HALF, Fraction(2, 5)] + [0] * 11, nu0, 13)
        r = fp.pde_residual(
            "r_transform_b", cumulant_polys=fp.moments_to_cumulants(polys), nu0=nu0
        )
        if r["max_abs"] > 1e-8:
            ok = False
            detail.append(f"r-b nu0={nu0} {r['max_abs']:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(10, ok, f"all residuals <= 1e-6 (R-laws exact); {elapsed:.1f}s < 30s"
            + ("; " + "; ".join(detail) if detail else ""))


def test_criterion_11_mp_algebra_exact():
    t0 = time.time()
    # additivity at cumulant order 12, exact rationals
    t = HALF
    for a, b in [(Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(5, 3))]:
        ma = fp.cumulants_to_moments(fp.mp_cumulants(a, t, 12))
        mb = fp.cumulants_to_moments(fp.mp_cumulants(b, t, 12))
        assert fp.moments_to_cumulants(fp.free_add(ma, mb, 12))[1:] == fp.mp_cumulants(
            a + b, t, 12
        )[1:]
    # composition identity over (nu0, s, t) in {0,1} x {1/2,1}^2
    for nu0 in (Fraction(0), Fraction(1)):
        for s in (HALF, Fraction(1)):
            for tt in (HALF, Fraction(1)):
                mp_inner = fp.cumulants_to_moments(fp.mp_cumulants(nu0 + 1, tt, 24))
                even = [Fraction(0)] * 25
                even[0] = Fraction(1)
                for l in range(1, 13):
                    even[2 * l] = mp_inner[l]
                inner = fp.free_add(fp.semicircle_moments(4 * s, 24), even, 24)
                total = [
                    x + y
                    for x, y in zip(
                        fp.moments_to_cumulants(fp.square_moments(inner), 12),
                        fp.mp_cumulants(nu0, s, 12),
                    )
                ]
                assert total[1:] == fp.mp_cumulants(nu0 + 1, s + tt, 12)[1:]
    elapsed = time.time() - t0
    ok = elapsed < 1.0
    _report(11, ok, f"additivity and composition identities exact at order 12, {elapsed:.2f}s < 1s")


def test_criterion_12_ou_limit_interchange():
    t0 = time.time()
    n, lam, t = 200, 1.0, 8.0
    x0 = starting_profile("semicircle:2", n, SCALE_SQRT_N, CHAMBER_A)
    pt = ou_transform_frozen(x0, lam, t)
    d = ks_distance(
        EmpiricalMeasure.from_point(pt), fp.semicircle(math.sqrt(2.0 / lam))
    )
    ok = d <= 0.02
    detail = [f"frozen KS {d:.4f} <= 0.02"]

    n_s, t_s, L, reps = 50, 0.5, 4, 300
    x0s = starting_profile("semicircle:2", n_s, SCALE_SQRT_N, CHAMBER_A)
    sd = np.empty((reps, L + 1))
    st_ = np.empty((reps, L + 1))
    for r in range(reps):
        pd = simulate_bessel_ou(x0s, 1.0, lam, t_s, 0.005, RngStream(120426, r), "direct")
        pt2 = simulate_bessel_ou(x0s, 1.0, lam, t_s, 0.005, RngStream(220426, r), "transform")
        sd[r] = EmpiricalMeasure.from_point(pd.states[-1]).moments(L)
        st_[r] = EmpiricalMeasure.from_point(pt2.states[-1]).moments(L)
    for l in range(1, L + 1):
        se = math.hypot(sd[:, l].std(ddof=1) / math.sqrt(reps), st_[:, l].std(ddof=1) / math.sqrt(reps))
        gap = abs(sd[:, l].mean() - st_[:, l].mean())
        if gap > 3 * se:
            ok = False
            detail.append(f"transform-vs-direct l={l}: {gap:.3g} > {3*se:.3g}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(12, ok, "; ".join(detail) + f"; {elapsed:.0f}s < 120s")
