import json
import math
from pathlib import Path

import numpy as np
import pytest

from besselsim import freeprob as fp
from besselsim import harness
from besselsim.chambers import CHAMBER_A, CHAMBER_B
from besselsim.harness import (
    SCALE_SQRT_2N,
    SCALE_SQRT_N,
    EmpiricalMeasure,
    ks_distance,
    moment_distance,
    run_experiment,
    starting_profile,
    write_report,
)
from besselsim.frozen import solve_frozen
from besselsim.moments import finite_size_moments_a, finite_size_moments_b
from besselsim.zeros import hermite_zeros


def test_empirical_measure_scalings():
    x = np.array([4.0, 2.0, 1.0, 0.5])
    m1 = EmpiricalMeasure.from_point(x, SCALE_SQRT_N)
    m2 = EmpiricalMeasure.from_point(x, SCALE_SQRT_2N)
    assert np.allclose(m1.atoms, x / 2.0)
    # the two conventions differ by exactly sqrt(2)
    assert np.allclose(m2.atoms * math.sqrt(2), m1.atoms)
    assert np.allclose(m2.squared().atoms, x**2 / 8.0)


def test_ks_quantile_construction():
    n = 200
    sc = fp.semicircle(2.0)
    start = starting_profile("semicircle:2", n, SCALE_SQRT_N, CHAMBER_A)
    mu = EmpiricalMeasure.from_point(start)
    assert ks_distance(mu, sc) <= 1.0 / (2 * n) + 1e-6


def test_ks_atom_cases():
    delta0 = fp.atom_law([0.0])
    assert ks_distance(EmpiricalMeasure(np.zeros(1)), delta0) == 0.0
    # all mass outside the support: distance 1
    assert ks_distance(EmpiricalMeasure(np.array([5.0])), fp.semicircle(2.0)) == pytest.approx(1.0)


def test_moment_distance_examples():
    mu = EmpiricalMeasure(np.array([1.0, -1.0]))
    ref = [1.0, 0.0, 1.0]
    assert np.allclose(moment_distance(mu, ref, 2), 0.0)

    # Hermite zeros / sqrt(N) against sc(sqrt 2): l=2 gap is exactly 1/(2N)
    n = 200
    mu = EmpiricalMeasure(hermite_zeros(n).zeros / math.sqrt(n))
    d = moment_distance(mu, fp.semicircle(math.sqrt(2.0)), 2)
    assert d[2] <= 0.01

    # frozen flow from the origin: S_2(t) = t (N-1)/N, so the l=2 gap is t/N
    n, t = 25, 0.8
    traj = solve_frozen("a", np.zeros(n), [t])
    mu = EmpiricalMeasure.from_point(traj.states[-1])
    d = moment_distance(mu, fp.semicircle(2 * math.sqrt(t)), 2)
    assert d[2] == pytest.approx(t / n, rel=1e-6)


def test_starting_profiles():
    p = starting_profile("zero", 7, SCALE_SQRT_N, CHAMBER_A)
    assert np.array_equal(p.coords, np.zeros(7))
    q = starting_profile("quartercircle", 2, SCALE_SQRT_N, CHAMBER_B)
    # quantiles of sqrt(4-x^2)/pi at 1/4 and 3/4, times sqrt(2)
    qc = fp.quartercircle_law()
    expect = np.sort(
        [math.sqrt(2) * x for x in (_invert_cdf(qc, 0.25), _invert_cdf(qc, 0.75))]
    )[::-1]
    assert np.allclose(q.coords, expect, atol=1e-9)
    with pytest.raises(ValueError):
        starting_profile("nope", 5)
    # a misspelt or retired scale tag is refused, never read as sqrt(2n)
    for bad in ("sqrt_N", "sqrt_2n_squared"):
        with pytest.raises(ValueError, match="unknown scaling"):
            starting_profile("zero", 5, bad)
        with pytest.raises(ValueError, match="unknown scaling"):
            EmpiricalMeasure.from_point(np.ones(5), bad)


def test_start_law_names():
    assert harness.start_law("zero").support_radius() == 0.0
    assert isinstance(harness.start_law("quartercircle"), fp.Quartercircle)
    assert harness.start_law("semicircle").support_radius() == 2.0
    assert harness.start_law("semicircle:1.5").support_radius() == 1.5
    for bad in ("delta0", "semicircle2", "file:x0.txt"):
        with pytest.raises(ValueError, match="unknown start measure"):
            harness.start_law(bad)
    # a law of radius 0 starts every particle at 0
    assert np.array_equal(starting_profile("semicircle:0", 3).coords, np.zeros(3))


def test_starting_profile_reads_a_file_unscaled(tmp_path):
    path = tmp_path / "x0.txt"
    path.write_text("1\n-3\n2\n")
    for chamber, expect in ((CHAMBER_A, [2.0, 1.0, -3.0]), (CHAMBER_B, [3.0, 2.0, 1.0])):
        assert np.array_equal(starting_profile(f"file:{path}", 3, SCALE_SQRT_2N, chamber).coords, expect)


def _invert_cdf(law, p):
    from scipy.optimize import brentq

    return brentq(lambda x: float(law.cdf(x)) - p, 0, 2)


def _scipy_quantiles(law, ps, lo, hi):
    from scipy.optimize import brentq

    return np.array([brentq(lambda x: float(law.cdf(x)) - p, lo, hi, xtol=1e-12) for p in ps])


@pytest.mark.parametrize("spec", ["quartercircle", "semicircle", "semicircle:2.5", "semicircle:1.5", "semicircle:1.7320508075688772"])
def test_start_quantiles_equal_scipy_brentq_bitwise(spec):
    # the "zero" start has no quantiles to place
    law = harness.start_law(spec)
    r = law.support_radius()
    lo = -r if float(law.cdf(0.0)) > 0 else 0.0
    for n in (1, 2, 3, 7, 150, 151, 1000):
        ps = (np.arange(1, n + 1) - 0.5) / n
        assert harness.law_quantiles(law, ps, lo, r).tobytes() == _scipy_quantiles(law, ps, lo, r).tobytes()
    expect = np.sort(math.sqrt(7) * _scipy_quantiles(law, (np.arange(1, 8) - 0.5) / 7, lo, r))[::-1]
    assert starting_profile(spec, 7, SCALE_SQRT_N, CHAMBER_A).coords.tobytes() == expect.tobytes()


def test_law_quantiles_equal_scipy_brentq_into_the_tails():
    rng = np.random.default_rng(23)
    ps = np.concatenate([[1e-9, 1e-6, 1e-3], rng.uniform(size=12), [1 - 1e-3, 1 - 1e-6, 1 - 1e-9]])
    laws = [(fp.semicircle(r), -r, r) for r in rng.uniform(0.1, 5.0, 4)]
    laws += [(fp.beta_law(a, b), 0.0, 1.0) for a, b in rng.uniform(0.5, 6.0, (4, 2))]
    for law, lo, hi in laws:
        assert harness.law_quantiles(law, ps, lo, hi).tobytes() == _scipy_quantiles(law, ps, lo, hi).tobytes()


@pytest.mark.parametrize(
    "f,a,b,xtol",
    [
        (lambda x: x - 0.3, 0.0, 1.0, 1e-12),  # interpolation, then f(x) == 0 inside the loop
        (lambda x: x**3 - 2.0, 0.0, 2.0, 1e-12),  # extrapolation and steps of delta
        (lambda x: x**9 - 1e-9, 0.0, 4.0, 1e-12),  # a step too long for the bracket: bisection
        (lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0, 1e-12),  # |f| never falls: bisection only
        (lambda x: x, 0.0, 1.0, 1e-12),  # a root exactly at a
        (lambda x: x - 1.0, 0.0, 1.0, 1e-12),  # a root exactly at b
    ],
)
def test_brentq_port_takes_scipys_steps(f, a, b, xtol):
    from scipy.optimize import brentq

    ours, theirs = [], []
    root = harness._brentq(lambda x: ours.append(x) or f(x), a, b, xtol)
    assert root == brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=xtol)
    assert ours == theirs


def test_brentq_port_raises_scipys_errors():
    from scipy.optimize import brentq

    cases = [
        (lambda x: x + 1.0, 0.0, 1e-12, ValueError),  # no sign change on [0, 1]
        # a jump at 0 bisects toward 0 for far more than 100 steps at this xtol
        (lambda x: -1.0 if x < 0 else 1.0, -1.0, 5e-324, RuntimeError),
    ]
    for f, a, xtol, error in cases:
        with pytest.raises(error) as ours:
            harness._brentq(f, a, 1.0, xtol)
        with pytest.raises(error) as theirs:
            brentq(f, a, 1.0, xtol=xtol)
        assert str(ours.value) == str(theirs.value)


def test_report_determinism_and_outputs(tmp_path):
    cfg = {"preset": "hermite-classical", "n_list": [25, 50]}
    r1 = run_experiment(cfg, out_dir=tmp_path / "a")
    r2 = run_experiment(cfg, out_dir=tmp_path / "b")
    csv1 = (tmp_path / "a" / "distances.csv").read_bytes()
    csv2 = (tmp_path / "b" / "distances.csv").read_bytes()
    assert csv1 == csv2
    assert r1.passed and r2.passed
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["manifest"]["config_hash"] == r1.manifest["config_hash"]
    assert (tmp_path / "a" / "manifest.json").exists()


def test_deterministic_preset_ks_monotone_in_n():
    rep = run_experiment({"preset": "hermite-classical", "n_list": [25, 50, 100, 200]})
    vals = [r["value"] for r in rep.rows]
    assert all(b <= a * 1.05 for a, b in zip(vals, vals[1:]))


def test_frozen_a_limit_preset():
    rep = run_experiment(
        {"preset": "frozen-a-limit", "n_list": [50], "t_list": [0.0, 0.5], "start": "semicircle:2"}
    )
    assert rep.passed


def test_frozen_a_limit_ks_is_hard_against_the_free_convolution():
    # KS against sc(2 sqrt t) boxplus mu_emp(x0), the limit law of the start's atoms
    rep = run_experiment({"preset": "frozen-a-limit"})
    ks = [r for r in rep.rows if r["metric"] == "ks"]
    assert len(ks) == 4 and all(r["hard"] and r["passed"] for r in ks)
    assert all(r["value"] <= 0.02 for r in ks)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        run_experiment({"preset": "not-a-preset"})


@pytest.mark.parametrize(
    "extra",
    [{"n_lst": [6]}, {"threads": 2}, {"n_lst": [6], "threads": 2, "t_list": [0.5]}, {"seed": 1}],
)
def test_unknown_config_keys_rejected(extra):
    with pytest.raises(ValueError) as err:
        run_experiment({"preset": "frozen-a-profile", **extra})
    for key in set(extra) - {"t_list"}:
        assert repr(key) in str(err.value)
    assert "'t_list'" not in str(err.value).split(";")[0]


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"n_list": ["25"]}, "config key 'n_list' must hold JSON numbers, got '25'"),
        ({"thresholds": {"25": "0.1"}}, "config key 'thresholds' must hold JSON numbers, got '0.1'"),
    ],
)
def test_nested_config_values_are_type_checked(extra, message):
    with pytest.raises(ValueError) as err:
        run_experiment({"preset": "hermite-classical", **extra})
    assert str(err.value) == message


def test_replica_counts_are_whole_and_large_enough():
    base = {"preset": "bessel-a-sde", "k_list": [4.0], "n": 4, "t": 0.1, "dt": 0.05, "order": 2}
    for bad in (0, 1, -3, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^config key 'replicas' must be a whole number >= 2, got "):
            run_experiment({**base, "replicas": bad})
    with pytest.raises(ValueError, match=r"^config key 'ks_replicas' must be a whole number >= 1, got 0$"):
        run_experiment({"preset": "dunkl-quartercircle", "ks_replicas": 0})
    # a whole float counts as the integer it names
    report = run_experiment({**base, "replicas": 2.0})
    assert report.config["replicas"] == 2 and type(report.config["replicas"]) is int
    assert all(math.isfinite(r["stderr"]) for r in report.rows)


def test_readme_validate_example_runs():
    # the JSON block after "A `validate` config is JSON" in the README
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A `validate` config is JSON", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    report = run_experiment(json.loads(block))
    assert report.passed and report.rows


def test_write_report_roundtrip(tmp_path):
    rep = run_experiment({"preset": "frozen-a-profile", "n_list": [6], "t_list": [0.5]})
    write_report(rep, tmp_path)
    got = (tmp_path / "distances.csv").read_text().strip().splitlines()
    assert got[0] == "name,n,t,metric,value,stderr,threshold,passed,hard"
    assert len(got) == 1 + len(rep.rows)


def test_sde_presets_run_with_small_overrides():
    rep = run_experiment(
        {
            "preset": "bessel-a-sde",
            "n": 16,
            "k_list": [1.0, 4.0],
            "t": 0.3,
            "dt": 0.01,
            "replicas": 24,
            "order": 2,
            "rel_band": 0.3,
        }
    )
    assert any(r["metric"] == "moment-2" for r in rep.rows)
    rep_b = run_experiment(
        {
            "preset": "bessel-b-sde",
            "n": 12,
            "beta_list": [1.0],
            "t": 0.3,
            "dt": 0.01,
            "replicas": 24,
            "order": 2,
            "rel_band": 0.3,
        }
    )
    assert rep_b.rows


def test_dunkl_preset_small():
    rep = run_experiment(
        {
            "preset": "dunkl-quartercircle",
            "n": 24,
            "t": 0.2,
            "dt": 0.02,
            "n_seeds": 2,
            "replicas": 8,
            "ks_replicas": 8,
            "order": 1,
            "finite_n_coeff": 60.0,
            "ks_threshold": 0.25,
        }
    )
    metrics = {r["metric"] for r in rep.rows}
    assert "pooled-ks" in metrics and "even-2-seed-spread" in metrics
    spread_rows = [r for r in rep.rows if "seed-spread" in r["metric"]]
    assert all(r["passed"] for r in spread_rows)


def test_ou_preset_small():
    rep = run_experiment(
        {
            "preset": "ou-interchange",
            "n": 32,
            "t": 4.0,
            "ks_threshold": 0.1,
            "sde_n": 8,
            "sde_t": 0.2,
            "dt": 0.01,
            "replicas": 30,
            "order": 2,
        }
    )
    assert any("transform-vs-direct" in r["metric"] for r in rep.rows)


def test_sde_presets_use_finite_n_references_for_zero_starts(monkeypatch):
    refs, limits = {}, {}

    def capture(name, cfg, run_replica, ref, limit, L, n, t):
        refs[name], limits[name] = ref, limit
        return [], np.array(ref), np.zeros(L + 1)

    monkeypatch.setattr(harness, "_sde_moment_rows", capture)
    rows = run_experiment({"preset": "bessel-a-sde"}).rows
    # E S_6(1) = 5 + 22/N at k = 1/2, N = 100, against the limit c_6 = 5
    assert refs["bessel-a-sde[k=0.5]"][6] == 5 + 22 / 100
    assert limits["bessel-a-sde[k=0.5]"][6] == 5.0  # bands stay 5% of the limit
    assert refs["bessel-a-sde[k=4.0]"][6] == finite_size_moments_a(4.0, 6, 100, 1.0)[6]
    # k-pairs compare offsets from the references, which coincide here
    assert rows and all(r["value"] == 0.0 for r in rows)
    run_experiment({"preset": "bessel-b-sde"})
    assert list(refs["bessel-b-sde[beta=0.5]"]) == finite_size_moments_b(1.0, 0.5, 6, 100, 1.0)
    run_experiment({"preset": "bessel-a-sde", "start": "semicircle:2", "k_list": [1.0]})
    assert refs["bessel-a-sde[k=1.0]"][2] == pytest.approx(1.0 + 1.0, rel=0.02)
