import json
import math
import re

import numpy as np
import pytest

from besselsim.cli import main
from besselsim.zeros import hermite_zeros, laguerre_zeros


def test_zeros_subcommand(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zeros", "--family", "hermite", "--n", "6", "--out", str(out)]) == 0
    vals = np.loadtxt(out, skiprows=1)
    assert np.allclose(vals, hermite_zeros(6).zeros)
    out2 = tmp_path / "l.csv"
    main(["zeros", "--family", "laguerre", "--n", "4", "--nu", "2.0", "--out", str(out2)])
    assert np.allclose(np.loadtxt(out2, skiprows=1), laguerre_zeros(4, 2.0).zeros)


def test_frozen_subcommand(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(
        [
            "frozen",
            "--system",
            "a",
            "--n",
            "3",
            "--start",
            "zero",
            "--t-grid",
            "0:0.5:2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert re.match(r"frozen a n=3 steps=\d+ rejected=\d+ -> ", capsys.readouterr().out)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    final = rows[rows[:, 0] == 0.5][:, 2]
    assert np.abs(np.sort(final) - np.sort(hermite_zeros(3).zeros)).max() < 1e-8


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--system",
            "bessel-a",
            "--n",
            "4",
            "--k",
            "1.0",
            "--t",
            "0.2",
            "--dt",
            "0.02",
            "--replicas",
            "3",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    states = np.loadtxt(out / "states_t0.2.csv", delimiter=",")
    assert states.shape == (3, 4)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replicas"] == 3 and manifest["seed"] == 7


@pytest.mark.parametrize(
    "system,given,flag",
    [
        ("bessel-a", [], "--k"),
        ("bessel-ou", [], "--k"),
        ("bessel-b", ["--beta", "2"], "--nu"),
        ("bessel-b", ["--nu", "2"], "--beta"),
        ("dunkl-b", ["--beta", "inf"], "--nu"),
        ("dunkl-b", ["--nu", "0"], "--beta"),
    ],
)
def test_simulate_names_missing_parameter(tmp_path, system, given, flag):
    argv = ["simulate", "--system", system, "--n", "3", "--t", "0.1", "--dt", "0.05"]
    with pytest.raises(SystemExit, match=flag):
        main(argv + given + ["--out", str(tmp_path / "run")])


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--start", "file:{start}"], "holds 3 coordinates but --n is 4"),
        (["--record", "0.04"], "nearest grid time is 0.0333333333333$"),
        (["--record", "0.1,0.12"], "--record 0.12 .* nearest grid time is 0.1$"),
        (["--record", "-0.01"], "nearest grid time is 0$"),
    ],
)
def test_simulate_rejects_bad_start_and_record(tmp_path, extra, message):
    start = tmp_path / "x0.txt"
    start.write_text("3\n2\n1\n")
    argv = ["simulate", "--system", "bessel-a", "--k", "1", "--n", "4", "--t", "0.1", "--dt", "0.03"]
    extra = [a.format(start=start) for a in extra]
    with pytest.raises(SystemExit, match=message):
        main(argv + extra + ["--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--t", "inf"], "need finite T, dt and T/dt, got T = inf, dt = 0.1"),
        (["--t", "1e300", "--dt", "1e-300"], "need finite T, dt and T/dt, got T = 1e\\+300, dt = 1e-300"),
        (["--t", "nan"], "need T >= 0 and dt > 0, got T = nan, dt = 0.1"),
        (["--dt", "nan"], "need T >= 0 and dt > 0, got T = 1, dt = nan"),
        (["--dt", "inf"], "need finite T, dt and T/dt, got T = 1, dt = inf"),
        (["--system", "bessel-ou", "--lambda", "nan"], "lam must be finite, got nan"),
        (["--system", "bessel-ou", "--lambda", "inf"], "lam must be finite, got inf"),
        (["--system", "bessel-ou", "--k", "inf", "--lambda", "nan"], "lam must be finite, got nan"),
        (["--replicas", "0"], "--replicas must be >= 1, got 0"),
    ],
)
def test_simulate_refuses_non_finite_times_and_lambda_and_no_replicas(tmp_path, extra, message):
    argv = ["simulate", "--system", "bessel-a", "--k", "1", "--n", "3", "--t", "1", "--dt", "0.1"]
    with pytest.raises(SystemExit) as err:
        main(argv + extra + ["--out", str(tmp_path / "run")])
    assert re.fullmatch("simulate: " + message, str(err.value.code))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "config,message",
    [
        ({"preset": "bessel-a-sde", "dt": "0.01"}, "config key 'dt' must be a JSON number, got '0.01'"),
        ({"preset": "hermite-classical", "n_list": 50}, "config key 'n_list' must be a JSON array, got 50"),
        ([{"preset": "hermite-classical"}], "a config must be a JSON object, got a JSON array"),
        ({"preset": "hermite-classical", "n_list": ["25"]}, "config key 'n_list' must hold JSON numbers, got '25'"),
        (
            {"preset": "hermite-classical", "thresholds": {"25": "0.1"}},
            "config key 'thresholds' must hold JSON numbers, got '0.1'",
        ),
    ],
)
def test_validate_refuses_mistyped_configs(tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert str(err.value.code) == "validate: " + message
    assert not (tmp_path / "out").exists()
    # an int may stand for a float: both are JSON numbers
    cfg.write_text(json.dumps({"preset": "hermite-classical", "n_list": [25], "default_threshold": 1}))
    assert main(["validate", "--config", str(cfg)]) == 0


@pytest.mark.parametrize(
    "override",
    [
        {"preset": "bessel-a-sde", "replicas": 0},
        {"preset": "bessel-a-sde", "replicas": 1},
        {"preset": "bessel-a-sde", "replicas": -3},
        {"preset": "bessel-a-sde", "replicas": 2.5},
        {"preset": "dunkl-quartercircle", "ks_replicas": 0},
    ],
)
def test_validate_refuses_bad_replica_counts(tmp_path, override):
    key, value = list(override.items())[1]
    low = 2 if key == "replicas" else 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**override, "k_list": [4.0], "n": 10} if key == "replicas" else override))
    with pytest.raises(SystemExit) as err:
        main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert str(err.value.code) == f"validate: config key {key!r} must be a whole number >= {low}, got {value!r}"
    assert not (tmp_path / "out").exists()


def test_simulate_frozen_dunkl_zero_start_exits_with_message(tmp_path):
    # a start with some zero coordinates at nu > 0 (an all-zero start is valid)
    start = tmp_path / "x0.txt"
    start.write_text("2\n0\n-1\n")
    argv = ["simulate", "--system", "dunkl-b", "--nu", "0.5", "--beta", "inf", "--n", "3", "--start", f"file:{start}"]
    with pytest.raises(SystemExit, match=r"flip rate nu/\(2x\^2\) is infinite at t = 0"):
        main(argv + ["--t", "0.1", "--dt", "0.02", "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_negative_numbers_reach_the_command_without_equals(tmp_path):
    argv = ["simulate", "--system", "bessel-b", "--nu", "1", "--beta", "-inf", "--n", "3", "--t", "0.1", "--dt", "0.05"]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "b")])
    assert str(err.value.code) == "simulate: regular case requires beta >= 1/2 and nu*beta >= 1/2"
    argv = ["simulate", "--system", "bessel-ou", "--k", "1", "--lambda", "-1e-3", "--n", "3", "--t", "0.1", "--dt", "0.05"]
    assert main(argv + ["--out", str(tmp_path / "ou")]) == 0
    assert json.loads((tmp_path / "ou" / "manifest.json").read_text())["lambda"] == -1e-3


def test_simulate_reports_record_spacing_and_diagnostics(tmp_path, capsys):
    start = tmp_path / "x0.txt"
    start.write_text("2\n-1\n0.5\n")
    argv = ["simulate", "--system", "dunkl-b", "--nu", "1", "--beta", "inf", "--n", "3"]
    argv += ["--start", f"file:{start}", "--replicas", "2", "--t", "0.1"]
    assert main(argv + ["--dt", "0.07", "--out", str(tmp_path / "coarse")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "states are recorded at spacing 0.1\n" in err
    manifest = json.loads((tmp_path / "coarse" / "manifest.json").read_text())
    assert manifest["dt"] == 0.07 and manifest["record_spacing"] == 0.1
    diags = manifest["diagnostics"]
    assert len(diags) == 2 and all(d["frozen"] and d["proposals"] >= d["flips"] + d["sign_swaps"] for d in diags)
    # a dt that divides t records at that dt, silently
    assert main(argv + ["--dt", "0.05", "--out", str(tmp_path / "fine")]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "fine" / "manifest.json").read_text())
    assert manifest["record_spacing"] == 0.05
    # strict JSON: the infinite gap of a single particle is written as "inf"
    one = ["simulate", "--system", "bessel-a", "--k", "1", "--n", "1", "--t", "0.1", "--dt", "0.05"]
    assert main(one + ["--out", str(tmp_path / "one")]) == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["diagnostics"][0]["min_gap"] == "inf"


def test_limit_moments_subcommand(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(
        ["limit-moments", "--system", "a", "--mu", "zero", "--t", "1.0", "--order", "6", "--out", str(out)]
    )
    assert rc == 0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert np.allclose(vals, [1, 0, 1, 0, 2, 0, 5])


def test_limit_law_density_subcommand(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(
        [
            "limit-law",
            "--kind",
            "a",
            "--mu",
            "zero",
            "--t",
            "0.25",
            "--grid=-1:1:5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # semicircle of radius 1 at x=0: 2/pi
    assert abs(rows[2, 1] - 2 / math.pi) < 1e-9


def test_limit_law_stieltjes_dump(tmp_path):
    zfile = tmp_path / "z.csv"
    zfile.write_text("4+1j\n6+2j\n")
    out = tmp_path / "g.csv"
    rc = main(
        [
            "limit-law",
            "--kind",
            "dunkl",
            "--mu",
            "quartercircle",
            "--t",
            "0.5",
            "--stieltjes",
            str(zfile),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().startswith("z,G")


def test_validate_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "frozen-a-profile", "n_list": [6], "t_list": [0.5]}))
    rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "report.json").exists()
    captured = capsys.readouterr()
    assert "PASS" in captured.out

    # a failing config exits nonzero
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(
        json.dumps({"preset": "frozen-a-profile", "n_list": [6], "t_list": [0.5], "tol": 1e-18})
    )
    assert main(["validate", "--config", str(cfg2)]) == 1

    # a key the preset does not take is named, not ignored
    cfg3 = tmp_path / "cfg3.json"
    cfg3.write_text(json.dumps({"preset": "frozen-a-profile", "n_list": [6], "replicas": 5}))
    with pytest.raises(SystemExit, match="'replicas'"):
        main(["validate", "--config", str(cfg3)])


def test_limit_law_b_density_subcommand(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(
        [
            "limit-law",
            "--kind",
            "b",
            "--mu",
            "zero",
            "--nu0",
            "1.0",
            "--t",
            "0.5",
            "--grid=0.05:2.5:30",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # sqrt(MP(2, 1/2)): density f(x) = 2x f_MP(x^2)
    from besselsim.freeprob import marchenko_pastur

    mp = marchenko_pastur(2.0, 0.5)
    xs = rows[:, 0]
    assert np.allclose(rows[:, 1], 2 * xs * mp.density(xs**2), atol=1e-12)


def test_limit_law_dunkl_nu0_density_reports_inversion(tmp_path, capsys):
    out = tmp_path / "d.csv"
    args = ["limit-law", "--kind", "dunkl", "--mu", "quartercircle", "--nu0", "1", "--t", "0.5"]
    assert main(args + ["--out", str(out)]) == 0
    report = re.search(
        r"inversion: (\d+) of (\d+) points flagged, clipped negative mass (\S+), total mass (\S+)",
        capsys.readouterr().out,
    )
    assert report is not None
    flagged, points, clipped, mass = report.groups()
    assert int(flagged) == 0 and int(points) == 401
    assert float(clipped) < 1e-8 and abs(float(mass) - 1.0) < 1e-3
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (401, 2) and np.all(rows[:, 1] >= 0)


def test_limit_law_semicircle_start_is_closed_form(tmp_path):
    out = tmp_path / "a.csv"
    args = ["limit-law", "--kind", "a", "--mu", "semicircle:1.5", "--t", "0.7", "--out", str(out)]
    assert main(args) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    r = math.sqrt(1.5**2 + 4 * 0.7)
    exact = 2 / (math.pi * r * r) * np.sqrt(np.maximum(r * r - rows[:, 0] ** 2, 0.0))
    assert np.abs(rows[:, 1] - exact).max() < 1e-12
    assert abs(np.trapezoid(rows[:, 1], rows[:, 0]) - 1.0) < 1e-3


def _limit_law_report(capsys, args, out):
    assert main(args + ["--out", str(out)]) == 0
    report = re.search(
        r"inversion: (\d+) of (\d+) points flagged, clipped negative mass (\S+), total mass (\S+)",
        capsys.readouterr().out,
    )
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    return int(report.group(1)), float(report.group(4)), rows


def test_limit_law_a_quartercircle_start_has_unit_mass(tmp_path, capsys):
    args = ["limit-law", "--kind", "a", "--mu", "quartercircle", "--t", "0.5"]
    flagged, mass, rows = _limit_law_report(capsys, args, tmp_path / "a.csv")
    assert flagged == 0 and abs(mass - 1.0) < 1e-3
    assert abs(np.trapezoid(rows[:, 1], rows[:, 0]) - 1.0) < 1e-3


def test_limit_law_b_quartercircle_start_writes_a_density(tmp_path, capsys):
    args = ["limit-law", "--kind", "b", "--mu", "quartercircle", "--nu0", "1", "--t", "0.5"]
    flagged, mass, rows = _limit_law_report(capsys, args, tmp_path / "b.csv")
    assert flagged == 0 and abs(mass - 1.0) < 1e-2
    assert np.all(rows[rows[:, 0] < 0, 1] == 0.0) and np.all(rows[:, 1] >= 0)


@pytest.mark.parametrize(
    "kind,nu0", [("a", "0"), ("b", "0"), ("b", "1"), ("dunkl", "0"), ("dunkl", "1")]
)
# the ids name the start laws; the point mass delta0 is `zero` on the command line
@pytest.mark.parametrize("mu", [pytest.param("zero", id="delta0"), "quartercircle", "semicircle:1.5"])
def test_limit_law_every_kind_and_start_has_unit_mass(tmp_path, capsys, kind, nu0, mu):
    # the default grid -4:4:401 covers every support here; a half-line law's
    # jump at x = 0 costs up to h f(0+)/2 of trapezoid mass
    args = ["limit-law", "--kind", kind, "--mu", mu, "--nu0", nu0, "--t", "0.5"]
    flagged, _, rows = _limit_law_report(capsys, args, tmp_path / "d.csv")
    assert flagged == 0
    assert abs(np.trapezoid(rows[:, 1], rows[:, 0]) - 1.0) < 1e-2


@pytest.mark.parametrize("command", ["limit-moments", "limit-law"])
@pytest.mark.parametrize(
    "mu,message",
    [
        ("semicircle:abc", "could not convert"),
        ("semicircle:-1", "radius must be finite and nonnegative"),
        ("missing.csv", "missing.csv"),
        ("halfcircle", "unknown start measure"),
    ],
)
def test_bad_start_measure_exits_with_message(tmp_path, monkeypatch, command, mu, message):
    monkeypatch.chdir(tmp_path)
    flag = "--system" if command == "limit-moments" else "--kind"
    argv = [command, flag, "a", "--mu", mu, "--t", "0.5", "--out", str(tmp_path / "o.csv")]
    with pytest.raises(SystemExit, match=f"--mu {mu}: .*{message}"):
        main(argv)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("system", ["a", "dunkl"])
def test_limit_moments_start_lists_are_unchanged(tmp_path, system):
    from besselsim.freeprob import quartercircle_moments, semicircle_moments
    from besselsim.moments import limit_moments_a, limit_moments_dunkl

    L, t = 8, 0.5
    recurrence = {"a": limit_moments_a, "dunkl": lambda c, t, L: limit_moments_dunkl(c, 0.0, t, L)}[system]
    starts = {
        "zero": [1.0] + [0.0] * (2 * L),
        "quartercircle": list(quartercircle_moments(2 * L)),
        "semicircle:1.5": [float(v) for v in semicircle_moments(1.5 * 1.5, 2 * L)],
    }
    for mu, c0 in starts.items():
        out = tmp_path / "m.csv"
        argv = ["limit-moments", "--system", system, "--mu", mu, "--t", str(t), "--order", str(L)]
        assert main(argv + ["--out", str(out)]) == 0
        expect = [f"{float(v):.17g}" for v in recurrence(c0[: L + 1], t, L).values]
        assert [line.split(",")[1] for line in out.read_text().split()[1:]] == expect


def test_limit_moments_b_takes_the_squared_start(tmp_path):
    from besselsim.freeprob import limit_law_b, quartercircle_law

    out = tmp_path / "m.csv"
    argv = ["limit-moments", "--system", "b", "--mu", "quartercircle", "--nu0", "1", "--t", "0.5"]
    assert main(argv + ["--order", "6", "--out", str(out)]) == 0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    law = limit_law_b(quartercircle_law(), 1.0, 0.5).sq_law
    assert np.allclose(vals, law.moments(6), rtol=1e-12)


def test_limit_law_csv_start_reports_gauss_depth(tmp_path, capsys):
    mfile = tmp_path / "m.csv"
    mfile.write_text("\n".join(str(v) for v in [1, 0, 1, 0, 2, 0, 5]) + "\n")  # sc(2) up to m_6
    out = tmp_path / "d.csv"
    args = ["limit-law", "--kind", "a", "--mu", str(mfile), "--t", "0.5", "--out", str(out)]
    assert main(args) == 0
    assert f"--mu {mfile}: Gauss rule of depth K = 3" in capsys.readouterr().out


def _write_sc2_moments(path):
    path.write_text("\n".join(str(v) for v in [1, 0, 1, 0, 2, 0, 5]) + "\n")  # sc(2) up to m_6


def test_limit_moments_csv_start_uses_the_file_moments(tmp_path):
    from besselsim.freeprob import Atoms, atoms_from_moments
    from besselsim.moments import limit_moments_a, limit_moments_b

    mfile, out = tmp_path / "m.csv", tmp_path / "o.csv"
    _write_sc2_moments(mfile)
    c0 = [1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 5.0]
    # the Gauss rule of these moments (K = 3) has m_6 = 4, not the file's 5
    assert Atoms(*atoms_from_moments(c0)).moment(6) == pytest.approx(4.0)
    for system, expect in [
        ("a", limit_moments_a(c0, 0.5, 6)),
        ("b", limit_moments_b([1.0, 1.0, 2.0, 5.0], 1.0, 0.5, 3)),
    ]:
        order = "6" if system == "a" else "3"
        argv = ["limit-moments", "--system", system, "--mu", str(mfile), "--nu0", "1", "--t", "0.5"]
        assert main(argv + ["--order", order, "--out", str(out)]) == 0
        got = [line.split(",")[1] for line in out.read_text().split()[1:]]
        assert got == [f"{float(v):.17g}" for v in expect.values]


@pytest.mark.parametrize("system,order", [("a", "7"), ("b", "4")])
def test_limit_moments_csv_start_shorter_than_the_order_fails(tmp_path, system, order):
    mfile, out = tmp_path / "m.csv", tmp_path / "o.csv"
    _write_sc2_moments(mfile)
    argv = ["limit-moments", "--system", system, "--mu", str(mfile), "--t", "0.5", "--order", order]
    with pytest.raises(SystemExit, match="need initial moments up to the requested order"):
        main(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["frozen", "--system", "b", "--n", "3", "--t-grid", "0:1:3"], "frozen: --system b needs --nu$"),
        (
            ["frozen", "--system", "b", "--n", "3", "--start", "profile:1", "--t-grid", "0:1:3"],
            "frozen: --system b needs --nu$",
        ),
        (
            ["frozen", "--system", "a", "--n", "3", "--start", "file:{missing}", "--t-grid", "0:1:3"],
            "frozen: --start file:.*missing.txt: .*not found",
        ),
        (["frozen", "--system", "a", "--n", "3", "--t-grid", "1:0:3"], "frozen: t_grid must be nonnegative"),
        (
            ["frozen", "--system", "a", "--n", "3", "--start", "profile:-1", "--t-grid", "0:1:3"],
            "frozen: --start profile:-1: c and t must be nonnegative",
        ),
        (
            ["frozen", "--system", "b", "--nu", "1", "--n", "3", "--start", "profile:-1", "--t-grid", "0:1:3"],
            "frozen: --start profile:-1: c and t must be nonnegative",
        ),
        (["zeros", "--family", "laguerre", "--n", "3", "--nu", "-1"], "zeros: nu must be nonnegative"),
        (["validate", "--config", "{missing}"], "validate: .*No such file or directory"),
        (
            ["simulate", "--system", "bessel-a", "--k", "1", "--n", "3", "--t", "-1", "--dt", "0.1"],
            "simulate: need T >= 0 and dt > 0, got T = -1, dt = 0.1$",
        ),
        (["frozen", "--system", "a", "--n", "3", "--t-grid", "abc"], "frozen: --t-grid abc: expected T0:T1:COUNT$"),
        (
            ["limit-law", "--kind", "a", "--t", "0.5", "--grid=-1:1"],
            "limit-law: --grid -1:1: expected X0:X1:COUNT$",
        ),
        (
            ["frozen", "--system", "b", "--nu", "nan", "--n", "3", "--t-grid", "0:1:3"],
            "frozen: nu must be nonnegative and finite, got nan$",
        ),
        (
            ["simulate", "--system", "bessel-b", "--nu", "nan", "--beta", "inf", "--n", "3", "--t", "1", "--dt", "0.1"],
            "simulate: nu must be nonnegative and finite, got nan$",
        ),
        *(
            (
                ["simulate", "--system", system, "--nu", "1", "--beta=-inf", "--n", "3", "--t", "1", "--dt", "0.1"],
                "simulate: regular case requires beta >= 1/2 and nu\\*beta >= 1/2$",
            )
            for system in ("bessel-b", "dunkl-b")
        ),
    ],
)
def test_bad_input_exits_with_one_line_naming_the_command(tmp_path, argv, message):
    argv = [a.format(missing=tmp_path / "missing.txt") for a in argv]
    if argv[0] != "validate":
        argv += ["--out", str(tmp_path / "o.csv")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    text = str(err.value.code)
    assert re.match(message, text) and "\n" not in text
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("system", ["a", "b"])
@pytest.mark.parametrize("c", ["0.7", "1"])
def test_frozen_profile_start_is_the_exact_zero_profile(tmp_path, system, c):
    from besselsim.zeros import profile_solution_a, profile_solution_b

    n, nu, out = 6, 1.5, tmp_path / "p.csv"
    argv = ["frozen", "--system", system, "--n", str(n), "--start", f"profile:{c}", "--t-grid", "0:1:5"]
    argv += ["--nu", str(nu)] if system == "b" else []
    assert main(argv + ["--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for t in np.linspace(0.0, 1.0, 5):
        profile = profile_solution_a(n, float(c), t) if system == "a" else profile_solution_b(n, nu, float(c), t)
        assert np.abs(rows[rows[:, 0] == t, 2] - profile.coords).max() < 1e-8


def test_frozen_profile_start_at_nu_zero_keeps_one_particle_at_zero(tmp_path):
    from besselsim.zeros import profile_solution_b

    out = tmp_path / "p.csv"
    argv = ["frozen", "--system", "b", "--nu", "0", "--n", "5", "--start", "profile:1", "--t-grid", "0:1:3"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for t in (0.0, 0.5, 1.0):
        got = rows[rows[:, 0] == t, 2]
        assert got[-1] == 0.0
        assert np.abs(got - profile_solution_b(5, 0.0, 1.0, t).coords).max() < 1e-8


def test_file_start_round_trips_through_frozen_and_simulate(tmp_path):
    x0 = np.array([0.5, -2.0, 1.25])
    start = tmp_path / "x0.txt"
    np.savetxt(start, x0)
    out = tmp_path / "f.csv"
    argv = ["frozen", "--system", "a", "--n", "3", "--start", f"file:{start}", "--t-grid", "0:0.1:2"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(rows[rows[:, 0] == 0, 2], np.sort(x0)[::-1])
    # a full-space start keeps the file's order and signs
    argv = ["simulate", "--system", "dunkl-b", "--nu", "1", "--beta", "2", "--n", "3", "--start", f"file:{start}"]
    assert main(argv + ["--t", "0.02", "--dt", "0.01", "--record", "0", "--out", str(tmp_path / "run")]) == 0
    assert np.array_equal(np.loadtxt(tmp_path / "run" / "states_t0.csv", delimiter=","), x0)


def test_simulate_law_start_records_the_quantile_start(tmp_path):
    from besselsim.harness import starting_profile

    argv = ["simulate", "--system", "bessel-a", "--k", "1", "--n", "6", "--start", "semicircle:2"]
    assert main(argv + ["--t", "0.02", "--dt", "0.01", "--record", "0", "--out", str(tmp_path / "run")]) == 0
    got = np.loadtxt(tmp_path / "run" / "states_t0.csv", delimiter=",")
    assert np.array_equal(got, starting_profile("semicircle:2", 6).coords)
