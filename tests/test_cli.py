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


def test_frozen_subcommand(tmp_path):
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
        (["--start", "{start}"], "holds 3 coordinates but --n is 4"),
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


def test_simulate_frozen_dunkl_zero_start_exits_with_message(tmp_path):
    argv = ["simulate", "--system", "dunkl-b", "--nu", "1", "--beta", "inf", "--n", "4"]
    with pytest.raises(SystemExit, match=r"flip rate nu/\(2x\^2\) is infinite at t = 0"):
        main(argv + ["--t", "0.1", "--dt", "0.02", "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_limit_moments_subcommand(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(
        ["limit-moments", "--system", "a", "--mu", "delta0", "--t", "1.0", "--order", "6", "--out", str(out)]
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
            "delta0",
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
    with pytest.raises(SystemExit, match="'replicas'"):
        main(["validate", "--config", str(cfg), "--replicas", "5"])


def test_limit_law_b_density_subcommand(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(
        [
            "limit-law",
            "--kind",
            "b",
            "--mu",
            "delta0",
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
