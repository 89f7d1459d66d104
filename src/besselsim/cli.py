"""Command-line interface.

Subcommands:
  zeros          Hermite/Laguerre zeros from their Jacobi matrices
  frozen         integrate the frozen ODE of type a or b
  simulate       Monte Carlo paths for the stochastic systems
  limit-moments  limiting moment recurrences
  limit-law      limit-law densities and Stieltjes transform dumps
  validate       run a convergence experiment config; exit 0 iff it passes
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np


def _parse_grid(spec: str):
    t0, t1, steps = spec.split(":")
    return np.linspace(float(t0), float(t1), int(steps))


def _cmd_zeros(args):
    from .zeros import hermite_zeros, laguerre_zeros

    if args.family == "hermite":
        prof = hermite_zeros(args.n)
    else:
        if args.nu is None:
            raise SystemExit("laguerre zeros need --nu")
        prof = laguerre_zeros(args.n, args.nu)
    lines = ["zero"] + [f"{z:.17g}" for z in prof.zeros]
    _write_lines(args.out, lines)
    print(f"{prof.family} n={prof.n} residual={prof.residual:.3e} -> {args.out}")
    return 0


def _cmd_frozen(args):
    from .frozen import solve_frozen
    from .zeros import hermite_zeros, laguerre_zeros

    grid = _parse_grid(args.t_grid)
    if args.start == "zero":
        x0 = np.zeros(args.n)
    elif args.start.startswith("profile:"):
        c = float(args.start.split(":", 1)[1])
        if args.system == "a":
            x0 = c * hermite_zeros(args.n).zeros
        else:
            x0 = c * np.sqrt(laguerre_zeros(args.n, args.nu).zeros)
    elif args.start.startswith("file:"):
        x0 = np.loadtxt(args.start.split(":", 1)[1], ndmin=1)
    else:
        raise SystemExit(f"unknown start {args.start!r}")
    traj = solve_frozen(args.system, x0, grid, nu=args.nu if args.system == "b" else None)
    lines = ["t,particle,x"]
    for i, t in enumerate(traj.times):
        for p, x in enumerate(traj.states[i]):
            lines.append(f"{t:.12g},{p},{x:.17g}")
    _write_lines(args.out, lines)
    print(f"frozen {args.system} n={args.n} steps={traj.n_accepted} -> {args.out}")
    return 0


def _cmd_simulate(args):
    from .stochastic import (
        RngStream,
        _record_grid,
        simulate_bessel_a,
        simulate_bessel_b,
        simulate_bessel_ou,
        simulate_dunkl_b,
    )

    needed = {
        "bessel-a": ("k",),
        "bessel-ou": ("k",),
        "bessel-b": ("nu", "beta"),
        "dunkl-b": ("nu", "beta"),
    }
    missing = [f"--{name}" for name in needed[args.system] if getattr(args, name) is None]
    if missing:
        raise SystemExit(f"{args.system} needs {' and '.join(missing)}")
    if args.start is not None:
        x0 = np.loadtxt(args.start, ndmin=1)
        if x0.size != args.n:
            raise SystemExit(f"--start {args.start} holds {x0.size} coordinates but --n is {args.n}")
    else:
        x0 = np.zeros(args.n)
    try:
        grid = _record_grid(args.t, args.dt)
    except ValueError:
        raise SystemExit(f"simulate needs --t >= 0 and --dt > 0, got --t {args.t:g} --dt {args.dt:g}")
    # the record grid splits [0, t] into round(t/dt) equal steps
    spacing = args.t / (grid.size - 1) if grid.size > 1 else None
    if spacing is not None and abs(spacing - args.dt) > 1e-12 * args.dt:
        print(
            f"simulate: --t {args.t:g} is not a multiple of --dt {args.dt:g}; "
            f"states are recorded at spacing {spacing:.12g}",
            file=sys.stderr,
        )
    record = (
        [float(v) for v in args.record.split(",")] if args.record else [args.t]
    )
    record_idx = {}
    for t_rec in record:
        idx = int(np.argmin(np.abs(grid - t_rec)))
        if not 0.0 <= t_rec <= args.t or abs(grid[idx] - t_rec) > 1e-9 * max(1.0, args.t):
            raise SystemExit(
                f"--record {t_rec:g} is not on the record grid of --t {args.t:g} --dt {args.dt:g}; "
                f"the nearest grid time is {grid[idx]:.12g}"
            )
        record_idx[t_rec] = idx
    beta = math.inf if args.beta == "inf" else float(args.beta) if args.beta else None
    k = math.inf if args.k == "inf" else float(args.k) if args.k else None
    run_one = {
        "bessel-a": lambda s: simulate_bessel_a(x0, k, args.t, args.dt, s),
        "bessel-b": lambda s: simulate_bessel_b(x0, args.nu, beta, args.t, args.dt, s),
        "bessel-ou": lambda s: simulate_bessel_ou(x0, k, args.lam, args.t, args.dt, s),
        "dunkl-b": lambda s: simulate_dunkl_b(x0, args.nu, beta, args.t, args.dt, s),
    }[args.system]
    runs = {}
    diagnostics = []
    for r in range(args.replicas):
        try:
            path = run_one(RngStream(args.seed, r))
        except ValueError as err:
            raise SystemExit(f"simulate: {err}")
        # strict JSON has no infinity (the gap of a single particle): write "inf"
        diagnostics.append(
            {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in path.diagnostics.items()}
        )
        for t_rec, idx in record_idx.items():
            runs.setdefault(t_rec, []).append(path.states[idx])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for t_rec, rows in runs.items():
        lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
        (out / f"states_t{t_rec:g}.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "system": args.system,
        "n": int(x0.size),
        "k": args.k,
        "nu": args.nu,
        "beta": args.beta,
        "lambda": args.lam,
        "t": args.t,
        "dt": args.dt,
        "replicas": args.replicas,
        "seed": args.seed,
        "record": record,
        "record_spacing": spacing,
        "diagnostics": diagnostics,
    }
    from . import __version__

    manifest["version"] = __version__
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"simulate {args.system}: {args.replicas} replicas -> {out}")
    return 0


def _csv_moments(spec):
    """The moments m_0 = 1, m_1, ... of a CSV start, one per row."""
    try:
        return list(np.loadtxt(spec, ndmin=1))
    except (OSError, ValueError) as err:
        raise SystemExit(f"--mu {spec}: {err}")


def _start_law(spec):
    """Start law named by ``--mu delta0 | quartercircle | semicircle[:R] | FILE.csv``.

    A CSV start becomes the atoms of the Gauss rule of its moments, whose
    depth K is printed.  Bad input exits with a message naming it.
    """
    from .freeprob import Atoms, atom_law, atoms_from_moments, quartercircle_law, semicircle

    name, colon, arg = spec.partition(":")
    try:
        if spec == "delta0":
            return atom_law([0.0])
        if spec == "quartercircle":
            return quartercircle_law()
        if name == "semicircle":
            return semicircle(float(arg) if colon else 2.0)
        if spec.endswith(".csv"):
            law = Atoms(*atoms_from_moments(_csv_moments(spec)))
            print(f"--mu {spec}: Gauss rule of depth K = {law.locs.size}")
            return law
    except ValueError as err:
        raise SystemExit(f"--mu {spec}: {err}")
    raise SystemExit(f"--mu {spec}: unknown start measure (delta0 | quartercircle | semicircle:R | FILE.csv)")


def _cmd_limit_moments(args):
    from .freeprob import square_moments
    from .moments import limit_moments_a, limit_moments_b, limit_moments_dunkl

    L = args.order
    # a CSV start gives its moments as they are; a Gauss rule would match only its first 2K
    c0 = _csv_moments(args.mu) if args.mu.endswith(".csv") else _start_law(args.mu).moments(2 * L)
    recurrence = {
        "a": lambda c0: limit_moments_a(c0, args.t, L),
        # type B starts live on [0, inf); its recurrence takes the moments of x^2
        "b": lambda c0: limit_moments_b(square_moments(c0), args.nu0, args.t, L),
        "dunkl": lambda c0: limit_moments_dunkl(c0, args.nu0, args.t, L),
    }[args.system]
    try:
        ms = recurrence(c0)
    except ValueError as err:
        raise SystemExit(f"limit-moments: --mu {args.mu}: {err}")
    lines = ["order,moment"] + [f"{l},{float(v):.17g}" for l, v in enumerate(ms.values)]
    _write_lines(args.out, lines)
    print(f"limit-moments {args.system} t={args.t} -> {args.out}")
    return 0


def _cmd_limit_law(args):
    from .freeprob import dunkl_limit_law, limit_law_a, limit_law_b

    mu0 = _start_law(args.mu)
    try:
        make = {"a": lambda mu0, nu0, t: limit_law_a(mu0, t), "b": limit_law_b, "dunkl": dunkl_limit_law}
        law = make[args.kind](mu0, args.nu0, args.t)
        if args.stieltjes:
            zs = np.loadtxt(args.stieltjes, dtype=complex, ndmin=1)
            lines = ["z,G"] + [f"{z:.12g},{law.stieltjes(complex(z)):.12g}" for z in zs]
        else:
            grid = _parse_grid(args.grid)
            inv = law.spectral_density(grid)
            print(
                f"inversion: {int(inv.diverged.sum())} of {grid.size} points flagged, "
                f"clipped negative mass {inv.clip_mass:.3g}, total mass {inv.mass():.6g}"
            )
            lines = ["x,density"] + [f"{x:.12g},{d:.17g}" for x, d in zip(grid, inv.density)]
    except ValueError as err:  # FreeProbDomainError included
        raise SystemExit(f"limit-law: {err}")
    _write_lines(args.out, lines)
    print(f"limit-law {args.kind} -> {args.out}")
    return 0


def _cmd_validate(args):
    from .harness import run_experiment

    config = json.loads(Path(args.config).read_text())
    if args.replicas is not None:
        config["replicas"] = args.replicas
    try:
        report = run_experiment(config, out_dir=args.out)
    except ValueError as err:
        raise SystemExit(f"validate: {err}")
    n_hard = sum(1 for r in report.rows if r["hard"])
    n_fail = sum(1 for r in report.rows if r["hard"] and not r["passed"])
    for r in report.rows:
        status = "PASS" if r["passed"] else ("FAIL" if r["hard"] else "warn")
        print(
            f'[{status}] {r["name"]} n={r["n"]} t={r["t"]:g} {r["metric"]}: '
            f'{r["value"]:.4g} <= {r["threshold"]:.4g}'
        )
    print(f"{n_hard - n_fail}/{n_hard} hard checks passed")
    return 0 if report.passed else 1


def _write_lines(path, lines):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="besselsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zeros", help="Hermite/Laguerre zeros from their Jacobi matrices")
    z.add_argument("--family", choices=["hermite", "laguerre"], required=True)
    z.add_argument("--n", type=int, required=True)
    z.add_argument("--nu", type=float, default=None)
    z.add_argument("--out", required=True)
    z.set_defaults(func=_cmd_zeros)

    f = sub.add_parser("frozen", help="integrate the frozen ODE")
    f.add_argument("--system", choices=["a", "b"], required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--nu", type=float, default=None)
    f.add_argument("--start", default="zero", help="zero | profile:C | file:PATH")
    f.add_argument("--t-grid", required=True, help="T0:T1:STEPS")
    f.add_argument("--out", required=True)
    f.set_defaults(func=_cmd_frozen)

    s = sub.add_parser("simulate", help="Monte Carlo paths")
    s.add_argument(
        "--system", choices=["bessel-a", "bessel-b", "bessel-ou", "dunkl-b"], required=True
    )
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", default=None, help="type A multiplicity (number or 'inf')")
    s.add_argument("--nu", type=float, default=None)
    s.add_argument("--beta", default=None, help="type B inverse temperature (number or 'inf')")
    s.add_argument("--lambda", dest="lam", type=float, default=0.0)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--replicas", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--record", default=None, help="comma-separated record times")
    s.add_argument("--start", default=None, help="file with initial coordinates")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    m = sub.add_parser("limit-moments", help="limiting moment recurrences")
    m.add_argument("--system", choices=["a", "b", "dunkl"], required=True)
    m.add_argument("--mu", default="delta0", help="delta0 | quartercircle | semicircle:R | FILE.csv")
    m.add_argument("--nu0", type=float, default=0.0)
    m.add_argument("--t", type=float, required=True)
    m.add_argument("--order", type=int, default=12)
    m.add_argument("--out", required=True)
    m.set_defaults(func=_cmd_limit_moments)

    ll = sub.add_parser("limit-law", help="limit-law density / Stieltjes dumps")
    ll.add_argument("--kind", choices=["a", "b", "dunkl"], required=True)
    ll.add_argument("--mu", default="delta0")
    ll.add_argument("--nu0", type=float, default=0.0)
    ll.add_argument("--t", type=float, required=True)
    ll.add_argument("--grid", default="-4:4:401", help="A:B:K abscissa grid")
    ll.add_argument("--stieltjes", default=None, help="CSV of complex z values to dump G at")
    ll.add_argument("--out", required=True)
    ll.set_defaults(func=_cmd_limit_law)

    v = sub.add_parser("validate", help="run an experiment config")
    v.add_argument("--config", required=True)
    v.add_argument("--replicas", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
