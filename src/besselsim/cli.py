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
import re
import sys
from pathlib import Path

import numpy as np

_START_HELP = "zero | quartercircle | semicircle[:R] | profile:C | file:PATH"
_MU_HELP = "zero | quartercircle | semicircle[:R] | FILE.csv"
_T_GRID_FORM = "T0:T1:COUNT"
_X_GRID_FORM = "X0:X1:COUNT"


def _parse_grid(flag: str, spec: str, form: str):
    """``np.linspace`` of a ``START:STOP:COUNT`` spec; bad input names ``flag`` and ``form``."""
    try:
        a, b, count = spec.split(":")
        grid = np.linspace(float(a), float(b), int(count))
        if grid.size:
            return grid
    except ValueError:
        pass
    raise ValueError(f"{flag} {spec}: expected {form}")


def _cmd_zeros(args):
    from .zeros import hermite_zeros, laguerre_zeros

    if args.family == "hermite":
        prof = hermite_zeros(args.n)
    else:
        if args.nu is None:
            raise ValueError("laguerre zeros need --nu")
        prof = laguerre_zeros(args.n, args.nu)
    lines = ["zero"] + [f"{z:.17g}" for z in prof.zeros]
    _write_lines(args.out, lines)
    print(f"{prof.family} n={prof.n} residual={prof.residual:.3e} -> {args.out}")
    return 0


def _start(args, chamber):
    """The ``--n`` coordinates named by ``--start``.

    A ``harness.start_law`` name gives quantiles scaled by sqrt(N), or by
    sqrt(2N) in chamber B; ``profile:C`` is the zero profile C * (Hermite
    zeros) in chamber A, else C * sqrt(Laguerre zeros at --nu);
    ``file:PATH`` holds unscaled coordinates, one per line.
    """
    from .chambers import CHAMBER_A, CHAMBER_B
    from .harness import SCALE_SQRT_2N, SCALE_SQRT_N, starting_profile
    from .zeros import profile_solution_a, profile_solution_b

    name, _, arg = args.start.partition(":")
    try:
        if name != "profile":
            scaling = SCALE_SQRT_2N if chamber == CHAMBER_B else SCALE_SQRT_N
            x0 = starting_profile(args.start, args.n, scaling, chamber).coords
        elif chamber == CHAMBER_A:
            x0 = profile_solution_a(args.n, float(arg), 0.0).coords
        else:
            x0 = profile_solution_b(args.n, args.nu, float(arg), 0.0).coords
    except (OSError, ValueError) as err:
        raise ValueError(f"--start {args.start}: {err}") from None
    if x0.size != args.n:
        raise ValueError(f"--start {args.start} holds {x0.size} coordinates but --n is {args.n}")
    return x0


def _cmd_frozen(args):
    from .chambers import CHAMBER_A, CHAMBER_B
    from .frozen import solve_frozen

    if args.system == "b" and args.nu is None:
        raise ValueError("--system b needs --nu")
    x0 = _start(args, CHAMBER_A if args.system == "a" else CHAMBER_B)
    grid = _parse_grid("--t-grid", args.t_grid, _T_GRID_FORM)
    traj = solve_frozen(args.system, x0, grid, nu=args.nu)
    lines = ["t,particle,x"]
    for i, t in enumerate(traj.times):
        for p, x in enumerate(traj.states[i]):
            lines.append(f"{t:.12g},{p},{x:.17g}")
    _write_lines(args.out, lines)
    print(
        f"frozen {args.system} n={args.n} steps={traj.n_accepted} "
        f"rejected={traj.n_rejected} -> {args.out}"
    )
    return 0


def _cmd_simulate(args):
    from .chambers import CHAMBER_A, CHAMBER_B, FULL_SPACE
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
        raise ValueError(f"{args.system} needs {' and '.join(missing)}")
    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
    chamber = {"bessel-a": CHAMBER_A, "bessel-ou": CHAMBER_A, "bessel-b": CHAMBER_B, "dunkl-b": FULL_SPACE}
    x0 = _start(args, chamber[args.system])
    grid = _record_grid(args.t, args.dt)
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
            raise ValueError(
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
        path = run_one(RngStream(args.seed, r))
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


def _mu(spec):
    """The start named by ``--mu``: a law of ``harness.start_law``, or the
    moments m_0 = 1, m_1, ... of a ``FILE.csv``, one per row."""
    from .harness import start_law

    try:
        return list(np.loadtxt(spec, ndmin=1)) if spec.endswith(".csv") else start_law(spec)
    except (OSError, ValueError) as err:
        raise ValueError(f"--mu {spec}: {err}") from None


def _cmd_limit_moments(args):
    from .freeprob import square_moments
    from .moments import limit_moments_a, limit_moments_b, limit_moments_dunkl

    L = args.order
    mu0 = _mu(args.mu)
    # a CSV start gives its moments as they are; a Gauss rule would match only its first 2K
    c0 = mu0 if isinstance(mu0, list) else mu0.moments(2 * L)
    recurrence = {
        "a": lambda c0: limit_moments_a(c0, args.t, L),
        # type B starts live on [0, inf); its recurrence takes the moments of x^2
        "b": lambda c0: limit_moments_b(square_moments(c0), args.nu0, args.t, L),
        "dunkl": lambda c0: limit_moments_dunkl(c0, args.nu0, args.t, L),
    }[args.system]
    lines = ["order,moment"] + [f"{l},{float(v):.17g}" for l, v in enumerate(recurrence(c0).values)]
    _write_lines(args.out, lines)
    print(f"limit-moments {args.system} t={args.t} -> {args.out}")
    return 0


def _cmd_limit_law(args):
    from .freeprob import Atoms, atoms_from_moments, dunkl_limit_law, limit_law_a, limit_law_b

    mu0 = _mu(args.mu)
    if isinstance(mu0, list):
        mu0 = Atoms(*atoms_from_moments(mu0))
        print(f"--mu {args.mu}: Gauss rule of depth K = {mu0.locs.size}")
    make = {"a": lambda mu0, nu0, t: limit_law_a(mu0, t), "b": limit_law_b, "dunkl": dunkl_limit_law}
    law = make[args.kind](mu0, args.nu0, args.t)
    if args.stieltjes:
        zs = np.loadtxt(args.stieltjes, dtype=complex, ndmin=1)
        lines = ["z,G"] + [f"{z:.12g},{law.stieltjes(complex(z)):.12g}" for z in zs]
    else:
        grid = _parse_grid("--grid", args.grid, _X_GRID_FORM)
        inv = law.spectral_density(grid)
        print(
            f"inversion: {int(inv.diverged.sum())} of {grid.size} points flagged, "
            f"clipped negative mass {inv.clip_mass:.3g}, total mass {inv.mass():.6g}"
        )
        lines = ["x,density"] + [f"{x:.12g},{d:.17g}" for x, d in zip(grid, inv.density)]
    _write_lines(args.out, lines)
    print(f"limit-law {args.kind} -> {args.out}")
    return 0


def _cmd_validate(args):
    from .harness import run_experiment

    report = run_experiment(json.loads(Path(args.config).read_text()), out_dir=args.out)
    for r in report.rows:
        print(
            f'[{"PASS" if r["passed"] else "FAIL"}] {r["name"]} n={r["n"]} t={r["t"]:g} {r["metric"]}: '
            f'{r["value"]:.4g} <= {r["threshold"]:.4g}'
        )
    n_passed = sum(r["passed"] for r in report.rows)
    print(f"{n_passed}/{len(report.rows)} hard checks passed")
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
    f.add_argument("--start", default="zero", help=_START_HELP)
    f.add_argument("--t-grid", required=True, help=_T_GRID_FORM)
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
    s.add_argument("--start", default="zero", help=_START_HELP)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    m = sub.add_parser("limit-moments", help="limiting moment recurrences")
    m.add_argument("--system", choices=["a", "b", "dunkl"], required=True)
    m.add_argument("--mu", default="zero", help=_MU_HELP)
    m.add_argument("--nu0", type=float, default=0.0)
    m.add_argument("--t", type=float, required=True)
    m.add_argument("--order", type=int, default=12)
    m.add_argument("--out", required=True)
    m.set_defaults(func=_cmd_limit_moments)

    ll = sub.add_parser("limit-law", help="limit-law density / Stieltjes dumps")
    ll.add_argument("--kind", choices=["a", "b", "dunkl"], required=True)
    ll.add_argument("--mu", default="zero", help=_MU_HELP)
    ll.add_argument("--nu0", type=float, default=0.0)
    ll.add_argument("--t", type=float, required=True)
    ll.add_argument("--grid", default="-4:4:401", help=f"{_X_GRID_FORM} abscissa grid")
    ll.add_argument("--stieltjes", default=None, help="CSV of complex z values to dump G at")
    ll.add_argument("--out", required=True)
    ll.set_defaults(func=_cmd_limit_law)

    v = sub.add_parser("validate", help="run an experiment config")
    v.add_argument("--config", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    """Run one command; bad input exits with one line naming the command."""
    # argparse reads a value such as -inf or -1e-3 as an option, so glue it to its flag
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--\w[\w-]*", argv[i - 1]) and re.match(r"-(\.?\d|inf|nan)", argv[i], re.I):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        raise SystemExit(f"{args.command}: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
