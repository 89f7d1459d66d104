"""Euler-Maruyama weak bias at each sub-step floor, at the settings of acceptance criteria 6, 7 and 12.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/em_floor_bias.py --replicas 400 --jobs 2

Cells are (coupling, floor), each with its own seed, so every cell is an
independent sample and the table is the same whatever ``--jobs`` is:

* type A at k = 1/2, 1 and 4, dt = 0.005, and type B at beta = 1/2 and 2,
  nu = N, dt = 0.002; zero start, N = 100, T = 1 (criteria 6 and 7).  The
  bias of the moments 1-6 of the final empirical measure (type B: of its
  square) is taken against ``moments.finite_size_moments_a`` and ``_b``,
  whose O(1/N^2) error is about 1e-4 relative, and given relative to that
  reference with its standard error (the odd type A moments, whose
  reference is 0, absolute).  E sum X^2 is moment 2 (type A) or
  moment 1 (type B).
* criterion 12's direct-versus-transform OU gap on moments 1-4:
  semicircle:2 start, N = 50, k = 1, lam = 1, T = 0.5, dt = 0.005.

Floors are dt/8, dt/4 and dt/2, set through ``stochastic._FLOOR_PARTS``.
The verdict compares dt/4 with dt/8: the difference of their biases (of
their OU gaps) must lie within 3 combined standard errors on E sum X^2 and
moment 6 for every coupling, and on every OU moment.  It uses besselsim and
numpy only.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import time

import numpy as np

from besselsim import stochastic as st
from besselsim.chambers import CHAMBER_A, CHAMBER_B
from besselsim.harness import SCALE_SQRT_2N, SCALE_SQRT_N, EmpiricalMeasure, starting_profile
from besselsim.moments import finite_size_moments_a, finite_size_moments_b

N, T, L = 100, 1.0, 6
COUPLINGS = (("A", 0.5), ("A", 1.0), ("A", 4.0), ("B", 0.5), ("B", 2.0))
DT = {"A": 0.005, "B": 0.002}
FLOORS = (8, 4, 2)  # floor = dt / parts
OU = {"n": 50, "k": 1.0, "lam": 1.0, "t": 0.5, "dt": 0.005, "order": 4}
SEED = 180000
Z_GATE = 3.0


def _seed(system, coupling, parts):
    """One seed per cell: the floors of a coupling draw independent paths."""
    return SEED + 1000 * ("AB".index(system) * 10 + int(4 * coupling)) + parts


def _moment_cell(cell):
    system, coupling, parts, reps = cell
    st._FLOOR_PARTS = float(parts)
    seed, dt = _seed(system, coupling, parts), DT[system]
    began = time.perf_counter()
    samples, substeps, floor = np.empty((reps, L + 1)), 0, 0
    if system == "A":
        x0 = starting_profile("zero", N, SCALE_SQRT_N, CHAMBER_A)
        ref = np.array(finite_size_moments_a(coupling, L, N, T))
    else:
        x0 = starting_profile("zero", N, SCALE_SQRT_2N, CHAMBER_B)
        ref = np.array(finite_size_moments_b(1.0, coupling, L, N, T))
    for r in range(reps):
        stream = st.RngStream(seed, r)
        if system == "A":
            p = st.simulate_bessel_a(x0, coupling, T, dt, stream)
            samples[r] = EmpiricalMeasure.from_point(p.states[-1]).moments(L)
        else:
            p = st.simulate_bessel_b(x0, 1.0 * N, coupling, T, dt, stream)
            samples[r] = EmpiricalMeasure.from_point(p.states[-1], SCALE_SQRT_2N).squared().moments(L)
        substeps += p.diagnostics["substeps"]
        floor += p.diagnostics["floor_substeps"]
    mean, se = samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(reps)
    # odd type A moments vanish in law: their bias is given absolute (scale 1)
    scale = np.where(np.abs(ref) > 1e-12, np.abs(ref), 1.0)
    return {
        "system": system, "coupling": coupling, "floor": f"dt/{parts}", "dt": dt, "seed": seed,
        "replicas": reps, "reference": ref[1:].tolist(),
        "rel_bias": ((mean - ref) / scale)[1:].tolist(), "rel_se": (se / scale)[1:].tolist(),
        "substeps_per_path": substeps / reps, "floor_substeps_per_path": floor / reps,
        "seconds": time.perf_counter() - began,
    }


def _ou_cell(cell):
    _, _, parts, reps = cell
    st._FLOOR_PARTS = float(parts)
    seed = SEED + 900 + parts
    began = time.perf_counter()
    x0 = starting_profile("semicircle:2", OU["n"], SCALE_SQRT_N, CHAMBER_A)
    moms = {"direct": np.empty((reps, OU["order"] + 1)), "transform": np.empty((reps, OU["order"] + 1))}
    for r in range(reps):
        for i, (mode, m) in enumerate(moms.items()):
            p = st.simulate_bessel_ou(x0, OU["k"], OU["lam"], OU["t"], OU["dt"], st.RngStream(seed + 10 * i, r), mode)
            m[r] = EmpiricalMeasure.from_point(p.states[-1]).moments(OU["order"])
    d, tr = moms["direct"], moms["transform"]
    gap = d.mean(axis=0) - tr.mean(axis=0)
    se = np.hypot(d.std(axis=0, ddof=1), tr.std(axis=0, ddof=1)) / math.sqrt(reps)
    return {
        "system": "OU", "floor": f"dt/{parts}", "dt": OU["dt"], "seed": seed, "replicas": reps,
        "gap": gap[1:].tolist(), "se": se[1:].tolist(), "seconds": time.perf_counter() - began,
    }


def _run(cell):
    return _ou_cell(cell) if cell[0] == "OU" else _moment_cell(cell)


def verdict(cells):
    """dt/4 - dt/8 per gated quantity, in combined standard errors."""
    by = {(c["system"], c.get("coupling"), c["floor"]): c for c in cells}
    rows, ok = [], True
    for system, coupling in (*COUPLINGS, ("OU", None)):
        lo, hi = by.get((system, coupling, "dt/8")), by.get((system, coupling, "dt/4"))
        if lo is None or hi is None:
            continue
        if system == "OU":
            gated = [(f"gap m{l + 1}", lo["gap"][l], lo["se"][l], hi["gap"][l], hi["se"][l]) for l in range(OU["order"])]
        else:
            s2 = 1 if system == "A" else 0  # E sum X^2: moment 2 (A), squared-side moment 1 (B)
            gated = [
                (name, lo["rel_bias"][l], lo["rel_se"][l], hi["rel_bias"][l], hi["rel_se"][l])
                for name, l in (("E sum X^2", s2), ("m6", L - 1))
            ]
        for name, b8, s8, b4, s4 in gated:
            z = (b4 - b8) / math.hypot(s8, s4)
            ok = ok and abs(z) <= Z_GATE
            rows.append({"system": system, "coupling": coupling, "quantity": name, "dt/4 - dt/8": b4 - b8, "z": z})
    return ok, rows


def _cost(cell):
    """Rough sub-steps of a cell, to start the slowest first."""
    system, coupling, parts, _ = cell
    if system == "OU":
        return 2 * parts * 100
    return parts * (3000 if system == "B" else 1000) / max(coupling, 0.5)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replicas", type=int, default=400)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", help="write the cells and the verdict as JSON")
    args = parser.parse_args(argv)
    cells = [(s, c, parts, args.replicas) for s, c in COUPLINGS for parts in FLOORS]
    cells += [("OU", None, parts, args.replicas) for parts in FLOORS]
    cells.sort(key=_cost, reverse=True)  # so the workers finish together
    with multiprocessing.Pool(args.jobs) as pool:
        results = pool.map(_run, cells, chunksize=1)
    order = {c: i for i, c in enumerate((*COUPLINGS, ("OU", None)))}
    results.sort(key=lambda c: (order[(c["system"], c.get("coupling"))], -int(c["floor"][3:])))
    ok, rows = verdict(results)
    for c in results:
        if c["system"] == "OU":
            cols = "  ".join(f"{g:+.2e}±{s:.1e}" for g, s in zip(c["gap"], c["se"]))
            print(f"OU direct-transform gap  {c['floor']:5}  m1-m4 {cols}")
            continue
        cols = "  ".join(f"{100 * b:+.3f}±{100 * s:.3f}%" for b, s in zip(c["rel_bias"], c["rel_se"]))
        print(
            f"{c['system']} {c['coupling']:<4} {c['floor']:5} {c['substeps_per_path']:7.0f} sub-steps/path"
            f"  m1-m6 {cols}"
        )
    for r in rows:
        print(f"{r['system']} {r['coupling']} {r['quantity']}: dt/4 - dt/8 = {r['dt/4 - dt/8']:+.3e}, z = {r['z']:+.2f}")
    print(f"dt/4 within {Z_GATE:g} standard errors of dt/8 everywhere: {ok}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"replicas": args.replicas, "cells": results, "comparison": rows, "floor_dt4_ok": ok}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
