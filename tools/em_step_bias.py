"""Euler-Maruyama weak bias at each sub-step h, at the settings of acceptance criteria 6, 7 and 12.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/em_step_bias.py --replicas 400 --jobs 2

Cells are (coupling, h), each with its own seed, so every cell is an
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

A path takes one sub-step per record step, so h = dt, dt/2 and dt/4 are
set by running at those record steps.  The gate: at h = dt, the bias on
E sum X^2 and moment 6 lies within 3 standard errors of the reference
and within 3 combined standard errors of the bias at h = dt/4, for every
coupling, and every OU gap lies within 3 standard errors of 0.  It uses
besselsim and numpy only.
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
PARTS = (1, 2, 4)  # h = dt / parts
OU = {"n": 50, "k": 1.0, "lam": 1.0, "t": 0.5, "dt": 0.005, "order": 4}
SEED = 180000
Z_GATE = 3.0


def _seed(system, coupling, parts):
    """One seed per cell: the steps of a coupling draw independent paths."""
    return SEED + 1000 * ("AB".index(system) * 10 + int(4 * coupling)) + parts


def _moment_cell(cell):
    system, coupling, parts, reps = cell
    seed, h = _seed(system, coupling, parts), DT[system] / parts
    began = time.perf_counter()
    samples, substeps = np.empty((reps, L + 1)), 0
    if system == "A":
        x0 = starting_profile("zero", N, SCALE_SQRT_N, CHAMBER_A)
        ref = np.array(finite_size_moments_a(coupling, L, N, T))
    else:
        x0 = starting_profile("zero", N, SCALE_SQRT_2N, CHAMBER_B)
        ref = np.array(finite_size_moments_b(1.0, coupling, L, N, T))
    for r in range(reps):
        stream = st.RngStream(seed, r)
        if system == "A":
            p = st.simulate_bessel_a(x0, coupling, T, h, stream)
            samples[r] = EmpiricalMeasure.from_point(p.states[-1]).moments(L)
        else:
            p = st.simulate_bessel_b(x0, 1.0 * N, coupling, T, h, stream)
            samples[r] = EmpiricalMeasure.from_point(p.states[-1], SCALE_SQRT_2N).squared().moments(L)
        substeps += p.diagnostics["substeps"]
    mean, se = samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(reps)
    # odd type A moments vanish in law: their bias is given absolute (scale 1)
    scale = np.where(np.abs(ref) > 1e-12, np.abs(ref), 1.0)
    return {
        "system": system, "coupling": coupling, "h": f"dt/{parts}", "dt": DT[system], "seed": seed,
        "replicas": reps, "reference": ref[1:].tolist(),
        "rel_bias": ((mean - ref) / scale)[1:].tolist(), "rel_se": (se / scale)[1:].tolist(),
        "substeps_per_path": substeps / reps, "seconds": time.perf_counter() - began,
    }


def _ou_cell(cell):
    _, _, parts, reps = cell
    seed, h = SEED + 900 + parts, OU["dt"] / parts
    began = time.perf_counter()
    x0 = starting_profile("semicircle:2", OU["n"], SCALE_SQRT_N, CHAMBER_A)
    moms = {"direct": np.empty((reps, OU["order"] + 1)), "transform": np.empty((reps, OU["order"] + 1))}
    for r in range(reps):
        for i, (mode, m) in enumerate(moms.items()):
            p = st.simulate_bessel_ou(x0, OU["k"], OU["lam"], OU["t"], h, st.RngStream(seed + 10 * i, r), mode)
            m[r] = EmpiricalMeasure.from_point(p.states[-1]).moments(OU["order"])
    d, tr = moms["direct"], moms["transform"]
    gap = d.mean(axis=0) - tr.mean(axis=0)
    se = np.hypot(d.std(axis=0, ddof=1), tr.std(axis=0, ddof=1)) / math.sqrt(reps)
    return {
        "system": "OU", "h": f"dt/{parts}", "dt": OU["dt"], "seed": seed, "replicas": reps,
        "gap": gap[1:].tolist(), "se": se[1:].tolist(), "seconds": time.perf_counter() - began,
    }


def _run(cell):
    return _ou_cell(cell) if cell[0] == "OU" else _moment_cell(cell)


def verdict(cells):
    """The gated quantities at h = dt, in standard errors; rows whose cells are missing are left out."""
    by = {(c["system"], c.get("coupling"), c["h"]): c for c in cells}
    rows = []
    for system, coupling in (*COUPLINGS, ("OU", None)):
        at, fine = by.get((system, coupling, "dt/1")), by.get((system, coupling, "dt/4"))
        if at is None:
            continue
        if system == "OU":
            for l in range(OU["order"]):
                rows.append((system, coupling, f"gap m{l + 1}", "against 0", at["gap"][l], at["gap"][l] / at["se"][l]))
            continue
        s2 = 1 if system == "A" else 0  # E sum X^2: moment 2 (A), squared-side moment 1 (B)
        for name, l in (("E sum X^2", s2), ("m6", L - 1)):
            bias, se = at["rel_bias"][l], at["rel_se"][l]
            rows.append((system, coupling, name, "against reference", bias, bias / se))
            if fine is not None:
                diff = bias - fine["rel_bias"][l]
                rows.append((system, coupling, name, "against dt/4", diff, diff / math.hypot(se, fine["rel_se"][l])))
    rows = [dict(zip(("system", "coupling", "quantity", "test", "value", "z"), r)) for r in rows]
    return all(abs(r["z"]) <= Z_GATE for r in rows), rows


def _cost(cell):
    """Rough sub-steps of a cell, to start the slowest first."""
    system, _, parts, _ = cell
    return parts * {"OU": 200, "A": 200, "B": 500}[system]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replicas", type=int, default=400)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", help="write the cells and the verdict as JSON")
    args = parser.parse_args(argv)
    cells = [(s, c, parts, args.replicas) for s, c in (*COUPLINGS, ("OU", None)) for parts in PARTS]
    cells.sort(key=_cost, reverse=True)  # so the workers finish together
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        results = pool.map(_run, cells, chunksize=1)
    order = {c: i for i, c in enumerate((*COUPLINGS, ("OU", None)))}
    results.sort(key=lambda c: (order[(c["system"], c.get("coupling"))], c["h"]))
    ok, rows = verdict(results)
    for c in results:
        if c["system"] == "OU":
            cols = "  ".join(f"{g:+.2e}±{s:.1e}" for g, s in zip(c["gap"], c["se"]))
            print(f"OU direct-transform gap  h = {c['h']:5}  m1-m4 {cols}")
            continue
        cols = "  ".join(f"{100 * b:+.3f}±{100 * s:.3f}%" for b, s in zip(c["rel_bias"], c["rel_se"]))
        print(
            f"{c['system']} {c['coupling']:<4} h = {c['h']:5} {c['substeps_per_path']:5.0f} sub-steps/path"
            f"  m1-m6 {cols}"
        )
    for r in rows:
        print(f"{r['system']} {r['coupling']} {r['quantity']} {r['test']}: {r['value']:+.3e}, z = {r['z']:+.2f}")
    print(f"h = dt within {Z_GATE:g} standard errors everywhere: {ok}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"replicas": args.replicas, "cells": results, "gate": rows, "passed": ok}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
