"""besselsim benchmark: time to a verified verdict on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sde-chamber --seed 1 --seconds 24 --trace 0

The run repeats whole rounds of the workload for about ``--seconds``
seconds (at least three rounds).  Every round is a fresh single-threaded
process (perfbench/worker.py, BLAS threads pinned to 1) that imports
besselsim from ``src/``, builds the inputs from the seed, runs the
workload, and then checks every output.  The run prints each metric by
name with its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over rounds);
``--trace 1`` installs span wrappers at besselsim's module boundaries and
reports the per-layer metrics instead.  Spans, self times and the raw
per-round results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402

WORKLOADS = ("sde-chamber", "dunkl-jump", "frozen-zeros", "limit-law")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
MIN_ROUNDS = 3
# A run must end within 180 s; no round is started that could end past this.
RUN_LIMIT_S = 150.0
ROUND_TIMEOUT_S = 120.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload: str, seed: int, trace: bool, round_no: int, digest: str | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0", str(OUT), str(round_no)]
    if digest is not None:
        cmd.append(digest)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"round {round_no} of {workload} exceeded {ROUND_TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {round_no} of {workload} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    module = Path(result["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise SystemExit(f"besselsim was imported from {module}, not from {ROOT / 'src'}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "besselsim" / "__init__.py").is_file():
        sys.stderr.write(f"no besselsim source under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    trace = bool(args.trace)

    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        digest = rounds[0]["digest"] if rounds else None
        rounds.append(run_round(args.workload, args.seed, trace, len(rounds), digest))
        now = time.perf_counter()
        elapsed, last = now - start, now - began
        if elapsed + last > RUN_LIMIT_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + last > args.seconds:
            break

    # Every round runs the same operations on the same inputs.  A round whose
    # outputs hash to round 0's digest carries round 0's check results; any
    # other round was checked on its own and also counts a digest failure.
    # When traced, each round must also repeat round 0's work counts.
    first = rounds[0]
    attempted, failures = 0, []
    for r in rounds:
        own = r if "attempted" in r else first
        attempted += own["attempted"] + 1
        failures += [f"round {r['round']}: {msg}" for msg in own["failures"]]
        if r["digest"] != first["digest"]:
            failures.append(f"round {r['round']}: outputs differ from round 0")
    metrics = {}
    lines = []
    if trace:
        counts = [name for name, unit in LAYER_METRICS if unit != "s"]
        attempted += len(rounds)
        failures += [
            f"round {r['round']}: layer counts differ from round 0"
            for r in rounds
            if any(r["layers"][c] != first["layers"][c] for c in counts)
        ]
        for name, unit in LAYER_METRICS:
            values = [r["layers"][name] for r in rounds]
            value = values[0] if unit != "s" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} = {value:.6g} {unit}")
        walls = [r["wall_s"] for r in rounds]
        lines.append(f"traced wall_s = {statistics.median(walls):.6g} s (for the tracing overhead)")
    else:
        for name, unit in END_TO_END:
            values = [r[name] for r in rounds]
            q1, q3 = quartiles(values)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(f"{name} = {metrics[name]['value']:.6g} {unit} (median of {len(values)} rounds; quartiles {q1:.6g}, {q3:.6g})")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"args": vars(args), "rounds": rounds}, indent=1))
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds, digest {first['digest'][:16]}")
    for line in lines:
        print(line)
    for msg in failures:
        print(f"FAILED {msg}")
    closest = max((r["closest_check"] for r in rounds if "closest_check" in r), key=lambda c: c[0])
    print(f"checks: {attempted} attempted, {len(failures)} failed; closest to its limit: {closest[1]} at {closest[0]:.3f} of it")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
