"""One round of one workload, in a fresh process started by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_DIR ROUND [DIGEST]

Prints one JSON line: the round's timings, the digest of every output
(all simulated states included), the checks and, when traced, the
per-layer metrics.  When DIGEST (round 0's digest) is given and the
outputs hash to it, they are bitwise round 0's outputs, so the checks are
not repeated and round 0's results stand for this round.  besselsim is
imported first thing, so ``setup_s`` holds its whole import (numpy and
scipy included) plus the building of the start configurations.
"""

import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    workload, seed, trace, out_dir, round_no = argv[1], int(argv[2]), argv[3] == "1", argv[4], int(argv[5])
    expected_digest = argv[6] if len(argv) > 6 else None
    t0 = time.perf_counter()
    import besselsim

    import_s = time.perf_counter() - t0

    import json
    from pathlib import Path

    import workloads
    from spans import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    setup, run, check = workloads.WORKLOADS[workload]

    t1 = time.perf_counter()
    inputs = setup(besselsim, seed)
    setup_s = import_s + time.perf_counter() - t1

    cpu0, w0 = _cpu_s(), time.perf_counter()
    outputs = run(besselsim, inputs)
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = workloads.digest(outputs)
    result = {
        "round": round_no,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "module": besselsim.__file__,
    }
    if digest != expected_digest:
        chk = workloads.Checks()
        check(inputs, outputs, chk)
        result.update(attempted=chk.attempted, failures=chk.failures, closest_check=list(chk.worst))
    if trace:
        result["layers"] = tracer.layer_metrics()
        if round_no == 0:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            stem = f"trace-{workload}-seed{seed}"
            tracer.write(out / f"{stem}.npz")
            (out / f"{stem}-self.json").write_text(json.dumps(tracer.self_times(), indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
