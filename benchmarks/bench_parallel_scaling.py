"""Serial vs parallel wall-clock scaling of the Monte-Carlo engine.

Runs the same 32-seed compressed fault-injection study twice — once on the
serial executor, once sharded across worker processes — verifies the two
studies are byte-identical, and records both wall-clocks as JSON for the
nightly scaling artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [out.json]

Environment knobs:

* ``REPRO_BENCH_MC_SEEDS``  — seed count (default 32)
* ``REPRO_BENCH_MC_HOURS``  — compressed hours per seed (default 0.02)
* ``REPRO_BENCH_MC_WORKERS`` — worker processes (default 4)

Exit status is non-zero when the machine has at least as many usable CPUs
as workers but the speedup still lands under 2× — that is a scaling
regression. On smaller machines (including 1-core CI runners) the numbers
are recorded but not judged: parallel speedup cannot exceed the core
count, which is a property of the hardware rather than of the engine.
"""

import json
import os
import pickle
import sys
import time

from repro.experiments.montecarlo import compile_monte_carlo
from repro.parallel import default_chunk_size
from repro.studies import run_study

N_SEEDS = int(os.environ.get("REPRO_BENCH_MC_SEEDS", "32"))
HOURS = float(os.environ.get("REPRO_BENCH_MC_HOURS", "0.02"))
WORKERS = int(os.environ.get("REPRO_BENCH_MC_WORKERS", "4"))
BASE_SEED = 9000
SPEEDUP_TARGET = 2.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS/Windows
        return os.cpu_count() or 1


def main(argv) -> int:
    out_path = argv[1] if len(argv) > 1 else os.path.join(
        "results", "parallel_scaling.json"
    )
    seeds = list(range(BASE_SEED, BASE_SEED + N_SEEDS))
    cpus = usable_cpus()
    print(f"scaling study: {N_SEEDS} seeds x {HOURS} h, "
          f"{WORKERS} workers on {cpus} usable cpu(s)")

    plan = compile_monte_carlo(seeds, hours=HOURS)

    t0 = time.perf_counter()
    serial = plan.collect(run_study(plan.study, executor="serial"))
    serial_s = time.perf_counter() - t0
    print(f"serial:   {serial_s:7.2f} s")

    t0 = time.perf_counter()
    parallel = plan.collect(run_study(
        plan.study, executor="process", max_workers=WORKERS
    ))
    parallel_s = time.perf_counter() - t0
    print(f"parallel: {parallel_s:7.2f} s  ({WORKERS} workers)")

    identical = pickle.dumps(serial) == pickle.dumps(parallel)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    judged = cpus >= WORKERS
    passed = identical and (not judged or speedup >= SPEEDUP_TARGET)

    payload = {
        "n_seeds": N_SEEDS,
        "hours_per_seed": HOURS,
        "workers": WORKERS,
        "usable_cpus": cpus,
        "chunk_size": default_chunk_size(N_SEEDS, WORKERS),
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "speedup_target": SPEEDUP_TARGET,
        "speedup_judged": judged,
        "byte_identical": identical,
        "bounded_rate": serial.bounded_rate,
        "passed": passed,
    }
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"speedup:  {speedup:7.2f}x "
          f"(target >= {SPEEDUP_TARGET}x, "
          f"{'judged' if judged else f'not judged: {cpus} < {WORKERS} cpus'})")
    print(f"byte-identical results: {identical}")
    print(f"wrote {out_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
