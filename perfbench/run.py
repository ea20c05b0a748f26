"""Same-machine benchmark of the simulator and its study pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload faults-mesh4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload study-mc --seed 1 --seconds 30 --trace 1

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` runs it once untraced and once traced and
reports the per-layer metrics. Each run happens in a fresh interpreter
(``--child``), so import cost and peak memory belong to that workload. A
human-readable table goes to stderr; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for the metrics, the layers and the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Packages under src/repro/; each is one layer.
LAYERS = (
    "analysis", "chaos", "clocks", "core", "experiments", "faults", "gptp",
    "hypervisor", "measurement", "metrics", "monitoring", "network",
    "parallel", "resilience", "scenarios", "security", "sim", "studies",
)

END_TO_END = {
    "sim_s_per_wall_s": "s/s",
    "jobs_per_s_cold": "1/s",
    "jobs_per_s_warm": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = dict(
    [
        ("sim.events", "count"),
        ("network.frames", "count"),
        ("gptp.relays", "count"),
        ("gptp.syncs", "count"),
        ("gptp.servo_samples", "count"),
        ("clocks.reads", "count"),
        ("core.offsets", "count"),
        ("core.gates_fired", "count"),
        ("core.gate_fire_ratio", "ratio"),
        ("hypervisor.takeovers", "count"),
        ("measurement.probes", "count"),
        ("measurement.precision_p95_ns", "ns"),
        ("measurement.precision_max_ns", "ns"),
        ("studies.ledger_saves", "count"),
        ("studies.ledger_save_s", "s"),
        ("studies.ledger_bytes", "bytes"),
        ("studies.warm_ledger_save_share", "ratio"),
        ("studies.job_gap_p50_ms", "ms"),
        ("studies.job_gap_p95_ms", "ms"),
        ("studies.warm_job_gap_p50_ms", "ms"),
        ("studies.warm_job_gap_p95_ms", "ms"),
        ("parallel.cache_gets", "count"),
        ("parallel.cache_get_s", "s"),
        ("parallel.cache_puts", "count"),
        ("parallel.cache_put_s", "s"),
        ("parallel.cache_hit_ratio", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.share", "ratio") for layer in LAYERS]
)

#: Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 15
#: Operations per timed run at least, however long they take.
MIN_OPS = 3
#: A run must end within this many seconds, children included.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ----------------------------------------------------------------------
# Child side: runs in a fresh interpreter with src/ on the path.
# ----------------------------------------------------------------------
def _import_program() -> None:
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def _child_timed(args, workload_cls, workdir: str) -> Dict:
    """Timed run on the calibrated clock, or one plain untraced operation."""
    from boundaries import RunUntilProbe
    from clock import NormalizedClock, WallClock

    timed = args.child == "timed"
    clock = NormalizedClock() if timed else WallClock()
    chunk_s = workload_cls.chunk_s if timed else None
    probe = RunUntilProbe(clock, None if chunk_s is None else round(chunk_s * 1e9))
    probe.install()
    workload = workload_cls(args.seed, args.size, workdir, clock)
    setups = []
    for _ in range(SETUP_REPEATS if timed else 0):
        start = clock.mark()
        workload.setup()
        setups.append(clock.mark() - start)
    ops: List[Dict] = []
    deadline = time.perf_counter() + (args.seconds if timed else 0)
    while len(ops) < (MIN_OPS if timed else 1) or time.perf_counter() < deadline:
        start = clock.mark()
        summary = workload.operation()
        summary["op_time_s"] = clock.mark() - start
        summary["events"], summary["sim_time_s"] = probe.take()
        ops.append(summary)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setups": setups, "ops": ops, "peak_rss_mb": rss_kb / 1024,
            "calibration_ms": 1e3 * statistics.median(clock.samples or [0])}


def _child_traced(args, workload_cls, workdir: str) -> Dict:
    from boundaries import RunUntilProbe, install_tracing
    from clock import WallClock
    from spans import SpanRecorder, root_ns, summarize

    clock = WallClock()
    probe = RunUntilProbe(clock)
    probe.install()
    recorder = SpanRecorder()
    install_tracing(recorder)
    for attr in workload_cls.spans:
        setattr(workload_cls, attr, recorder.wrap(
            getattr(workload_cls, attr), f"studies:{workload_cls.__name__}.{attr}"
        ))
    workload = workload_cls(args.seed, args.size, workdir, clock)
    with recorder.span(workload.root):
        summary = workload.operation()
    summary["events"], summary["sim_time_s"] = probe.take()
    columns = recorder.columns()
    wall_ns = root_ns(columns[1], columns[2], columns[3])
    per_name = summarize(recorder.names, *columns)
    pass_ledger = _ledger_time_by_pass(recorder)
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    recorder.write(
        os.path.join(OUT_DIR, "spans", f"{args.workload}.json"),
        {"workload": args.workload, "seed": args.seed, "size": args.size,
         "root": workload.root, "wall_ns": wall_ns},
    )
    return {"summary": summary, "per_name": per_name, "wall_ns": wall_ns,
            "spans": len(recorder), "pass_ledger": pass_ledger}


def _ledger_time_by_pass(recorder) -> List[List[int]]:
    """[pass duration, ledger-save time inside it] per study pass, in ns."""
    names = recorder.names
    if "studies:StudyMc._pass" not in names:
        return []
    pass_id = names.index("studies:StudyMc._pass")
    save_id = names.index("studies:StudyLedger.save")
    name_col, _, starts, ends = recorder.columns()
    passes = [[starts[i], ends[i], 0] for i in range(len(name_col))
              if name_col[i] == pass_id]
    for i in range(len(name_col)):
        if name_col[i] == save_id:
            for p in passes:
                if p[0] <= starts[i] and ends[i] <= p[1]:
                    p[2] += ends[i] - starts[i]
    return [[end - start, saved] for start, end, saved in passes]


def child_main(args) -> int:
    from workloads import WORKLOADS

    _import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        run_child = _child_traced if args.child == "traced" else _child_timed
        out = run_child(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# Parent side: spawns the children, checks, and reports.
# ----------------------------------------------------------------------
def _spawn(args, mode: str, deadline: float) -> Dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env.pop("PYTHONSTARTUP", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next child run")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run exceeded the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run printed no result")
    return json.loads(lines[-1])


def _determinism_failures(ops: List[Dict]) -> List[int]:
    """Indices of operations whose event count or precision differs."""
    keys = ("events", "probes", "precision_p95_ns", "precision_max_ns")
    first = tuple(ops[0][k] for k in keys)
    return [i for i, op in enumerate(ops) if tuple(op[k] for k in keys) != first]


def timed_report(args, deadline: float):
    from clock import REFERENCE_S
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    child = _spawn(args, "timed", deadline)
    ops = child["ops"]
    problems: List[str] = []
    failed = 0
    for i, op in enumerate(ops):
        for why in workload.failures(op):
            problems.append(f"operation {i}: {why}")
        failed += workload.failed_ops(op)
    for i in _determinism_failures(ops):
        problems.append(f"operation {i}: same seed, different events or "
                        "precision statistics")
        failed += ops[i]["ops"] if not workload.failures(ops[i]) else 0
    attempted = sum(op["ops"] for op in ops)

    sim_rates = [op["sim_s"] / op["sim_time_s"] for op in ops]
    if "cold" in ops[0]:
        cold = [r for op in ops for r in op["cold"]["rates"]]
        warm = [r for op in ops for w in op["warm"] for r in w["rates"]]
    else:
        # No result store: a repeated run executes again, so warm = cold.
        cold = warm = [1.0 / op["op_time_s"] for op in ops]
    samples = {
        "sim_s_per_wall_s": sim_rates,
        "jobs_per_s_cold": cold,
        "jobs_per_s_warm": warm,
        "setup_s": child["setups"],
        "peak_rss_mb": [child["peak_rss_mb"]],
    }
    metrics = {name: {"value": statistics.median(values),
                      "unit": END_TO_END[name]}
               for name, values in samples.items()}
    lines = [f"{args.workload} seed={args.seed} trace=0: {len(ops)} "
             f"operations, {attempted} attempted, {failed} failed "
             f"(failed_share={failed / attempted:.3f}); calibration loop "
             f"median {child['calibration_ms']:.2f} ms (reference "
             f"{1e3 * REFERENCE_S:.2f} ms)"]
    for name, values in samples.items():
        lines.append(
            f"  {name:<18} {statistics.median(values):12.5g} "
            f"{END_TO_END[name]:<5} median of {len(values)} "
            f"[min {min(values):.5g}, max {max(values):.5g}]"
        )
    return problems, attempted, failed, metrics, lines


def traced_report(args, deadline: float):
    from boundaries import check_expected, counts
    from spans import layer_self_ns
    from workloads import WORKLOADS, nearest_rank

    workload = WORKLOADS[args.workload]
    untraced = _spawn(args, "untraced", deadline)["ops"][0]
    traced = _spawn(args, "traced", deadline)
    summary = traced["summary"]
    per_name = {k: tuple(v) for k, v in traced["per_name"].items()}
    problems: List[str] = []
    for label, op in (("untraced", untraced), ("traced", summary)):
        problems += [f"{label}: {why}" for why in workload.failures(op)]
    failed = workload.failed_ops(untraced) + workload.failed_ops(summary)
    attempted = untraced["ops"] + summary["ops"]
    if summary["events"] != untraced["events"]:
        problems.append(f"tracing changed sim.events: {summary['events']} "
                        f"traced vs {untraced['events']} untraced")
    missing = check_expected(per_name, workload.expected)
    if missing:
        problems.append("expected boundaries recorded no calls: "
                        + ", ".join(missing))
    wall_ns = traced["wall_ns"]
    by_layer = layer_self_ns(per_name)
    unknown = sorted(set(by_layer) - set(LAYERS))
    if unknown:
        problems.append(f"spans in layers the benchmark does not report: "
                        f"{unknown}")
    if sum(by_layer.values()) != wall_ns:
        problems.append("per-layer self times do not add up to the traced "
                        "wall time")

    def total_s(name: str) -> float:
        return per_name.get(name, (0, 0, 0))[1] / 1e9

    values = dict(counts(per_name))
    values["sim.events"] = summary["events"]
    offsets = values["core.offsets"]
    values["core.gate_fire_ratio"] = (
        values["core.gates_fired"] / offsets if offsets else 0.0
    )
    values["measurement.probes"] = summary["probes"]
    values["measurement.precision_p95_ns"] = summary["precision_p95_ns"]
    values["measurement.precision_max_ns"] = summary["precision_max_ns"]
    values["studies.ledger_save_s"] = total_s("studies:StudyLedger.save")
    values["studies.ledger_bytes"] = summary.get("ledger_bytes", 0)
    ledger_by_pass = traced["pass_ledger"]
    values["studies.warm_ledger_save_share"] = (
        ledger_by_pass[-1][1] / ledger_by_pass[-1][0] if ledger_by_pass else 0.0
    )
    passes = ([summary["cold"]] + summary["warm"]) if "cold" in summary else []
    cold_gaps = passes[0]["gaps_s"] if passes else []
    warm_gaps = passes[-1]["gaps_s"] if passes else []
    values["studies.job_gap_p50_ms"] = 1e3 * nearest_rank(cold_gaps, 50)
    values["studies.job_gap_p95_ms"] = 1e3 * nearest_rank(cold_gaps, 95)
    values["studies.warm_job_gap_p50_ms"] = 1e3 * nearest_rank(warm_gaps, 50)
    values["studies.warm_job_gap_p95_ms"] = 1e3 * nearest_rank(warm_gaps, 95)
    values["parallel.cache_get_s"] = total_s("parallel:ResultsCache.get")
    values["parallel.cache_put_s"] = total_s("parallel:ResultsCache.put")
    hits = sum(p["hits"] for p in passes)
    lookups = hits + sum(p["misses"] for p in passes)
    values["parallel.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["trace.overhead"] = wall_ns / 1e9 / untraced["op_time_s"]
    for layer in LAYERS:
        ns = by_layer.get(layer, 0)
        values[f"{layer}.self_s"] = ns / 1e9
        values[f"{layer}.share"] = ns / wall_ns
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}

    lines = [f"{args.workload} seed={args.seed} trace=1: "
             f"{traced['spans']} spans, traced wall {wall_ns / 1e9:.3f} s, "
             f"untraced {untraced['op_time_s']:.3f} s, {attempted} attempted, "
             f"{failed} failed (failed_share={failed / attempted:.3f})"]
    for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} self {ns / 1e9:8.3f} s  "
                     f"{ns / wall_ns:6.1%}")
    for name in PER_LAYER:
        if not name.endswith((".self_s", ".share")):
            lines.append(f"  {name:<32} {values[name]:14.6g} "
                         f"{PER_LAYER[name]}")
    lines.append(f"  spans: {os.path.join(OUT_DIR, 'spans', args.workload)}"
                 ".json")
    return problems, attempted, failed, metrics, lines


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("faults-mesh4", "torus64-full", "study-mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for smoke tests")
    parser.add_argument("--child", choices=("timed", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    report = traced_report if args.trace else timed_report
    try:
        problems, attempted, failed, metrics, lines = report(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines + [f"  CHECK FAILED: {p}" for p in problems]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
