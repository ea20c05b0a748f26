"""The three workloads: inputs from the seed, one operation, its checks.

Each workload builds its inputs from the benchmark seed only, and hands
the program nothing else. An *operation* is the unit the timed loop
repeats and the traced run records once:

* ``faults-mesh4`` — one scaled §III-C fault-injection run on the paper's
  mesh4 (``run_fault_injection_experiment``, invariant monitor attached);
* ``torus64-full`` — one bare ``Testbed`` on ``torus-64`` at full
  fidelity, simulated from cold start;
* ``study-mc`` — one cold pass and three warm passes of a ``montecarlo`` study
  spec through ``plan_from_spec`` and ``run_study``, with a fresh
  ``ResultsCache`` and ``StudyLedger`` in a temporary directory.

``failures(summary)`` lists what is wrong with an operation's outputs; an
empty list means it passed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

#: Span names every simulation run must reach at least once.
SIM_EXPECTED: Tuple[str, ...] = (
    "sim:Simulator.run_until",
    "network:Link.carry",
    "network:TsnSwitch.on_receive",
    "network:Nic.on_receive",
    "gptp:TimeAwareBridge._on_gptp",
    "gptp:Ptp4lInstance.on_sync",
    "gptp:PiServo.sample",
    "clocks:HardwareClock.time",
    "core:MultiDomainAggregator.handle_offset",
    "core:AGGREGATORS[fta]",
    "hypervisor:DependentClockMonitor._tick",
)

#: Input size per workload; ``tiny`` is for the benchmark's smoke tests.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    # 0.1 h is the shortest scaled run with a GM failure and a takeover:
    # the first GM shutdown comes 4 simulated minutes in.
    "faults-mesh4": {"full": {"hours": 0.1}, "tiny": {"hours": 0.07}},
    "torus64-full": {"full": {"sim_s": 10}, "tiny": {"sim_s": 6}},
    "study-mc": {"full": {"jobs": 100, "hours": 0.0003},
                 "tiny": {"jobs": 6, "hours": 0.0003}},
}


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, -(-q * len(ordered) // 100) - 1)])


def _precision_stats(precisions: List[float]) -> Tuple[int, float, float]:
    """(count, p95, max) of a run's probe precisions, ns."""
    return (len(precisions), nearest_rank(precisions, 95),
            nearest_rank(precisions, 100))


class Workload:
    """Defaults shared by the workloads."""

    #: Benchmark methods the traced run records as spans of their own.
    spans: Tuple[str, ...] = ()

    @classmethod
    def failed_ops(cls, summary: Dict) -> int:
        """Operations of ``summary`` that failed their checks."""
        return summary["ops"] if cls.failures(summary) else 0


class FaultsMesh4(Workload):
    """§III-C fault injection on mesh4: GM shutdowns, takeovers, oracle."""

    name = "faults-mesh4"
    root = "experiments:run_fault_injection_experiment"
    #: Simulated seconds between clock marks in the timed runs.
    chunk_s = 10.0
    expected = SIM_EXPECTED + (
        "hypervisor:ClockSyncVm.takeover_interrupt",
        "monitoring:InvariantMonitor._tick",
        "faults:FaultInjector._gm_tick",
        "measurement:PrecisionProbeService._send_probe",
    )

    def __init__(self, seed: int, size: str, workdir: str, clock) -> None:
        from repro.experiments.fault_injection import (
            FaultInjectionExperimentConfig,
        )
        from repro.experiments.testbed import TestbedConfig
        from repro.faults.transient import calibrate_transients

        hours = SIZES[self.name][size]["hours"]
        self.config = FaultInjectionExperimentConfig(seed=seed).scaled(hours)
        # The testbed run_fault_injection_experiment builds by default,
        # spelled out so that setup_s builds the very same one.
        self.testbed_config = TestbedConfig(
            seed=seed, kernel_policy="diverse",
            transients=calibrate_transients(),
        )

    def setup(self) -> None:
        from repro.experiments.testbed import Testbed

        Testbed(self.testbed_config)

    def operation(self) -> Dict:
        from repro.experiments.fault_injection import (
            run_fault_injection_experiment,
        )
        from repro.monitoring.invariants import PASS
        from repro.sim.timebase import SECONDS

        result = run_fault_injection_experiment(
            self.config, testbed_config=self.testbed_config
        )
        probes, p95, worst = _precision_stats(
            [r.precision for r in result.records]
        )
        return {
            "ops": 1,
            "sim_s": self.config.duration / SECONDS,
            "bounded": result.bounded,
            "verdict_pass": result.verdict.status == PASS,
            "takeovers": result.takeovers,
            "probes": probes,
            "precision_p95_ns": p95,
            "precision_max_ns": worst,
        }

    @staticmethod
    def failures(summary: Dict) -> List[str]:
        out = []
        if not summary["bounded"]:
            out.append("precision exceeded Π+γ")
        if not summary["verdict_pass"]:
            out.append("invariant monitor verdict is not PASS")
        if summary["takeovers"] < 1:
            out.append("no takeover in the run")
        return out


class Torus64Full(Workload):
    """Bare torus-64 testbed: multi-hop Sync relay, no observers."""

    name = "torus64-full"
    root = "experiments:Testbed"
    chunk_s = 0.25
    expected = SIM_EXPECTED

    def __init__(self, seed: int, size: str, workdir: str, clock) -> None:
        from repro.scenarios import get_scenario
        from repro.sim.timebase import SECONDS

        self.config = get_scenario("torus-64").testbed_config(seed=seed)
        self.sim_s = SIZES[self.name][size]["sim_s"]
        self.duration = round(self.sim_s * SECONDS)

    def setup(self) -> None:
        from repro.experiments.testbed import Testbed

        Testbed(self.config)

    def operation(self) -> Dict:
        from repro.core.aggregator import AggregatorMode
        from repro.experiments.testbed import Testbed

        testbed = Testbed(self.config)
        testbed.run_until(self.duration)
        probes, p95, worst = _precision_stats(testbed.series.precisions())
        vms = list(testbed.vms.values())
        return {
            "ops": 1,
            "sim_s": self.sim_s,
            "vms": len(vms),
            "vms_running": sum(1 for vm in vms if vm.running),
            "vms_fault_tolerant": sum(
                1 for vm in vms
                if vm.aggregator.mode is AggregatorMode.FAULT_TOLERANT
            ),
            "probes": probes,
            "precision_p95_ns": p95,
            "precision_max_ns": worst,
        }

    @staticmethod
    def failures(summary: Dict) -> List[str]:
        out = []
        if summary["vms_running"] != summary["vms"]:
            out.append("a VM stopped without any fault injected")
        if summary["vms_fault_tolerant"] != summary["vms"]:
            out.append(
                f"only {summary['vms_fault_tolerant']}/{summary['vms']} "
                "aggregators reached fault-tolerant mode"
            )
        return out


class StudyMc(Workload):
    """Monte-Carlo study: a cold pass (execute, put, journal), then warm
    passes served from the store."""

    name = "study-mc"
    root = "studies:cold_and_warm_pass"
    #: Jobs this short are timed between progress events instead: a clock
    #: mark every MARK_EVERY finished jobs; jobs_per_s_* are medians over
    #: these segments.
    chunk_s = None
    MARK_EVERY = 10
    WARM_PASSES = 3
    spans = ("_pass",)  # splits the traced run's ledger time by pass
    # Jobs this short end before any aggregator leaves start-up mode, so
    # the FTA itself (core:AGGREGATORS[...]) is not expected here.
    expected = tuple(n for n in SIM_EXPECTED if not n.startswith("core:AGG")) + (
        "studies:StudyLedger.save",
        "parallel:ResultsCache.get",
        "parallel:ResultsCache.put",
    )

    def __init__(self, seed: int, size: str, workdir: str, clock) -> None:
        from repro.sim.timebase import HOURS, SECONDS

        params = SIZES[self.name][size]
        self.jobs = int(params["jobs"])
        self.spec = {
            "kind": "montecarlo",
            "name": "perfbench-study-mc",
            "scenario": "paper-mesh4",
            "seeds": [seed * 10_000 + i for i in range(self.jobs)],
            "hours": params["hours"],
        }
        self.job_sim_s = round(params["hours"] * HOURS) / SECONDS
        self.workdir = workdir
        self.clock = clock

    def _compile(self, directory: str):
        """Compile the plan and create (or adopt) the on-disk ledger."""
        from repro.studies.ledger import StudyLedger
        from repro.studies.specs import plan_from_spec

        plan = plan_from_spec(self.spec)
        ledger = StudyLedger.for_study(
            plan.study, path=os.path.join(directory, "study.ledger.json"),
            spec=self.spec, cache_dir=os.path.join(directory, "store"),
        )
        ledger.save()
        return plan, ledger

    def setup(self) -> None:
        self._compile(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))

    def _pass(self, directory: str) -> Dict:
        from repro.parallel import ResultsCache
        from repro.studies.runner import run_study
        from repro.studies.specs import run_payload

        plan, ledger = self._compile(directory)
        cache = ResultsCache(os.path.join(directory, "store"))
        mark = self.clock.mark
        stamps: List[float] = []
        marks = [mark()]

        def progress(event: Dict) -> None:
            stamps.append(time.perf_counter())
            if event["index"] % self.MARK_EVERY == 0:
                marks.append(mark())

        first = time.perf_counter()
        run = run_study(
            plan.study, executor="serial", cache=cache, ledger=ledger,
            progress=progress, on_error="continue",
        )
        payload = run_payload(self.spec, plan, run)
        elapsed = mark() - marks[0]
        gaps = [b - a for a, b in zip([first] + stamps, stamps)]
        # Jobs per second of each MARK_EVERY-job segment: a host-state
        # change spoils one segment, not the whole pass.
        rates = [self.MARK_EVERY / (b - a) for a, b in zip(marks, marks[1:])]
        return {
            "rates": rates or [self.jobs / elapsed],
            "gaps_s": gaps,
            "executed": len(run.executed),
            "cached": len(run.cached),
            "failed": len(run.failed) + len(run.quarantined),
            "complete": run.complete,
            "hits": cache.hits,
            "misses": cache.misses,
            "result": json.dumps(payload.get("result"), sort_keys=True),
        }

    def operation(self) -> Dict:
        directory = tempfile.mkdtemp(prefix="study-", dir=self.workdir)
        try:
            passes = [self._pass(directory)
                      for _ in range(1 + self.WARM_PASSES)]
            ledger_bytes = os.path.getsize(
                os.path.join(directory, "study.ledger.json")
            )
        finally:
            shutil.rmtree(directory)
        cold_result = passes[0].pop("result")
        for warm in passes[1:]:
            warm["same_result"] = warm.pop("result") == cold_result
        outcomes = (json.loads(cold_result) or {}).get("outcomes", [])
        _, p95, worst = _precision_stats([o["max_ns"] for o in outcomes])
        return {
            "ops": len(passes) * self.jobs,
            "jobs": self.jobs,
            "sim_s": self.jobs * self.job_sim_s,
            "cold": passes[0],
            "warm": passes[1:],
            "has_result": cold_result != "null",
            "ledger_bytes": ledger_bytes,
            "probes": 0,
            "precision_p95_ns": p95,
            "precision_max_ns": worst,
        }

    @staticmethod
    def failures(summary: Dict) -> List[str]:
        cold, jobs = summary["cold"], summary["jobs"]
        out = []
        if cold["failed"]:
            out.append(f"{cold['failed']} cold-pass jobs failed")
        if not summary["has_result"] or cold["executed"] != jobs:
            out.append("cold pass did not complete every job")
        for i, warm in enumerate(summary["warm"], 1):
            if warm["executed"] or warm["cached"] != jobs or warm["failed"]:
                out.append(f"warm pass {i} executed {warm['executed']} jobs")
            if not warm["same_result"]:
                out.append(f"warm pass {i} result differs from the cold pass")
        return out

    @classmethod
    def failed_ops(cls, summary: Dict) -> int:
        """Cold jobs not executed, plus warm jobs not served identically."""
        jobs = summary["jobs"]
        failed = jobs - summary["cold"]["executed"]
        for warm in summary["warm"]:
            failed += jobs - warm["cached"] if warm["same_result"] else jobs
        return failed


WORKLOADS = {cls.name: cls for cls in (FaultsMesh4, Torus64Full, StudyMc)}
