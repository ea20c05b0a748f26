"""Parallel-vs-serial determinism regression tests.

The ordered-collection contract of :class:`repro.parallel.WorkerPool` is
what lets studies switch executors freely: a ``process``-executor run must
produce a *byte-identical* result to the serial run for the same seeds.
These tests pin that contract for the Monte-Carlo study (small/fast here;
the scaling benchmark exercises the 32-seed version nightly).
"""

import pickle

import pytest

from repro.experiments.montecarlo import compile_monte_carlo
from repro.experiments.sweeps import compile_sweep
from repro.experiments.testbed import TestbedConfig
from repro.parallel import ResultsCache
from repro.sim.timebase import SECONDS
from repro.studies import run_study

SEEDS = [401, 402, 403]
HOURS = 0.005  # 432 s of simulated time per seed — seconds of wall clock


def run(plan, **kwargs):
    """Schedule a compiled plan and collect its native result."""
    return plan.collect(run_study(plan.study, **kwargs))


@pytest.fixture(scope="module")
def serial_study():
    return run(compile_monte_carlo(seeds=SEEDS, hours=HOURS))


@pytest.fixture(scope="module")
def process_study():
    return run(compile_monte_carlo(seeds=SEEDS, hours=HOURS),
               executor="process", max_workers=2)


class TestMonteCarloDeterminism:
    def test_outcomes_equal(self, serial_study, process_study):
        assert serial_study.outcomes == process_study.outcomes

    def test_byte_identical(self, serial_study, process_study):
        assert pickle.dumps(serial_study) == pickle.dumps(process_study)

    def test_seed_order_preserved(self, process_study):
        assert [o.seed for o in process_study.outcomes] == SEEDS

    def test_cache_replay_identical(self, serial_study, tmp_path):
        cache = ResultsCache(str(tmp_path))
        cold = run(compile_monte_carlo(seeds=SEEDS, hours=HOURS), cache=cache)
        warm = run(compile_monte_carlo(seeds=SEEDS, hours=HOURS), cache=cache)
        assert cold.outcomes == serial_study.outcomes
        assert warm.outcomes == serial_study.outcomes
        assert cache.hits == len(SEEDS)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_study(compile_monte_carlo(seeds=[1]).study,
                      executor="threads")


class TestSweepDeterminism:
    def test_process_sweep_matches_serial(self):
        values = (4, 5)
        make = lambda n: TestbedConfig(seed=7, n_devices=n)  # noqa: E731
        plan = compile_sweep("n_devices", values, make,
                             duration=40 * SECONDS, warmup_records=5)
        serial = run(plan)
        parallel = run(plan, executor="process", max_workers=2)
        assert serial == parallel
