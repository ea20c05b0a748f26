"""Crash-resume acceptance: killed studies finish without recomputation.

The ISSUE 9 acceptance scenario: run a Monte-Carlo study over seeds
1/21/42, kill it after k of n jobs, resume from the ledger, and prove
(a) the finished jobs were never recomputed — they come back from the
content-addressed store — and (b) the assembled result is byte-identical
to an uninterrupted run.
"""

import pytest

from repro.experiments.montecarlo import compile_monte_carlo
from repro.parallel import ResultsCache
from repro.studies import (
    DONE,
    PENDING,
    StudyInterrupted,
    StudyLedger,
    run_study,
)

SEEDS = [1, 21, 42]
HOURS = 0.02


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted run every resumed run must reproduce exactly."""
    plan = compile_monte_carlo(SEEDS, hours=HOURS)
    return plan.collect(run_study(plan.study))


class TestInterruptedThenResumed:
    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_resume_completes_without_recompute(self, tmp_path, baseline,
                                                kill_after):
        cache = ResultsCache(str(tmp_path / "store"))
        ledger_path = str(tmp_path / "ledger.json")

        plan = compile_monte_carlo(SEEDS, hours=HOURS)
        ledger = StudyLedger.for_study(plan.study, path=ledger_path)
        first = run_study(plan.study, cache=cache, ledger=ledger,
                          max_jobs=kill_after)
        assert first.interrupted and not first.complete
        assert len(first.executed) == kill_after
        done_keys = set(first.executed)

        # The ledger on disk records exactly the kill point.
        on_disk = StudyLedger.load(ledger_path)
        assert on_disk.counts()[DONE] == kill_after
        assert on_disk.counts()[PENDING] == len(SEEDS) - kill_after
        assert set(on_disk.unfinished()) == (
            {j.key for j in plan.study.jobs} - done_keys
        )

        # Resume: recompile (fingerprints must match), reuse ledger+store.
        plan2 = compile_monte_carlo(SEEDS, hours=HOURS)
        assert plan2.study.fingerprint() == plan.study.fingerprint()
        ledger2 = StudyLedger.for_study(plan2.study, path=ledger_path)
        resumed = run_study(plan2.study, cache=cache, ledger=ledger2)
        assert resumed.complete

        # (a) zero recomputed done-jobs.
        assert set(resumed.executed).isdisjoint(done_keys)
        assert set(resumed.cached) == done_keys
        assert len(resumed.executed) == len(SEEDS) - kill_after

        # (b) byte-identical to the uninterrupted run.
        result = plan2.collect(resumed)
        assert repr(result.outcomes) == repr(baseline.outcomes)

        assert StudyLedger.load(ledger_path).complete

    def test_interrupt_exception_path_resumes_too(self, tmp_path, baseline):
        """Ctrl-C (StudyInterrupted) leaves the same resumable state."""
        cache = ResultsCache(str(tmp_path / "store"))
        ledger_path = str(tmp_path / "ledger.json")
        plan = compile_monte_carlo(SEEDS, hours=HOURS)

        interrupting = iter([False, True])

        def progress(event):
            if next(interrupting):
                raise KeyboardInterrupt

        ledger = StudyLedger.for_study(plan.study, path=ledger_path)
        with pytest.raises(StudyInterrupted) as err:
            run_study(plan.study, cache=cache, ledger=ledger,
                      progress=progress)
        partial = err.value.run
        assert 0 < len(partial.results) < len(SEEDS)

        plan2 = compile_monte_carlo(SEEDS, hours=HOURS)
        ledger2 = StudyLedger.for_study(plan2.study, path=ledger_path)
        resumed = run_study(plan2.study, cache=cache, ledger=ledger2)
        assert resumed.complete
        assert set(resumed.executed).isdisjoint(set(partial.executed))
        result = plan2.collect(resumed)
        assert repr(result.outcomes) == repr(baseline.outcomes)

    def test_recompiled_plan_resumes_from_ledger_and_store(self, tmp_path,
                                                           baseline):
        """A freshly compiled plan run against the same ledger + store
        serves the finished jobs from the store."""
        cache = ResultsCache(str(tmp_path / "store"))
        ledger_path = str(tmp_path / "ledger.json")
        plan = compile_monte_carlo(SEEDS, hours=HOURS)
        ledger = StudyLedger.for_study(plan.study, path=ledger_path)
        run_study(plan.study, cache=cache, ledger=ledger, max_jobs=2)

        plan2 = compile_monte_carlo(SEEDS, hours=HOURS)
        ledger2 = StudyLedger.for_study(plan2.study, path=ledger_path)
        result = plan2.collect(
            run_study(plan2.study, cache=cache, ledger=ledger2)
        )
        assert repr(result.outcomes) == repr(baseline.outcomes)
        assert cache.hits == 2
