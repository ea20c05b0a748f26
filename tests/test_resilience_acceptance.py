"""Crashmonkey acceptance: studies survive randomized fault campaigns.

The ISSUE 10 acceptance scenario: run a full study under a seeded random
infra-fault campaign (seeds 1/21/42) — torn cache writes, bit rot on
read, torn ledger flushes, flaky and crashing jobs — resuming after each
injected kill, and prove that *whenever the study reports success* the
collected results are byte-identical to an uninterrupted clean run. No
fault may ever make a study report success with missing or corrupt jobs.
"""

import pytest

from tests import _study_helpers as helpers
from repro.experiments.montecarlo import compile_monte_carlo
from repro.parallel import ResultsCache, config_fingerprint
from repro.resilience import (
    FaultInjector,
    InjectedCrash,
    RetryPolicy,
    load_fault_plan,
    random_fault_campaign,
)
from repro.resilience.salvage import rebuild_ledger
from repro.studies import (
    Job,
    LedgerCorruptError,
    Study,
    StudyLedger,
    run_study,
)

VALUES = list(range(8))
MAX_ROUNDS = 40


def _toy_study():
    jobs = tuple(
        Job(
            key=config_fingerprint("crashmonkey", v),
            fn=helpers.double,
            args=(v,),
            label=f"v={v}",
            kind="unit",
            seed=v,
        )
        for v in VALUES
    )
    return Study(name="crashmonkey", jobs=jobs)


def _open_ledger(study, ledger_path):
    """Adopt the on-disk ledger, salvaging it first if a fault tore it."""
    salvaged = False
    try:
        ledger = StudyLedger.for_study(study, path=ledger_path)
    except LedgerCorruptError:
        rebuild_ledger(ledger_path, study)
        ledger = StudyLedger.for_study(study, path=ledger_path)
        salvaged = True
    return ledger, salvaged


class TestRandomFaultCampaigns:
    @pytest.mark.parametrize("campaign_seed", [1, 21, 42])
    def test_campaign_never_corrupts_a_successful_study(self, tmp_path,
                                                        campaign_seed):
        study = _toy_study()
        baseline = repr(run_study(study).collected())

        plan = random_fault_campaign(campaign_seed)
        cache = ResultsCache(str(tmp_path / "store"))
        ledger_path = str(tmp_path / "ledger.json")
        policy = RetryPolicy(max_attempts=3, seed=campaign_seed)

        completed = crashes = failures = salvages = 0
        for round_no in range(MAX_ROUNDS):
            # A fresh salt per round gives fresh (but deterministic)
            # probability draws, so the campaign cannot wedge on one
            # unlucky stream.
            faults = FaultInjector(plan, salt=round_no)
            ledger, salvaged = _open_ledger(study, ledger_path)
            salvages += salvaged
            try:
                run = run_study(study, cache=cache, ledger=ledger,
                                faults=faults, on_error="continue",
                                retry_policy=policy)
            except (InjectedCrash, OSError):
                crashes += 1  # simulated kill — resume next round
                continue
            if run.complete:
                completed += 1
                # THE invariant: a run that reports success collected
                # exactly what the clean run collects.
                assert repr(run.collected()) == baseline
                break
            failures += 1  # flaky jobs exhausted retries; resume heals
        else:
            pytest.fail(
                f"campaign {campaign_seed} never completed in "
                f"{MAX_ROUNDS} rounds ({crashes} crashes, "
                f"{failures} failed rounds, {salvages} salvages)"
            )
        assert completed == 1

        # A final faultless resume must also succeed and collect the
        # identical bytes. (It may recompute jobs whose store entries
        # were torn by the winning round's own cache.put faults — the
        # checksum quarantines those — but it may never serve them.)
        ledger, _ = _open_ledger(study, ledger_path)
        clean = run_study(study, cache=cache, ledger=ledger)
        assert clean.complete
        assert repr(clean.collected()) == baseline
        assert StudyLedger.load(ledger_path).complete

    def test_campaigns_are_reproducible(self, tmp_path):
        """The same campaign seed replays the same fault sequence: two
        independent campaign runs fire identical faults round by round."""

        def trace(workdir):
            study = _toy_study()
            plan = random_fault_campaign(21)
            cache = ResultsCache(str(workdir / "store"))
            ledger_path = str(workdir / "ledger.json")
            fires = []
            for round_no in range(MAX_ROUNDS):
                faults = FaultInjector(plan, salt=round_no)
                ledger, _ = _open_ledger(study, ledger_path)
                try:
                    run = run_study(study, cache=cache, ledger=ledger,
                                    faults=faults, on_error="continue",
                                    retry_policy=RetryPolicy(max_attempts=2))
                except (InjectedCrash, OSError):
                    run = None
                fires.append(faults.summary()["fires"])
                if run is not None and run.complete:
                    break
            return fires

        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        assert trace(first) == trace(second)


class TestFixedPlanAcceptance:
    """The CI smoke plan, driven through the library API: a torn first
    cache write plus a mid-study crash, healed by one clean resume."""

    SEEDS = [1, 21, 42]
    HOURS = 0.02

    def test_smoke_plan_kill_and_heal(self, tmp_path):
        clean = compile_monte_carlo(self.SEEDS, hours=self.HOURS)
        baseline = clean.collect(run_study(clean.study))
        plan = load_fault_plan("examples/faultplans/smoke_torn_cache.json")

        cache = ResultsCache(str(tmp_path / "store"))
        ledger_path = str(tmp_path / "ledger.json")
        compiled = compile_monte_carlo(self.SEEDS, hours=self.HOURS)
        ledger = StudyLedger.for_study(compiled.study, path=ledger_path)

        with pytest.raises(InjectedCrash):
            run_study(compiled.study, cache=cache, ledger=ledger,
                      faults=FaultInjector(plan))

        # Job 1 finished but its cache entry was torn mid-write; job 2's
        # crash killed the study. The resume must quarantine the torn
        # entry (checksum catches it), recompute, and still match the
        # clean baseline byte for byte.
        compiled2 = compile_monte_carlo(self.SEEDS, hours=self.HOURS)
        ledger2 = StudyLedger.for_study(compiled2.study, path=ledger_path)
        resumed = run_study(compiled2.study, cache=cache, ledger=ledger2)
        assert resumed.complete
        assert cache.quarantined == 1

        result = compiled2.collect(resumed)
        assert repr(result.outcomes) == repr(baseline.outcomes)
