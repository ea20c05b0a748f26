"""Integration tests for the metrics layer.

The load-bearing property: a :class:`MetricsRegistry` is a *passive
observer*. Attaching one must leave the simulation byte-identical —
same trace, same event count, same probe series — because instruments
only ever record values the simulation already computed, and never touch
RNG or scheduling state.
"""

import pytest

from repro.analysis.report import render_metrics
from repro.experiments.montecarlo import compile_monte_carlo
from repro.experiments.sweeps import compile_sweep
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.metrics import (
    MetricsRegistry,
    load_metrics_json,
    metrics_document,
    write_metrics_json,
)
from repro.parallel import ResultsCache
from repro.sim.timebase import SECONDS
from repro.studies import run_study


def _run(seed, metrics=None):
    testbed = Testbed(TestbedConfig(seed=seed), metrics=metrics)
    testbed.run_until(10 * SECONDS)
    if metrics is not None:
        testbed.publish_metrics()
    trace = "\n".join(str(record) for record in testbed.trace.query())
    series = [(r.time, r.precision) for r in testbed.series.records]
    return trace, series, testbed.sim.dispatched_events


class TestPassiveObserver:
    @pytest.mark.parametrize("seed", [1, 21, 42])
    def test_traces_byte_identical_with_metrics_attached(self, seed):
        baseline = _run(seed)
        instrumented = _run(seed, metrics=MetricsRegistry())
        assert instrumented == baseline

    def test_instruments_actually_recorded(self):
        registry = MetricsRegistry()
        _run(1, metrics=registry)
        assert registry.counters["aggregator.gate_fires"].value > 0
        assert registry.histograms["aggregator.offset_error_ns"].n > 0
        assert registry.gauges["kernel.queue_depth_hwm"].value > 0
        assert registry.gauges["kernel.events_dispatched"].value > 0


class TestMonteCarloMetrics:
    def test_manifest_and_export_render(self, tmp_path):
        registry = MetricsRegistry()
        plan = compile_monte_carlo(seeds=[5], hours=0.02)
        study = plan.collect(run_study(plan.study, metrics=registry),
                             metrics=registry)
        manifest = study.manifest
        assert manifest is not None
        assert manifest.experiment == "monte_carlo"
        assert manifest.seeds == [5]
        assert manifest.events_dispatched > 0
        assert manifest.events_per_sec > 0
        assert registry.histograms["montecarlo.arm_seconds"].n == 1

        path = str(tmp_path / "mc.json")
        write_metrics_json(path, registry, manifest)
        doc = load_metrics_json(path)
        assert doc["manifest"]["config_fingerprint"]
        assert doc["metrics"]["aggregator.offset_error_ns"]["n"] > 0

        text = render_metrics(doc)
        assert "run: monte_carlo" in text
        assert "aggregator.offset_error_ns" in text

    def test_metrics_do_not_change_outcomes(self):
        plan = compile_monte_carlo(seeds=[5], hours=0.02)
        plain = plan.collect(run_study(plan.study))
        observed = plan.collect(
            run_study(plan.study, metrics=MetricsRegistry())
        )
        assert observed.outcomes == plain.outcomes


class TestCacheMetricsInteraction:
    def _sweep(self, cache, metrics):
        plan = compile_sweep(
            "n_devices", [4],
            lambda n: TestbedConfig(seed=3, n_devices=n),
            duration=10 * SECONDS, warmup_records=0,
        )
        return plan.collect(
            run_study(plan.study, cache=cache, metrics=metrics)
        )

    def test_self_disabled_cache_still_exports_miss_counts(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ResultsCache(str(blocker))  # root collides with a file
        registry = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            rows = self._sweep(cache, registry)  # put() fails -> self-disable
        assert len(rows) == 1
        assert cache.disabled
        rows2 = self._sweep(cache, registry)  # disabled get() is a miss
        assert len(rows2) == 1
        assert cache.hits == 0
        assert cache.misses == 2
        doc = metrics_document(registry)
        assert doc["metrics"]["cache.disabled"]["value"] == 1
        assert doc["metrics"]["cache.misses"]["value"] == 2
        assert doc["metrics"]["experiment.runs"]["value"] == 2

    def test_corrupt_entry_recomputes_and_counts_miss(self, tmp_path):
        cache = ResultsCache(str(tmp_path))
        registry = MetricsRegistry()
        first = self._sweep(cache, registry)
        # mangle the single written entry in place (the root also holds
        # the scheduler's last_run_stats.json; entries live in fanouts)
        [entry] = [p for p in tmp_path.rglob("*.json")
                   if p.parent != tmp_path]
        entry.write_text("{not json")
        again = self._sweep(cache, registry)
        # short runs record no probes, so the precision fields are NaN;
        # compare the fields equality is defined for
        assert (again[0].bound_ns, again[0].converged) == (
            first[0].bound_ns, first[0].converged)
        assert cache.hits == 0
        assert cache.misses == 2
        assert not entry.exists() or entry.read_text() != "{not json"
        doc = metrics_document(registry)
        assert doc["metrics"]["cache.hit_rate"]["value"] == 0.0

    def test_warm_cache_hit_rate_exported(self, tmp_path):
        cache = ResultsCache(str(tmp_path))
        self._sweep(cache, MetricsRegistry())
        registry = MetricsRegistry()
        self._sweep(cache, registry)
        doc = metrics_document(registry)
        assert doc["metrics"]["cache.hits"]["value"] == 1
        assert doc["metrics"]["cache.hit_rate"]["value"] == 0.5
