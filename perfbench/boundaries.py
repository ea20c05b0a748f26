"""Layer-boundary wrappers for the traced run, and the run-until probe.

Tracing is installed on *classes*, before any testbed or study plan is
built. Much of the hot path is bound at construction time — ``Link``
binds its endpoints' ``Port.deliver``, ``Nic``/``TsnSwitch`` bind
``HardwareClock.time``, the aggregator binds its ``AGGREGATORS`` entry, the
switch binds the bridge's ``_on_gptp`` — so a wrapper installed after
construction would silently record nothing. :func:`check_expected` turns
that mistake into a failed run.

Two kinds of boundary are wrapped:

* the methods in :data:`BOUNDARIES` and the aggregate functions in
  ``repro.core.fta.AGGREGATORS``: the calls one layer makes directly into
  another, including the callbacks one layer registers with another (the
  bridge's switch handler, rx handlers);
* every callback handed to the kernel (``post``, ``post_at``,
  ``schedule_at``, ``schedule_periodic``) or to a ``PeriodicTask`` (such as
  ``DependentClockMonitor._tick``) that is not already a wrapped boundary.
  Its span is named after the callback and attributed to the package that
  defines it; builtins such as ``dict.pop`` go to the layer that scheduled
  them.

Calls between layers that are on neither list are charged to the caller.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder

#: (module, class, method) of the calls one layer makes directly into
#: another, and of the methods a counter needs. Callbacks that reach a layer
#: through the kernel or a ``PeriodicTask`` are traced without a listing.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run_until"),
    ("repro.network.link", "Link", "carry"),
    ("repro.network.port", "Port", "transmit"),
    ("repro.network.switch", "TsnSwitch", "on_receive"),
    ("repro.network.nic", "Nic", "on_receive"),
    ("repro.network.nic", "Nic", "send"),
    ("repro.gptp.bridge", "TimeAwareBridge", "_on_gptp"),
    ("repro.gptp.instance", "GptpStack", "_on_rx"),
    ("repro.gptp.instance", "Ptp4lInstance", "on_sync"),
    ("repro.gptp.servo", "PiServo", "sample"),
    ("repro.clocks.hardware_clock", "HardwareClock", "time"),
    ("repro.clocks.hardware_clock", "HardwareClock", "step"),
    ("repro.clocks.hardware_clock", "HardwareClock", "adjust_frequency"),
    ("repro.core.aggregator", "MultiDomainAggregator", "handle_offset"),
    ("repro.hypervisor.clock_sync_vm", "ClockSyncVm", "takeover_interrupt"),
    ("repro.hypervisor.vm", "Vm", "fail_silent"),
    ("repro.measurement.probe", "ProbeResponder", "_on_rx"),
    ("repro.studies.ledger", "StudyLedger", "save"),
    ("repro.parallel.cache", "ResultsCache", "get"),
    ("repro.parallel.cache", "ResultsCache", "put"),
)

#: Per-layer call counts: metric name -> span names whose calls it counts.
COUNTERS: Dict[str, Tuple[str, ...]] = {
    "network.frames": ("network:Link.carry",),
    "gptp.relays": ("gptp:TimeAwareBridge._on_gptp",),
    "gptp.syncs": ("gptp:Ptp4lInstance.on_sync",),
    "gptp.servo_samples": ("gptp:PiServo.sample",),
    "clocks.reads": ("clocks:HardwareClock.time",),
    "core.offsets": ("core:MultiDomainAggregator.handle_offset",),
    "core.gates_fired": ("core:AGGREGATORS[fta]", "core:AGGREGATORS[ftm]",
                         "core:AGGREGATORS[mean]",
                         "core:AGGREGATORS[median]"),
    "hypervisor.takeovers": ("hypervisor:ClockSyncVm.takeover_interrupt",),
    "measurement.probes": ("measurement:PrecisionProbeService._send_probe",),
    "studies.ledger_saves": ("studies:StudyLedger.save",),
    "parallel.cache_gets": ("parallel:ResultsCache.get",),
    "parallel.cache_puts": ("parallel:ResultsCache.put",),
}

_SCHEDULERS = ("post", "post_at", "schedule_at", "schedule_periodic")


def span_name(module: str, qualname: str) -> str:
    """``("repro.gptp.servo", "PiServo.sample")`` -> ``"gptp:PiServo.sample"``."""
    return f"{module.split('.')[1]}:{qualname}"


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap every boundary; call once, before anything is built."""
    for module_name, class_name, attr in BOUNDARIES:
        cls = getattr(importlib.import_module(module_name), class_name)
        fn = cls.__dict__.get(attr)
        if not callable(fn):
            raise RuntimeError(
                f"boundary {class_name}.{attr} is not a plain method of "
                f"{module_name}"
            )
        name = span_name(module_name, f"{class_name}.{attr}")
        setattr(cls, attr, recorder.wrap(fn, name))

    fta = importlib.import_module("repro.core.fta")
    for key, fn in list(fta.AGGREGATORS.items()):
        fta.AGGREGATORS[key] = recorder.wrap(fn, f"core:AGGREGATORS[{key}]")

    traced = _CallbackTracer(recorder)
    kernel = importlib.import_module("repro.sim.kernel")
    for attr in _SCHEDULERS:
        setattr(kernel.Simulator, attr,
                _tracing_scheduler(getattr(kernel.Simulator, attr), traced))

    process = importlib.import_module("repro.sim.process")
    task_init = process.PeriodicTask.__init__

    def init(self, *args, **kwargs):
        task_init(self, *args, **kwargs)
        self.action = traced.callable(self.action)

    process.PeriodicTask.__init__ = init


class _CallbackTracer:
    """Names and wraps callbacks that are not explicit boundaries."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.call = recorder.call
        self._ids: Dict[object, int] = {}

    def span_id(self, callback) -> int:
        """Interned span id for ``callback``, or -1 if it is already traced."""
        func = getattr(callback, "__func__", callback)
        if getattr(func, "perfbench_span", None) is not None:
            return -1
        code = getattr(func, "__code__", None)
        if code is not None:
            # Keyed by code object: closures created per event share it.
            nid = self._ids.get(code)
            if nid is None:
                name = span_name(func.__module__, func.__qualname__)
                nid = self._ids[code] = self.recorder.intern(name)
            return nid
        # A builtin such as dict.pop: attributed to the scheduling layer.
        key = (getattr(callback, "__qualname__", repr(callback)),
               self.recorder.current_layer())
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = self.recorder.intern(f"{key[1]}:{key[0]}")
        return nid

    def callable(self, callback):
        nid = self.span_id(callback)
        if nid < 0:
            return callback
        call = self.call

        def traced(*args):
            return call(nid, callback, *args)

        traced.perfbench_span = self.recorder.names[nid]
        return traced


def _tracing_scheduler(schedule: Callable, traced: _CallbackTracer) -> Callable:
    call = traced.call
    span_id = traced.span_id

    def scheduler(self, when, callback, *args, **kwargs):
        nid = span_id(callback)
        if nid < 0:
            return schedule(self, when, callback, *args, **kwargs)
        return schedule(self, when, call, nid, callback, *args, **kwargs)

    scheduler.__wrapped__ = schedule
    return scheduler


def counts(per_name: Dict[str, Tuple[int, int, int]]) -> Dict[str, int]:
    """Evaluate :data:`COUNTERS` against a span summary."""
    return {
        metric: sum(per_name.get(n, (0, 0, 0))[0] for n in names)
        for metric, names in COUNTERS.items()
    }


def check_expected(per_name: Dict[str, Tuple[int, int, int]],
                   expected: Tuple[str, ...]) -> List[str]:
    """Expected boundaries (span names) that recorded zero calls."""
    return [name for name in expected if per_name.get(name, (0,))[0] == 0]


class RunUntilProbe:
    """Records the events and time of every ``Simulator.run_until``.

    Installed in timed and traced runs alike: it adds one call per
    ``run_until`` (a handful per operation), never per event, and gives
    the exact dispatched-event count and the time spent simulating, read
    from ``clock``. With ``chunk_ns`` set, each ``run_until`` is split
    into calls at most ``chunk_ns`` of simulated time apart, with a clock
    mark between them; consecutive calls dispatch exactly the events one
    call would, in the same order.
    """

    def __init__(self, clock, chunk_ns: Optional[int] = None) -> None:
        self.clock = clock
        self.chunk_ns = chunk_ns
        self.events = 0
        self.sim_time = 0.0

    def install(self) -> None:
        kernel = importlib.import_module("repro.sim.kernel")
        run_until = kernel.Simulator.run_until
        mark = self.clock.mark
        chunk_ns = self.chunk_ns

        def probed(sim, horizon):
            start = mark()
            dispatched = 0
            try:
                if chunk_ns is None:
                    dispatched = run_until(sim, horizon)
                else:
                    while True:
                        target = min(horizon, sim.now + chunk_ns)
                        dispatched += run_until(sim, target)
                        if target >= horizon or sim.now < target:
                            break  # done, or the simulation was stopped
                        mark()
            finally:
                self.sim_time += mark() - start
                self.events += dispatched
            return dispatched

        probed.__wrapped__ = run_until
        kernel.Simulator.run_until = probed

    def take(self) -> Tuple[int, float]:
        """Events and simulating time since the last call; resets both."""
        out = (self.events, self.sim_time)
        self.events, self.sim_time = 0, 0.0
        return out
