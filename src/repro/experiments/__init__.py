"""Experiment harness: the Fig. 2 testbed, the paper's two experiments,
and the baselines.

* :mod:`repro.experiments.testbed` — builds the full virtualized distributed
  real-time system: 4 ECDs × 2 clock synchronization VMs, 4 gPTP domains
  with spatially separated GMs, switch mesh, per-domain external port
  configuration, measurement VLAN, probe service.
* :mod:`repro.experiments.cyber` — the 1 h cyber-resilience experiment
  (§III-B, Fig. 3a/3b): root exploits against two virtual GMs under
  identical vs diversified kernels.
* :mod:`repro.experiments.fault_injection` — the 24 h fault injection
  experiment (§III-C, Fig. 4a/4b, Fig. 5).
* :mod:`repro.experiments.baselines` — single-domain gPTP (no FTA) and the
  Kyriakakis-style client-only aggregation with free-running GMs.
"""

from repro.experiments.baselines import (
    BaselineResult,
    run_client_only_baseline,
    run_full_architecture,
    run_single_domain_baseline,
)
from repro.experiments.holdover import (
    HoldoverConfig,
    HoldoverResult,
    run_holdover_experiment,
)
from repro.experiments.link_failure import (
    LinkFailureConfig,
    LinkFailureResult,
    run_link_failure_experiment,
)
from repro.experiments.chaos import (
    ChaosExperimentConfig,
    ChaosResult,
    run_chaos_experiment,
)
from repro.experiments.montecarlo import (
    MonteCarloResult,
    SeedOutcome,
    compile_monte_carlo,
)
from repro.experiments.sweeps import (
    SweepRow,
    compile_sweep,
    render_rows,
    sweep_aggregation,
    sweep_domain_count,
    sweep_loss_rate,
    sweep_sync_interval,
    sweep_validity_threshold,
)
from repro.experiments.cyber import (
    CyberExperimentConfig,
    CyberResult,
    run_cyber_experiment,
)
from repro.experiments.fault_injection import (
    FaultInjectionExperimentConfig,
    FaultInjectionResult,
    run_fault_injection_experiment,
)
from repro.experiments.testbed import Testbed, TestbedConfig

__all__ = [
    "Testbed",
    "TestbedConfig",
    "CyberExperimentConfig",
    "CyberResult",
    "run_cyber_experiment",
    "FaultInjectionExperimentConfig",
    "FaultInjectionResult",
    "run_fault_injection_experiment",
    "BaselineResult",
    "run_single_domain_baseline",
    "run_client_only_baseline",
    "run_full_architecture",
    "HoldoverConfig",
    "HoldoverResult",
    "run_holdover_experiment",
    "LinkFailureConfig",
    "LinkFailureResult",
    "run_link_failure_experiment",
    "MonteCarloResult",
    "SeedOutcome",
    "compile_monte_carlo",
    "ChaosExperimentConfig",
    "ChaosResult",
    "run_chaos_experiment",
    "SweepRow",
    "render_rows",
    "compile_sweep",
    "sweep_domain_count",
    "sweep_sync_interval",
    "sweep_aggregation",
    "sweep_loss_rate",
    "sweep_validity_threshold",
]
