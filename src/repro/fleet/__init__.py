"""Multi-node fleet simulation: inter-APU links + sharded sweeps.

The paper's Section V-F roll-up multiplies one node by 100,000. This
package grows that into a fleet simulation:

* :mod:`repro.fleet.link` — an analytic inter-APU **link tier**
  between the NoC and the external memory network: directional
  bandwidth asymmetry, protocol overhead, and per-link contention from
  concurrent kernels derate the effective external bandwidth/latency a
  :class:`~repro.core.node.NodeModel` sees, with the repo's usual
  scalar-oracle + broadcast-tensor engine pair.
* :mod:`repro.fleet.spec` — heterogeneous fleets as ``(config,
  profile-mix, node-count)`` groups.
* :mod:`repro.fleet.sweep` — the fleet-scale CU sweep: one
  :class:`~repro.perf.pool.ShardedPool` task per ``(group, profile)``
  series, each running the serial
  :meth:`~repro.core.exascale.ExascaleSystem.estimate` loop, so the
  pooled sweep is bit-identical to it.
* :mod:`repro.fleet.bench` — the ``python -m repro fleet`` benchmark.
"""

from repro.fleet.link import (
    LINK_ENGINES,
    LinkDerate,
    LinkTierParams,
    derate,
    derate_machine,
    derate_model,
)
from repro.fleet.spec import FleetGroup, FleetSpec, synthetic_fleet
from repro.fleet.sweep import (
    FleetSweepResult,
    fleet_manifest,
    fleet_sweep,
    fleet_sweep_serial,
)

__all__ = [
    "LINK_ENGINES",
    "FleetGroup",
    "FleetSpec",
    "FleetSweepResult",
    "LinkDerate",
    "LinkTierParams",
    "derate",
    "derate_machine",
    "derate_model",
    "fleet_manifest",
    "fleet_sweep",
    "fleet_sweep_serial",
    "synthetic_fleet",
]
