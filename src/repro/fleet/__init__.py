"""Multi-node fleet simulation: inter-APU links + CU-axis sweeps.

The paper's Section V-F roll-up multiplies one node by 100,000. This
package grows that into a fleet simulation:

* :mod:`repro.fleet.link` — an analytic inter-APU **link tier**
  between the NoC and the external memory network: directional
  bandwidth asymmetry, protocol overhead, and per-link contention from
  concurrent kernels derate the effective external bandwidth/latency a
  :class:`~repro.core.node.NodeModel` sees, as one scalar closed
  form.
* :mod:`repro.fleet.spec` — heterogeneous fleets as ``(config,
  profile-mix, node-count)`` groups.
* :mod:`repro.fleet.sweep` — the fleet-scale CU sweep: one in-process
  :meth:`~repro.core.node.NodeModel.evaluate_arrays` pass over every
  ``(group, profile)`` series at once, each a row with its own
  link-derated external path, bit-identical to the serial
  :meth:`~repro.core.exascale.ExascaleSystem.estimate` loop it keeps
  as the oracle.
* :mod:`repro.fleet.bench` — the ``python -m repro fleet`` benchmark.
"""

from repro.fleet.link import (
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
