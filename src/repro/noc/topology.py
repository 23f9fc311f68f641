"""The EHP's chiplet/interposer topology graph.

Builds the physical organization of Fig. 2 as two plain dicts, a vertex
table and a symmetric link table:

* 8 GPU chiplets in 4 clusters of 2, each chiplet carrying a DRAM stack,
* 8 CPU chiplets in 2 central clusters of 4,
* one active interposer per cluster (6 total), connected to its chiplets
  by TSV links and to neighbouring interposers by wide in-package paths,
* 8 external-memory interfaces hanging off the GPU-cluster interposers.

Each :class:`Link` carries its per-hop latency and the physical kind of
link, so the routing layer can price any path. The layout is linear
(Fig. 2's left-to-right arrangement: G G | C C | G G clusters), giving
the CPU clusters their deliberately central, NUMA-minimizing position.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.util.units import NS

__all__ = ["NodeKind", "Link", "EHPTopology"]


class NodeKind(enum.Enum):
    """What a vertex in the topology graph represents."""

    GPU_CHIPLET = "gpu"
    CPU_CHIPLET = "cpu"
    DRAM_STACK = "dram"
    INTERPOSER = "interposer"
    EXT_INTERFACE = "ext"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Link:
    """One physical link: its kind and its per-hop latency, seconds."""

    kind: str
    latency: float


# Per-hop latencies (Section V-A: two extra vertical hops via TSVs plus
# interposer traversal for any out-of-chiplet message).
TSV_HOP_LATENCY = 5.0 * NS
INTERPOSER_HOP_LATENCY = 10.0 * NS
INTERPOSER_CROSS_LATENCY = 15.0 * NS
DRAM_STACK_LATENCY = 2.0 * NS


class EHPTopology:
    """The EHP package as an annotated undirected graph.

    Node names are strings: ``gpu0..gpu7``, ``cpu0..cpu7``,
    ``dram0..dram7``, ``intp0..intp5``, ``ext0..ext7``. Interposers
    0, 1, 4, 5 are GPU-cluster interposers (in the paper's left-to-right
    order); 2 and 3 are the central CPU-cluster interposers.

    ``vertices`` maps each name to its ``(kind, interposer)``; ``links``
    is the symmetric adjacency, name -> {neighbour: :class:`Link`}, with
    one entry per vertex (a link ``a``-``b`` appears under both).
    """

    N_GPU_CHIPLETS = 8
    N_CPU_CHIPLETS = 8
    N_INTERPOSERS = 6
    N_EXT_INTERFACES = 8

    def __init__(self) -> None:
        self.vertices: dict[str, tuple[NodeKind, int | None]] = {}
        self.links: dict[str, dict[str, Link]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _add(self, name: str, kind: NodeKind, interposer: int | None = None):
        self.vertices[name] = (kind, interposer)
        self.links[name] = {}

    def _link(self, a: str, b: str, kind: str, latency: float) -> None:
        self.links[a][b] = self.links[b][a] = Link(kind, latency)

    def _build(self) -> None:
        # Interposers in physical left-to-right order: GPU, GPU, CPU,
        # CPU, GPU, GPU.
        gpu_interposers = [0, 1, 4, 5]
        cpu_interposers = [2, 3]
        for i in range(self.N_INTERPOSERS):
            self._add(f"intp{i}", NodeKind.INTERPOSER)
        # Neighbouring interposers connect with wide point-to-point paths.
        for i in range(self.N_INTERPOSERS - 1):
            self._link(
                f"intp{i}", f"intp{i + 1}", "interposer-interposer",
                INTERPOSER_CROSS_LATENCY,
            )

        # Two GPU chiplets per GPU-cluster interposer; a DRAM stack on
        # each GPU chiplet; an external interface per GPU chiplet's
        # interposer position (8 total).
        gpu = 0
        for intp in gpu_interposers:
            for _ in range(2):
                g, d, e = f"gpu{gpu}", f"dram{gpu}", f"ext{gpu}"
                self._add(g, NodeKind.GPU_CHIPLET, intp)
                self._add(d, NodeKind.DRAM_STACK, intp)
                self._add(e, NodeKind.EXT_INTERFACE, intp)
                self._link(g, f"intp{intp}", "tsv", TSV_HOP_LATENCY)
                self._link(d, g, "3d-stack", DRAM_STACK_LATENCY)
                self._link(e, f"intp{intp}", "io", INTERPOSER_HOP_LATENCY)
                gpu += 1

        # Four CPU chiplets per central interposer.
        cpu = 0
        for intp in cpu_interposers:
            for _ in range(4):
                c = f"cpu{cpu}"
                self._add(c, NodeKind.CPU_CHIPLET, intp)
                self._link(c, f"intp{intp}", "tsv", TSV_HOP_LATENCY)
                cpu += 1

    # ------------------------------------------------------------------
    def nodes_of_kind(self, kind: NodeKind) -> list[str]:
        """All vertex names of one kind, in index order."""
        names = [n for n, (k, _) in self.vertices.items() if k is kind]
        return sorted(names, key=lambda n: int("".join(filter(str.isdigit, n))))

    @property
    def gpu_chiplets(self) -> list[str]:
        """The eight GPU chiplet vertices."""
        return self.nodes_of_kind(NodeKind.GPU_CHIPLET)

    @property
    def cpu_chiplets(self) -> list[str]:
        """The eight CPU chiplet vertices."""
        return self.nodes_of_kind(NodeKind.CPU_CHIPLET)

    @property
    def dram_stacks(self) -> list[str]:
        """The eight in-package DRAM stack vertices."""
        return self.nodes_of_kind(NodeKind.DRAM_STACK)

    def local_dram(self, gpu: str) -> str:
        """The DRAM stack sitting directly on *gpu*."""
        if not gpu.startswith("gpu"):
            raise ValueError(f"{gpu!r} is not a GPU chiplet")
        return "dram" + gpu[3:]

    def interposer_of(self, node: str) -> int | None:
        """Which interposer a chiplet sits on (None for interposers)."""
        return self.vertices[node][1]

    def same_chiplet(self, a: str, b: str) -> bool:
        """True when *b* is *a*'s own 3D-stacked DRAM (or vice versa) or
        the same vertex — i.e., no interposer traversal is needed."""
        if a == b:
            return True
        link = self.links.get(a, {}).get(b)
        return link is not None and link.kind == "3d-stack"

    def validate(self) -> None:
        """Sanity-check structural invariants; raises on violation."""
        expected = {
            NodeKind.GPU_CHIPLET: self.N_GPU_CHIPLETS,
            NodeKind.CPU_CHIPLET: self.N_CPU_CHIPLETS,
            NodeKind.DRAM_STACK: self.N_GPU_CHIPLETS,
            NodeKind.INTERPOSER: self.N_INTERPOSERS,
            NodeKind.EXT_INTERFACE: self.N_EXT_INTERFACES,
        }
        for kind, count in expected.items():
            actual = len(self.nodes_of_kind(kind))
            if actual != count:
                raise AssertionError(f"{kind}: expected {count}, got {actual}")
        # Breadth-first search from any one vertex must reach them all.
        start = next(iter(self.links))
        seen = {start}
        queue = deque([start])
        while queue:
            for b in self.links[queue.popleft()]:
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        if len(seen) != len(self.vertices):
            raise AssertionError("topology must be connected")
