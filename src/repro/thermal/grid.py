"""Steady and transient thermal grid solver.

Discretizes the package into ``nx x ny`` cells per layer and solves the
conduction equation ``G T = P + G_b T_amb`` where ``G`` assembles
lateral (within-layer) and vertical (between-layer and boundary)
conductances. This is the same compact-model formulation HotSpot uses
(the paper's thermal methodology). The transient mode takes implicit
backward-Euler steps ``(C/dt + G) T' = (C/dt) T + P + G_b T_amb`` over
the same conductances, where ``C`` is the diagonal per-cell heat
capacity.

Both operators are solved exactly in a modal basis. The precondition is
that the grid is uniform within each layer: a
:class:`~repro.thermal.stack.ThermalLayer` has one thickness,
conductivity and heat capacity, and the
:class:`~repro.thermal.stack.LayerStack` boundary resistances are
scalars, so every grid this class can build satisfies it. Then
``G + diag(s)`` (``s = 0`` steady, ``s = C/dt`` per step) is a sum of
Kronecker products of the 1-D Neumann path-graph Laplacians along x and
y with an L x L tridiagonal coupling between the L layers. The
orthonormal DCT-II matrices ``Q_nx`` and ``Q_ny`` diagonalize those
Laplacians exactly (eigenvalues ``2 - 2 cos(pi k / n)``), which leaves
``ny * nx`` independent L x L symmetric tridiagonal systems, one per
lateral mode. A solve is three steps:

1. transform each layer, ``Q_ny X Q_nx^T`` (two small dense gemms);
2. one vectorized LDL^T sweep over the layers, with per-mode pivots
   computed once per shift (the steady operator, or one per step dt);
3. the inverse transform.

The modal path solves for the rise over ambient: ``G 1 = G_b``, so a
field uniformly at ``T_amb`` is the zero-power solution and the
``G_b T_amb`` term drops out of the right-hand side.

Under constant power the steps have a closed form in the same basis,
because ``C/dt`` is a per-layer scalar and commutes with the lateral
transform. Per mode, one step maps the rise ``x`` to ``B x + (I - B)
x*``, where ``x*`` is the steady solve of the power map (its fixed
point) and ``B = (C/dt + G)^-1 C/dt`` is an L x L propagator, so after
s steps

    ``x_s = x* + B^s (x_0 - x*)``.

:meth:`ThermalGrid.advance` takes n such steps at once: ``x*`` comes
from the steady pivots, the rows of ``B^1 .. B^n`` a window reads are
built from that dt's pivots once per (dt, n, watched layer) and
cached, and only the watched layer is transformed back, all n steps in
one stacked gemm. The state stays modal between calls
(:meth:`ThermalGrid.to_modes` and :meth:`ThermalGrid.steady_modes` build
it), so a caller that only watches peaks never transforms a whole
field. :meth:`ThermalGrid.step_transient` is its n = 1 case, with
every layer transformed back.

:meth:`ThermalGrid.solve_batch` and
:meth:`ThermalGrid.step_transient_many` push a whole batch through the
same per-slice gemms and elementwise sweep and propagation, so every
batch member is bit-identical to the single-map call.

The assembled sparse matrix stays the specification. ``_assemble``
(vectorized) and ``_assemble_reference`` (the original triple loop)
build it, and :meth:`ThermalGrid.step_transient_reference` solves it
from scratch with :func:`scipy.sparse.linalg.spsolve` every call; the
modal path is gated against that oracle at 1e-9 C. The modal path is
numpy only: scipy is imported inside those three oracle methods, so a
run that never calls them never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import _finite_positive, _is_int
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.thermal.stack import LayerStack
from repro.util.blasthreads import single_blas_thread

__all__ = [
    "TemperatureField",
    "TemperatureFieldBatch",
    "ThermalGrid",
]

# The longest run of steps one closed-form block covers. Longer windows
# advance block by block, so no cached window operator holds more than
# this many steps' rows.
_WINDOW_CAP = 16


def _dct_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix and its path-Laplacian eigenvalues.

    Row k of the matrix is the k-th eigenvector of the n-point Neumann
    path-graph Laplacian ``tridiag(-1, [1, 2, ..., 2, 1], -1)``, with
    eigenvalue ``2 - 2 cos(pi k / n)``, evaluated as the equal
    ``4 sin^2(pi k / 2n)`` to avoid cancellation near k = 0. The cosine
    argument is reduced modulo its period in integers first, so every
    entry is accurate to a few ulps even at large n.
    """
    k = np.arange(n)
    phase = np.outer(k, 2 * k + 1) % (4 * n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * phase / (2 * n))
    basis[0] = np.sqrt(1.0 / n)
    eigenvalues = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    return basis, eigenvalues


@dataclass(frozen=True)
class _Modes:
    """The grid operator in the DCT basis, shift-free.

    Mode (ky, kx) couples the L layers through a symmetric tridiagonal
    matrix: ``coupling[l]`` is the vertical conductance between layers l
    and l + 1 (the off-diagonal is its negative), and the diagonal on
    layer l is ``coupling[l - 1] + coupling[l] + excess[l, ky, kx]``,
    where the non-negative ``excess`` holds the mode's lateral
    eigenvalue and the layer's boundary conductances. ``heat[l]`` is the
    layer's per-cell heat capacity.
    """

    qx: np.ndarray
    qx_t: np.ndarray
    qy: np.ndarray
    excess: np.ndarray
    coupling: np.ndarray
    heat: np.ndarray


@dataclass(frozen=True)
class _Pivots:
    """Per-mode LDL^T factors of one shifted operator.

    ``gain[l] = coupling[l] / d_l`` (zero on the top layer) and
    ``inv_pivot[l] = 1 / d_l``, both shaped (L, ny, nx); ``c_over_dt``
    is the per-layer shift (zeros for the steady operator).
    """

    gain: np.ndarray
    inv_pivot: np.ndarray
    c_over_dt: np.ndarray


@dataclass(frozen=True)
class TemperatureField:
    """Solved temperatures, Celsius, shaped (n_layers, ny, nx)."""

    celsius: np.ndarray
    layer_names: tuple[str, ...]

    def layer(self, name: str) -> np.ndarray:
        """The 2-D temperature map of one named layer."""
        return self.celsius[self.layer_names.index(name)]

    def peak(self, name: str | None = None) -> float:
        """Hottest cell overall or within one layer."""
        if name is None:
            return float(self.celsius.max())
        return float(self.layer(name).max())

    def mean(self, name: str) -> float:
        """Mean temperature of one layer."""
        return float(self.layer(name).mean())


@dataclass(frozen=True)
class TemperatureFieldBatch:
    """A batch of solved fields, Celsius, shaped (k, n_layers, ny, nx).

    Struct-of-arrays twin of a list of :class:`TemperatureField`: one
    contiguous tensor instead of k per-map copies, so batched consumers
    (the transient stepper, `solve_many` callers that only want peaks)
    never materialize per-map objects.
    """

    celsius: np.ndarray
    layer_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.celsius.shape[0]

    def field(self, k: int) -> TemperatureField:
        """The *k*-th map as a standalone :class:`TemperatureField`."""
        return TemperatureField(
            celsius=self.celsius[k], layer_names=self.layer_names
        )

    def fields(self) -> list[TemperatureField]:
        """All maps as a list of :class:`TemperatureField` views."""
        return [self.field(k) for k in range(len(self))]

    def peaks(self, name: str | None = None) -> np.ndarray:
        """Per-map hottest cell, overall or within one named layer."""
        if name is None:
            return self.celsius.max(axis=(1, 2, 3))
        li = self.layer_names.index(name)
        return self.celsius[:, li].max(axis=(1, 2))


class ThermalGrid:
    """Gridded package with linear steady and transient solves.

    Parameters
    ----------
    width_mm, depth_mm:
        Package extent.
    nx, ny:
        Grid resolution (cells along width and depth).
    stack:
        Layer stack and boundary resistances.
    """

    def __init__(
        self,
        width_mm: float,
        depth_mm: float,
        nx: int = 66,
        ny: int = 22,
        stack: LayerStack | None = None,
    ):
        for size in (nx, ny):
            if not isinstance(size, (int, np.integer)) or isinstance(
                size, bool
            ):
                raise ValueError(
                    f"grid resolution must be an integer, got {size!r}"
                )
        if nx < 2 or ny < 2:
            raise ValueError("grid must be at least 2x2")
        if not (_finite_positive(width_mm) and _finite_positive(depth_mm)):
            raise ValueError("package dimensions must be finite and positive")
        self.width_m = width_mm * 1e-3
        self.depth_m = depth_mm * 1e-3
        self.nx = int(nx)
        self.ny = int(ny)
        self.stack = stack or LayerStack()
        self.dx = self.width_m / nx
        self.dy = self.depth_m / ny
        self.cell_area = self.dx * self.dy
        # Assembled sparse matrix, built only for the oracle.
        self._system: tuple | None = None
        self._modes: _Modes | None = None
        # None (steady) or dt -> per-mode pivots of G + C/dt.
        self._pivots: dict[float | None, _Pivots] = {}
        # (dt, n, watch) -> the window operator of advance().
        self._windows: dict[tuple[float, int, int | None], np.ndarray] = {}

    # Geometry/stack attributes the cached operators depend on.
    # Assigning any of them after an operator exists silently
    # invalidates the caches, so a stale operator can never serve a
    # mutated grid (the derived dx/dy/cell_area are recomputed when
    # the extents or resolution move).
    _PARAM_ATTRS = frozenset(
        {"width_m", "depth_m", "nx", "ny", "stack"}
    )

    def __setattr__(self, name: str, value) -> None:
        mutated = name in self._PARAM_ATTRS and (
            getattr(self, "_system", None) is not None
            or getattr(self, "_modes", None) is not None
        )
        super().__setattr__(name, value)
        if mutated:
            if name in ("width_m", "depth_m", "nx", "ny"):
                super().__setattr__("dx", self.width_m / self.nx)
                super().__setattr__("dy", self.depth_m / self.ny)
                super().__setattr__("cell_area", self.dx * self.dy)
            self.invalidate()

    @property
    def n_cells(self) -> int:
        """Unknowns in the linear system."""
        return self.stack.n_layers * self.ny * self.nx

    @property
    def factorization_cached(self) -> bool:
        """Whether the steady operator's per-mode pivots are built."""
        return None in self._pivots

    def invalidate(self) -> None:
        """Drop the assembled matrix and every modal operator (rebuilt
        on demand), steady and transient alike, with the window
        operators."""
        super().__setattr__("_system", None)
        super().__setattr__("_modes", None)
        super().__setattr__("_pivots", {})
        super().__setattr__("_windows", {})

    def _index(self, layer: int, j: int, i: int) -> int:
        return (layer * self.ny + j) * self.nx + i

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _conductances(self):
        """Per-layer lateral/vertical conductances and boundary terms."""
        layers = self.stack.layers
        lat_x, lat_y, vert = [], [], []
        for li, layer in enumerate(layers):
            cross_x = layer.thickness_m * self.dy
            cross_y = layer.thickness_m * self.dx
            lat_x.append(1.0 / layer.lateral_resistance(self.dx, cross_x))
            lat_y.append(1.0 / layer.lateral_resistance(self.dy, cross_y))
            if li + 1 < len(layers):
                upper = layers[li + 1]
                r_v = (
                    layer.vertical_resistance(self.cell_area) / 2.0
                    + upper.vertical_resistance(self.cell_area) / 2.0
                )
                vert.append(1.0 / r_v)
        g_board = self.cell_area / self.stack.board_resistance_km2w
        g_sink = self.cell_area / self.stack.sink_resistance_km2w
        bottom_half = layers[0].vertical_resistance(self.cell_area) / 2.0
        top_half = layers[-1].vertical_resistance(self.cell_area) / 2.0
        g_bottom = 1.0 / (bottom_half + 1.0 / g_board)
        g_top = 1.0 / (top_half + 1.0 / g_sink)
        return lat_x, lat_y, vert, g_bottom, g_top

    def _assemble(self):
        """Build the conductance matrix and ambient-coupling vector.

        Vectorized over flattened grids: instead of walking every cell in
        Python, each coupling family (lateral x, lateral y, vertical,
        boundary) is emitted as whole index arrays. The diagonal is
        accumulated with ``np.add.at`` over the contributions in exactly
        the order the reference triple loop adds them, so the result is
        bit-identical to :meth:`_assemble_reference`.
        """
        from scipy.sparse import coo_matrix

        nx, ny = self.nx, self.ny
        n_layers = self.stack.n_layers
        plane = ny * nx
        n = self.n_cells
        lat_x, lat_y, vert, g_bottom, g_top = self._conductances()

        idx = np.arange(plane, dtype=np.int64)
        has_x = (idx % nx) != nx - 1  # a neighbour at i+1 exists
        has_y = idx < (ny - 1) * nx  # a neighbour at j+1 exists

        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        diag_idx_parts: list[np.ndarray] = []
        diag_val_parts: list[np.ndarray] = []

        def emit_pairs(a: np.ndarray, b: np.ndarray, g: float) -> None:
            """Symmetric off-diagonal entries for couplings a<->b."""
            rows_parts.append(np.concatenate([a, b]))
            cols_parts.append(np.concatenate([b, a]))
            vals_parts.append(np.full(2 * a.size, -g))

        for li in range(n_layers):
            base = li * plane
            a = base + idx
            ax, ay = a[has_x], a[has_y]
            emit_pairs(ax, ax + 1, lat_x[li])
            emit_pairs(ay, ay + nx, lat_y[li])
            # Reference order per cell: diag[a]+=g_x, diag[a+1]+=g_x,
            # diag[a]+=g_y, diag[a+nx]+=g_y — interleave the four slots
            # per cell and mask out the missing boundary neighbours.
            slots = np.stack([a, a + 1, a, a + nx], axis=1)
            svals = np.broadcast_to(
                np.array([lat_x[li], lat_x[li], lat_y[li], lat_y[li]]),
                slots.shape,
            )
            smask = np.stack([has_x, has_x, has_y, has_y], axis=1)
            diag_idx_parts.append(slots[smask])
            diag_val_parts.append(np.ascontiguousarray(svals)[smask])
            # Vertical coupling to the layer above.
            if li + 1 < n_layers:
                g_v = vert[li]
                emit_pairs(a, a + plane, g_v)
                vslots = np.stack([a, a + plane], axis=1)
                diag_idx_parts.append(vslots.ravel())
                diag_val_parts.append(np.full(2 * plane, g_v))

        # Boundaries: bottom layer to board, top layer to heatsink,
        # emitted bottom-then-top per cell as the reference loop does.
        bottom = idx
        top = (n_layers - 1) * plane + idx
        bslots = np.stack([bottom, top], axis=1).ravel()
        bvals = np.tile(np.array([g_bottom, g_top]), plane)
        diag_idx_parts.append(bslots)
        diag_val_parts.append(bvals)

        diag = np.zeros(n)
        np.add.at(
            diag, np.concatenate(diag_idx_parts), np.concatenate(diag_val_parts)
        )
        b_amb = np.zeros(n)
        np.add.at(b_amb, bslots, bvals)

        rows = np.concatenate(rows_parts + [np.arange(n, dtype=np.int64)])
        cols = np.concatenate(cols_parts + [np.arange(n, dtype=np.int64)])
        vals = np.concatenate(vals_parts + [diag])
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return matrix, b_amb

    def _assemble_reference(self):
        """Pure-Python triple-loop assembly (the original implementation).

        Kept as the readable specification of the discretization and as
        the oracle the vectorized :meth:`_assemble` is tested against.
        """
        from scipy.sparse import coo_matrix

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.zeros(self.n_cells)
        b_amb = np.zeros(self.n_cells)

        layers = self.stack.layers
        n_layers = len(layers)
        lat_x, lat_y, vert, g_bottom, g_top = self._conductances()

        def add(a: int, b: int, g: float) -> None:
            rows.append(a)
            cols.append(b)
            vals.append(-g)
            diag[a] += g

        for li in range(n_layers):
            g_lat_x = lat_x[li]
            g_lat_y = lat_y[li]
            for j in range(self.ny):
                for i in range(self.nx):
                    a = self._index(li, j, i)
                    if i + 1 < self.nx:
                        b = self._index(li, j, i + 1)
                        add(a, b, g_lat_x)
                        add(b, a, g_lat_x)
                    if j + 1 < self.ny:
                        b = self._index(li, j + 1, i)
                        add(a, b, g_lat_y)
                        add(b, a, g_lat_y)
            # Vertical coupling to the layer above.
            if li + 1 < n_layers:
                g_v = vert[li]
                for j in range(self.ny):
                    for i in range(self.nx):
                        a = self._index(li, j, i)
                        b = self._index(li + 1, j, i)
                        add(a, b, g_v)
                        add(b, a, g_v)

        for j in range(self.ny):
            for i in range(self.nx):
                a = self._index(0, j, i)
                diag[a] += g_bottom
                b_amb[a] += g_bottom
                a = self._index(n_layers - 1, j, i)
                diag[a] += g_top
                b_amb[a] += g_top

        n = self.n_cells
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return matrix, b_amb

    # ------------------------------------------------------------------
    # Modal operator
    # ------------------------------------------------------------------
    def _layer_capacitance(self) -> np.ndarray:
        """Per-cell heat capacity of each layer, J/K, shaped (L,)."""
        return np.array([
            layer.volumetric_heat_capacity
            * layer.thickness_m
            * self.cell_area
            for layer in self.stack.layers
        ])

    def _modal_operator(self) -> _Modes:
        """The cached shift-free operator in the DCT basis."""
        if self._modes is None:
            lat_x, lat_y, vert, g_bottom, g_top = self._conductances()
            qx, lam_x = _dct_basis(self.nx)
            qy, lam_y = _dct_basis(self.ny)
            boundary = np.zeros(self.stack.n_layers)
            boundary[0] += g_bottom
            boundary[-1] += g_top
            excess = (
                np.asarray(lat_x)[:, None, None] * lam_x
                + np.asarray(lat_y)[:, None, None] * lam_y[:, None]
                + boundary[:, None, None]
            )
            # A transposed view as the right-hand operand sends numpy's
            # stacked matmul down a path about 2x slower; keep a copy.
            self._modes = _Modes(
                qx=qx,
                qx_t=np.ascontiguousarray(qx.T),
                qy=qy,
                excess=excess,
                coupling=np.asarray(vert, dtype=float),
                heat=self._layer_capacitance(),
            )
        return self._modes

    def _factor(self, dt: float | None) -> _Pivots:
        """Per-mode LDL^T pivots of ``G`` (*dt* None) or ``C/dt + G``,
        cached per dt.

        The pivot ``d_l = diag_l - coupling[l-1]^2 / d_(l-1)`` would
        subtract nearly equal numbers wherever the vertical couplings
        dwarf the boundary terms. Tracking ``e_l = d_l - coupling[l]``
        instead, ``e_l = excess_l + C_l/dt + gain[l-1] * e_(l-1)`` is a
        sum of non-negative terms, so the pivots carry no cancellation.
        """
        pivots = self._pivots.get(dt)
        if pivots is None:
            modes = self._modal_operator()
            n_layers = modes.excess.shape[0]
            c_over_dt = (
                np.zeros(n_layers) if dt is None else modes.heat / dt
            )
            shifted = modes.excess + c_over_dt[:, None, None]
            coupling = np.append(modes.coupling, 0.0)  # none above the top
            gain = np.empty_like(shifted)
            inv_pivot = np.empty_like(shifted)
            extra = shifted[0]
            for li in range(n_layers):
                if li:
                    extra = shifted[li] + gain[li - 1] * extra
                pivot = extra + coupling[li]
                gain[li] = coupling[li] / pivot
                inv_pivot[li] = 1.0 / pivot
            pivots = _Pivots(
                gain=gain, inv_pivot=inv_pivot, c_over_dt=c_over_dt
            )
            self._pivots[dt] = pivots
            if dt is not None:
                obs_metrics.inc("thermal.transient_factorizations")
        return pivots

    @staticmethod
    def _sweep(pivots: _Pivots, x: np.ndarray) -> np.ndarray:
        """The per-mode LDL^T sweep over the layer axis of modal
        right-hand sides ``(..., L, ny, nx)``, in place."""
        n_layers = x.shape[-3]
        for li in range(1, n_layers):
            x[..., li, :, :] += pivots.gain[li - 1] * x[..., li - 1, :, :]
        x[..., -1, :, :] *= pivots.inv_pivot[-1]
        for li in range(n_layers - 2, -1, -1):
            x[..., li, :, :] *= pivots.inv_pivot[li]
            x[..., li, :, :] += pivots.gain[li] * x[..., li + 1, :, :]
        return x

    def _steady_modes(self, power_maps: np.ndarray) -> np.ndarray:
        """The steady rise of validated ``(..., L, ny, nx)`` power maps
        in the DCT basis: forward transform and sweep. numpy runs one
        gemm per 2-D slice of a stacked operand, so each leading index
        is bit-identical to solving it alone."""
        modes = self._modal_operator()
        with single_blas_thread():
            x = modes.qy @ power_maps @ modes.qx_t
        return self._sweep(self._factor(None), x)

    def _to_celsius(self, x: np.ndarray) -> np.ndarray:
        """Inverse transform of modal rises ``(..., ny, nx)``, plus
        ambient."""
        modes = self._modal_operator()
        with single_blas_thread():
            temps = modes.qy.T @ x @ modes.qx
        temps += self.stack.ambient_c
        return temps

    def _window_operator(
        self, dt: float, n: int, watch: int | None
    ) -> np.ndarray:
        """The rows :meth:`advance` reads for an n-step window, shaped
        ``(L, R, ny, nx)``: row r of the result is ``sum_j op[j, r] *
        (x_0 - x*)_j`` per mode. Cached per (dt, n, watch).

        ``B = (C/dt + G)^-1 C/dt``; column j solves ``(C/dt + G) b =
        (C_j/dt) e_j``, one sweep against the dt's pivots, and each
        further power is one more per-mode product with ``B``. The rows
        are the watched row of ``B^1 .. B^n`` followed by every row of
        ``B^n`` (the state after the window), or with *watch* ``None``
        every row of every power, step-major. On the 66 x 22 x 3 grid
        the 5-step DRAM window's operator is 0.28 MB.
        """
        key = (dt, n, watch)
        op = self._windows.get(key)
        if op is None:
            pivots = self._factor(dt)
            n_layers = pivots.c_over_dt.size
            columns = np.zeros((n_layers,) + pivots.gain.shape)
            for j in range(n_layers):
                columns[j, j] = pivots.c_over_dt[j]
            step = self._sweep(pivots, columns).swapaxes(0, 1)
            powers = [step]
            while len(powers) < n:
                powers.append(
                    np.einsum("ij...,jk...->ik...", step, powers[-1])
                )
            if watch is None:
                rows = [power[i] for power in powers for i in range(n_layers)]
            else:
                rows = [power[watch] for power in powers] + list(powers[-1])
            op = np.stack(rows, axis=1)
            self._windows[key] = op
        return op

    # ------------------------------------------------------------------
    # Solves
    # ------------------------------------------------------------------
    def _validate_maps(self, power_maps: np.ndarray) -> np.ndarray:
        expected = (self.stack.n_layers, self.ny, self.nx)
        power_maps = np.asarray(power_maps, dtype=float)
        if power_maps.shape[-3:] != expected:
            raise ValueError(
                f"power map shape {power_maps.shape} != (..., {expected})"
            )
        # NaN propagates through min/max, so this one pair of
        # reductions rejects NaN, +-inf and negative power alike.
        lowest = power_maps.min(initial=0.0)
        highest = power_maps.max(initial=0.0)
        if not (lowest >= 0.0 and highest < np.inf):
            raise ValueError("power must be finite and non-negative")
        return power_maps

    def _layer_names(self) -> tuple[str, ...]:
        return tuple(l.name for l in self.stack.layers)

    def solve(self, power_maps: np.ndarray) -> TemperatureField:
        """Solve for temperatures given per-layer power maps.

        *power_maps* has shape ``(n_layers, ny, nx)`` in watts per cell.
        The first call builds the modal operator and its steady pivots;
        repeat calls only transform, sweep and transform back.
        """
        power_maps = self._validate_maps(power_maps)
        if power_maps.ndim != 3:
            raise ValueError(
                f"solve expects one power map, got shape {power_maps.shape}; "
                "use solve_many for batches"
            )
        with obs_trace.span("thermal.solve", cells=self.n_cells), \
                obs_metrics.timed("thermal.solve_seconds"):
            temps = self._to_celsius(self._steady_modes(power_maps))
            field = TemperatureField(
                celsius=temps, layer_names=self._layer_names()
            )
        obs_metrics.inc("thermal.solves")
        obs_metrics.inc("thermal.solved_maps")
        return field

    def solve_batch(self, power_maps_batch: np.ndarray) -> TemperatureFieldBatch:
        """Solve a whole batch of power maps against one operator.

        *power_maps_batch* has shape ``(k, n_layers, ny, nx)``; the k
        maps go through the modal solve together, each bit-identical to
        a single :meth:`solve`, and land in one contiguous
        :class:`TemperatureFieldBatch` tensor.
        """
        batch = self._validate_maps(power_maps_batch)
        if batch.ndim != 4:
            raise ValueError(
                f"solve_batch expects shape (k, n_layers, ny, nx), "
                f"got {batch.shape}"
            )
        k = batch.shape[0]
        if k == 0:
            return TemperatureFieldBatch(
                celsius=np.empty(batch.shape),
                layer_names=self._layer_names(),
            )
        with obs_trace.span(
            "thermal.solve_many", cells=self.n_cells, maps=k
        ), obs_metrics.timed("thermal.solve_seconds"):
            temps = self._to_celsius(self._steady_modes(batch))
            fields = TemperatureFieldBatch(
                celsius=temps, layer_names=self._layer_names()
            )
        obs_metrics.inc("thermal.solves")
        obs_metrics.inc("thermal.solved_maps", k)
        return fields

    def solve_many(self, power_maps_batch: np.ndarray) -> list[TemperatureField]:
        """List-of-fields veneer over :meth:`solve_batch`; kept for
        callers that want standalone per-map fields."""
        return self.solve_batch(power_maps_batch).fields()

    # ------------------------------------------------------------------
    # Transient stepping (implicit backward Euler)
    # ------------------------------------------------------------------
    def capacitance(self) -> np.ndarray:
        """Per-cell heat capacity, J/K, ordered like the unknown vector."""
        return np.repeat(self._layer_capacitance(), self.ny * self.nx)

    def _validate_step(
        self, temps: np.ndarray, power_maps: np.ndarray, dt: float,
        ndim: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        if not _finite_positive(dt):
            raise ValueError("dt must be finite and positive")
        power_maps = self._validate_maps(power_maps)
        temps = np.asarray(temps, dtype=float)
        if temps.shape != power_maps.shape or power_maps.ndim != ndim:
            raise ValueError(
                f"temps shape {temps.shape} and power shape "
                f"{power_maps.shape} must both be "
                f"{'(n_layers, ny, nx)' if ndim == 3 else '(s, n_layers, ny, nx)'}"
            )
        if not np.isfinite(temps).all():
            raise ValueError("temperatures must be finite")
        return temps, power_maps

    def _to_modes(self, temps: np.ndarray) -> np.ndarray:
        modes = self._modal_operator()
        with single_blas_thread():
            return modes.qy @ (temps - self.stack.ambient_c) @ modes.qx_t

    def to_modes(self, temps: np.ndarray) -> np.ndarray:
        """The rise of Celsius *temps* ``(..., n_layers, ny, nx)`` over
        ambient in the DCT basis: the state :meth:`advance` steps."""
        expected = (self.stack.n_layers, self.ny, self.nx)
        temps = np.asarray(temps, dtype=float)
        if temps.shape[-3:] != expected:
            raise ValueError(
                f"temps shape {temps.shape} != (..., {expected})"
            )
        if not np.isfinite(temps).all():
            raise ValueError("temperatures must be finite")
        return self._to_modes(temps)

    def steady_modes(self, power_maps: np.ndarray) -> np.ndarray:
        """The steady rise of *power_maps* ``(..., n_layers, ny, nx)``
        in the DCT basis: the fixed point :meth:`advance` relaxes toward
        under that power."""
        return self._steady_modes(self._validate_maps(power_maps))

    def advance(
        self,
        modes: np.ndarray,
        steady: np.ndarray,
        dt: float,
        n: int,
        watch: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Take *n* backward-Euler steps of *dt* seconds under constant
        power, in closed form in the DCT basis.

        *modes* is the current rise over ambient (:meth:`to_modes`) and
        *steady* the held power's fixed point (:meth:`steady_modes`),
        both ``(..., n_layers, ny, nx)``. Step s is ``x* + B^s (x_0 -
        x*)``, read from a window operator cached per (dt, n, watch),
        so a call costs a few elementwise passes and one stacked
        inverse transform of the watched layer (windows longer than 16
        steps go block by block).

        Returns ``(modes after n steps, celsius)``. *celsius* holds
        layer index *watch* after every step, ``(..., n, ny, nx)``, or
        with *watch* ``None`` every layer, ``(..., n, n_layers, ny,
        nx)``. Every leading index is bit-identical to advancing it
        alone.
        """
        dt = float(dt)
        if not _finite_positive(dt):
            raise ValueError("dt must be finite and positive")
        if not (_is_int(n) and n > 0):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        n_layers = self.stack.n_layers
        if watch is not None and not (
            _is_int(watch) and 0 <= watch < n_layers
        ):
            raise ValueError(
                f"watch must be a layer index below {n_layers}, "
                f"got {watch!r}"
            )
        modes = np.asarray(modes, dtype=float)
        steady = np.asarray(steady, dtype=float)
        expected = (n_layers, self.ny, self.nx)
        if modes.shape != steady.shape or modes.shape[-3:] != expected:
            raise ValueError(
                f"modes shape {modes.shape} and steady shape "
                f"{steady.shape} must both be (..., {expected})"
            )
        if not (np.isfinite(modes).all() and np.isfinite(steady).all()):
            raise ValueError("modal states must be finite")
        return self._advance(modes, steady, dt, n, watch)

    def _advance(
        self, modes: np.ndarray, steady: np.ndarray, dt: float, n: int,
        watch: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`advance` without its input checks, for callers whose
        states come from :meth:`to_modes`, :meth:`steady_modes` or an
        earlier window, all checked or finite by construction."""
        blocks = []
        while n > 0:
            k = min(n, _WINDOW_CAP)
            op = self._window_operator(dt, k, watch)
            dev = modes - steady
            # One pass: every product and sum runs elementwise in a
            # fixed order over the source layer j, so batching changes
            # no bit.
            out = np.einsum("jryx,...jyx->...ryx", op, dev)
            if watch is None:
                out = out.reshape(out.shape[:-3] + (k,) + steady.shape[-3:])
                out += steady[..., None, :, :, :]
                path, modes = out, out[..., -1, :, :, :]
            else:
                out[..., :k, :, :] += steady[..., watch:watch + 1, :, :]
                out[..., k:, :, :] += steady
                path, modes = out[..., :k, :, :], out[..., k:, :, :]
            blocks.append(self._to_celsius(path))
            n -= k
        step_axis = -4 if watch is None else -3
        celsius = (
            blocks[0] if len(blocks) == 1
            else np.concatenate(blocks, axis=step_axis)
        )
        return modes, celsius

    def step_transient(
        self, temps: np.ndarray, power_maps: np.ndarray, dt: float
    ) -> np.ndarray:
        """Advance one backward-Euler step of *dt* seconds.

        *temps* and *power_maps* are both ``(n_layers, ny, nx)`` —
        current cell temperatures (Celsius) and the power applied over
        the step (watts per cell); returns the new temperature array.
        This is :meth:`advance` with n = 1, from and back to Celsius.
        """
        dt = float(dt)
        temps, power_maps = self._validate_step(
            temps, power_maps, dt, ndim=3
        )
        _, fields = self._advance(
            self._to_modes(temps), self._steady_modes(power_maps), dt, 1,
            None,
        )
        return fields[0]

    def step_transient_reference(
        self, temps: np.ndarray, power_maps: np.ndarray, dt: float
    ) -> np.ndarray:
        """:meth:`step_transient` by :func:`spsolve` over the assembled
        ``C/dt + G``, factorized from scratch every call: the per-step
        correctness reference and the baseline the perf gate measures
        against. Validates its inputs as :meth:`step_transient` does."""
        from scipy.sparse import diags
        from scipy.sparse.linalg import spsolve

        dt = float(dt)
        temps, power_maps = self._validate_step(
            temps, power_maps, dt, ndim=3
        )
        if self._system is None:
            self._system = self._assemble()
        matrix, b_amb = self._system
        c_over_dt = self.capacitance() / dt
        operator = (matrix + diags(c_over_dt)).tocsc()
        rhs = (
            c_over_dt * temps.ravel()
            + power_maps.ravel()
            + b_amb * self.stack.ambient_c
        )
        return spsolve(operator, rhs).reshape(temps.shape)

    def step_transient_many(
        self, temps: np.ndarray, power_maps: np.ndarray, dt: float
    ) -> np.ndarray:
        """Advance S independent scenarios one step in lockstep.

        *temps* and *power_maps* are ``(s, n_layers, ny, nx)``; the S
        scenarios go through one closed-form step (:meth:`advance` with
        n = 1), bit-identical per scenario to S sequential
        :meth:`step_transient` calls.
        """
        dt = float(dt)
        temps, power_maps = self._validate_step(
            temps, power_maps, dt, ndim=4
        )
        if temps.shape[0] == 0:
            return temps.copy()
        _, fields = self._advance(
            self._to_modes(temps), self._steady_modes(power_maps), dt, 1,
            None,
        )
        return fields[:, 0]
