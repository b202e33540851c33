"""Time grids, 2-D tensor-product spatial grids, and grid transfers.

A spatial grid has one Dirichlet or Neumann tag for all its edges.
Refinement never moves existing nodes: time steps are bisected, and spatial
refinement bisects whole grid lines, so every coarse node survives into the
refined grid bitwise, which lets restriction be plain nodal injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class TransferError(ValueError):
    """Grids are not nested, so a transfer cannot be built."""


def _frozen_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    a.setflags(write=False)
    return a


def trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    """Composite trapezoid quadrature weights for sorted 1-D nodes."""
    h = np.diff(coords)
    w = np.zeros(len(coords))
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing time nodes t_0 < t_1 < ... < t_N."""

    nodes: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = _frozen_array(self.nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two time nodes")
        steps = _frozen_array(np.diff(nodes))
        if not np.all(steps > 0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def uniform(cls, t0: float, t_final: float, dt: float) -> "TimeGrid":
        if not dt > 0:
            raise ValueError(f"dt={dt} must be positive")
        if not np.isfinite([t0, t_final]).all():
            raise ValueError(f"[{t0}, {t_final}] is not a finite interval")
        span = t_final - t0
        steps = float(span) / float(dt)
        # n + 1 nodes must fit the largest float64 array numpy can allocate
        if not steps < np.iinfo(np.intp).max // 8:
            raise ValueError(f"dt={dt} is too small for [{t0}, {t_final}]")
        n = int(round(steps))
        if n < 1 or abs(n * dt - span) > 1e-9 * max(abs(span), 1.0):
            raise ValueError(f"dt={dt} does not evenly divide [{t0}, {t_final}]")
        nodes = t0 + dt * np.arange(n + 1)
        nodes[-1] = t_final
        return cls(nodes)

    @property
    def num_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def t_final(self) -> float:
        return float(self.nodes[-1])

    def halve_all_steps(self) -> "TimeGrid":
        """Insert the midpoint t_n + h_n/2 of every step; old nodes persist."""
        return TimeGrid(_bisect(self.nodes, range(self.num_steps)))

    def halve_marked(self, marked) -> "TimeGrid":
        """Bisect the steps whose indices appear in ``marked``."""
        marked = sorted(set(int(m) for m in marked))
        if marked and (marked[0] < 0 or marked[-1] >= self.num_steps):
            raise ValueError(f"step index out of range: {marked}")
        return TimeGrid(_bisect(self.nodes, marked))

    def to_json_dict(self) -> dict:
        return {"kind": "time_grid", "nodes": self.nodes.tolist()}


@dataclass(frozen=True, eq=False)
class TensorGrid2D:
    """Tensor-product grid: x-lines times y-lines, one tag for all edges.

    Unknowns are the nodes not lying on a Dirichlet edge, ordered row-major
    with y varying slowest (C order of an (ny+1, nx+1) nodal array).
    """

    xs: np.ndarray
    ys: np.ndarray
    bc: str

    def __post_init__(self):
        xs, ys = _frozen_array(self.xs), _frozen_array(self.ys)
        for name, c in (("xs", xs), ("ys", ys)):
            if c.ndim != 1 or len(c) < 2:
                raise ValueError(f"{name} needs at least two coordinates")
            if not np.all(np.diff(c) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if self.bc not in (DIRICHLET, NEUMANN):
            raise ValueError(f"bc={self.bc!r} is not one tag for all edges: "
                             f"{DIRICHLET!r} or {NEUMANN!r}")

    @classmethod
    def uniform(cls, x0: float, x1: float, nx_cells: int,
                y0: float, y1: float, ny_cells: int, bc) -> "TensorGrid2D":
        return cls(np.linspace(x0, x1, nx_cells + 1),
                   np.linspace(y0, y1, ny_cells + 1), bc)

    @property
    def num_cells(self) -> tuple[int, int]:
        return len(self.xs) - 1, len(self.ys) - 1

    @property
    def node_shape(self) -> tuple[int, int]:
        """(rows, columns) = (len(ys), len(xs)) of the nodal array."""
        return len(self.ys), len(self.xs)

    def unknown_mask(self) -> np.ndarray:
        """Boolean (ny+1, nx+1) array marking non-Dirichlet nodes."""
        keep = slice(1, -1) if self.bc == DIRICHLET else slice(None)
        mask = np.zeros(self.node_shape, dtype=bool)
        mask[keep, keep] = True
        return mask

    def unknown_index(self) -> np.ndarray:
        """(ny+1, nx+1) int array: unknown id per node, -1 where excluded."""
        mask = self.unknown_mask()
        idx = np.full(mask.shape, -1, dtype=int)
        idx[mask] = np.arange(int(mask.sum()))
        return idx

    @cached_property
    def num_unknowns(self) -> int:
        return int(self.unknown_mask().sum())

    def unknown_coords(self) -> np.ndarray:
        """(num_unknowns, 2) array of (x, y) per unknown."""
        mask = self.unknown_mask()
        X, Y = np.meshgrid(self.xs, self.ys)
        return np.column_stack([X[mask], Y[mask]])

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """Unknown vector -> full (ny+1, nx+1) nodal array, zero elsewhere."""
        mask = self.unknown_mask()
        out = np.zeros(mask.shape)
        out[mask] = v
        return out

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights per unknown (Dirichlet nodes carry zero value)."""
        w = np.outer(trapezoid_weights(self.ys), trapezoid_weights(self.xs))
        return w[self.unknown_mask()]

    def refine_uniform(self) -> "TensorGrid2D":
        nx, ny = self.num_cells
        return TensorGrid2D(_bisect(self.xs, range(nx)),
                            _bisect(self.ys, range(ny)), self.bc)

    def refine_marked(self, cells) -> "TensorGrid2D":
        """Bisect every x-line and y-line that passes through a marked cell.

        cells: iterable of (ix, iy) cell indices.  A grid line shared by
        several marked cells is bisected once.
        """
        nx, ny = self.num_cells
        x_marks, y_marks = set(), set()
        for ix, iy in cells:
            ix, iy = int(ix), int(iy)
            if not (0 <= ix < nx and 0 <= iy < ny):
                raise ValueError(f"cell ({ix},{iy}) outside {nx}x{ny} grid")
            x_marks.add(ix)
            y_marks.add(iy)
        return TensorGrid2D(_bisect(self.xs, sorted(x_marks)),
                            _bisect(self.ys, sorted(y_marks)), self.bc)

    def to_json_dict(self) -> dict:
        return {"kind": "tensor_grid", "xs": self.xs.tolist(),
                "ys": self.ys.tolist(), "bc": self.bc}


def _bisect(coords: np.ndarray, marked) -> np.ndarray:
    """Insert the midpoint of each interval [coords[i], coords[i+1]] whose
    index i is in ``marked``, a sorted sequence of distinct indices."""
    i = np.asarray(marked, dtype=int)
    return np.insert(coords, i + 1,
                     coords[i] + 0.5 * (coords[i + 1] - coords[i]))


def _match_indices(coarse: np.ndarray, fine: np.ndarray, axis: str) -> np.ndarray:
    """Index of each coarse coordinate inside the fine coordinate array."""
    near = np.searchsorted(fine, coarse)[:, None] + np.array([-1, 0, 1])
    inside = (near >= 0) & (near < len(fine))
    gap = np.abs(fine[np.clip(near, 0, len(fine) - 1)] - coarse[:, None])
    hit = inside & (gap <= 1e-12 * np.maximum(np.abs(coarse), 1.0)[:, None])
    found = hit.any(axis=1)
    if not found.all():
        c = coarse[np.argmin(found)]
        raise TransferError(f"coarse {axis}={c!r} is not a fine grid line")
    return near[np.arange(len(coarse)), hit.argmax(axis=1)]


@dataclass(frozen=True, eq=False)
class GridTransfer:
    """Nodal injection (fine -> coarse) between nested tensor grids with the
    same boundary tag, the only grid transfer: it acts on unknown vectors,
    and injection[u] is the fine unknown index of coarse unknown u.
    """

    fine: TensorGrid2D
    coarse: TensorGrid2D
    injection: np.ndarray

    @classmethod
    def between(cls, fine: TensorGrid2D, coarse: TensorGrid2D) -> "GridTransfer":
        if fine.bc != coarse.bc:
            raise TransferError("boundary tags differ between the two grids")
        ixs = _match_indices(coarse.xs, fine.xs, "x")
        iys = _match_indices(coarse.ys, fine.ys, "y")
        # every coarse unknown is a fine unknown under one shared tag
        injected = fine.unknown_index()[np.ix_(iys, ixs)]
        return cls(fine, coarse, injected[coarse.unknown_mask()])

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """Injection along the last axis; + 0.0 turns -0.0 into 0.0, which
        keeps the signed zeros that restriction by a sparse injection
        product gave."""
        return v[..., self.injection] + 0.0

    def restrict_state(self, v: np.ndarray) -> np.ndarray:
        """Restrict a species-major stacked state vector.  Its length gives
        the species count: reshape raises ValueError unless it is a multiple
        of the fine unknown count."""
        return self.restrict(v.reshape(-1, self.fine.num_unknowns)).reshape(-1)
