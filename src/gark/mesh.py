"""Time grids, 2-D tensor-product spatial grids, and grid transfers.

Refinement never moves existing nodes: time steps are bisected, and spatial
refinement bisects whole grid lines, so every coarse node survives into the
refined grid bitwise.  That containment is what lets restriction be plain
nodal injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

EDGES = ("left", "right", "bottom", "top")
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
        span = t_final - t0
        n = int(round(span / dt))
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


def _normalize_bc(bc) -> dict:
    if isinstance(bc, str):
        bc = {edge: bc for edge in EDGES}
    bc = dict(bc)
    for edge in EDGES:
        if bc.get(edge) not in (DIRICHLET, NEUMANN):
            raise ValueError(f"edge {edge!r} needs '{DIRICHLET}' or '{NEUMANN}'")
    return bc


@dataclass(frozen=True, eq=False)
class TensorGrid2D:
    """Tensor-product grid: x-lines times y-lines with per-edge BC tags.

    Unknowns are the nodes not lying on a Dirichlet edge, ordered row-major
    with y varying slowest (C order of an (ny+1, nx+1) nodal array).
    """

    xs: np.ndarray
    ys: np.ndarray
    bc: dict

    def __post_init__(self):
        xs, ys = _frozen_array(self.xs), _frozen_array(self.ys)
        for name, c in (("xs", xs), ("ys", ys)):
            if c.ndim != 1 or len(c) < 2:
                raise ValueError(f"{name} needs at least two coordinates")
            if not np.all(np.diff(c) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "bc", _normalize_bc(self.bc))

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
        ny, nx = self.node_shape
        mask = np.ones((ny, nx), dtype=bool)
        if self.bc["left"] == DIRICHLET:
            mask[:, 0] = False
        if self.bc["right"] == DIRICHLET:
            mask[:, -1] = False
        if self.bc["bottom"] == DIRICHLET:
            mask[0, :] = False
        if self.bc["top"] == DIRICHLET:
            mask[-1, :] = False
        return mask

    def unknown_index(self) -> np.ndarray:
        """(ny+1, nx+1) int array: unknown id per node, -1 where excluded."""
        mask = self.unknown_mask()
        idx = np.full(mask.shape, -1, dtype=int)
        idx[mask] = np.arange(int(mask.sum()))
        return idx

    @property
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
                "ys": self.ys.tolist(), "bc": dict(self.bc)}


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


def _bilinear_weights(fine: np.ndarray, coarse: np.ndarray):
    """Per fine coordinate: the containing coarse interval j and the weights
    (1 - t, t) of its two ends."""
    j = np.clip(np.searchsorted(coarse, fine, side="right") - 1, 0,
                len(coarse) - 2)
    t = (fine - coarse[j]) / (coarse[j + 1] - coarse[j])
    return j, np.stack([1.0 - t, t], axis=-1)


@dataclass(frozen=True, eq=False)
class GridTransfer:
    """Nodal injection (fine -> coarse) and bilinear prolongation
    (coarse -> fine) between nested tensor grids with matching edge tags.

    Both directions act on unknown vectors of their respective grids.
    injection[u] is the fine unknown index of coarse unknown u.
    """

    fine: TensorGrid2D
    coarse: TensorGrid2D
    injection: np.ndarray
    prolongation: sp.csr_matrix

    @classmethod
    def between(cls, fine: TensorGrid2D, coarse: TensorGrid2D) -> "GridTransfer":
        if fine.bc != coarse.bc:
            raise TransferError("edge tags differ between the two grids")
        ixs = _match_indices(coarse.xs, fine.xs, "x")
        iys = _match_indices(coarse.ys, fine.ys, "y")

        fine_idx = fine.unknown_index()
        coarse_idx = coarse.unknown_index()
        n_fine, n_coarse = fine.num_unknowns, coarse.num_unknowns

        injected = fine_idx[np.ix_(iys, ixs)]
        unknown = coarse_idx >= 0
        orphans = np.argwhere(unknown & (injected < 0))
        if len(orphans):
            jy, jx = orphans[0]
            raise TransferError(
                f"coarse unknown at ({coarse.xs[jx]}, {coarse.ys[jy]}) "
                "maps to an excluded fine node")

        # bilinear weights from the coarse cell containing each fine node;
        # entries run over fine node (row-major), then dy, then dx
        jy, wy = _bilinear_weights(fine.ys, coarse.ys)
        jx, wx = _bilinear_weights(fine.xs, coarse.xs)
        corner = coarse_idx[(jy[:, None] + [0, 1])[:, None, :, None],
                            (jx[:, None] + [0, 1])[None, :, None, :]]
        weight = wx[None, :, None, :] * wy[:, None, :, None]
        rows = np.broadcast_to(fine_idx[:, :, None, None], corner.shape)
        # a Dirichlet corner contributes zero
        keep = (rows >= 0) & (weight != 0.0) & (corner >= 0)
        prolongation = sp.csr_matrix(
            (weight[keep], (rows[keep], corner[keep])),
            shape=(n_fine, n_coarse))
        return cls(fine, coarse, injected[unknown], prolongation)

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """Injection along the last axis; + 0.0 turns -0.0 into 0.0 as the
        product with the injection matrix does."""
        return v[..., self.injection] + 0.0

    def prolong(self, v: np.ndarray) -> np.ndarray:
        return self.prolongation @ v

    def restrict_state(self, v: np.ndarray) -> np.ndarray:
        """Restrict a species-major stacked state vector.  Its length gives
        the species count: reshape raises ValueError unless it is a multiple
        of the fine unknown count."""
        n_fine = self.prolongation.shape[0]
        return self.restrict(v.reshape(-1, n_fine)).reshape(-1)
