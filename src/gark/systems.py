"""Additively split ODE systems and the finite-difference problem library.

States are nodal vectors over a grid's unknowns, species-major for
multi-species problems.  Every partition exposes its right-hand side and an
assembled sparse Jacobian, and may add a matrix-free vector-Jacobian product
``vjp`` that the adjoint sweep uses instead of assembling; the mass matrix is
the identity throughout.  One builder makes every diffusion partition, and
checks the shape of each vector it applies its operator, or in the vjp its
transpose, to.  With no coefficient field it sums the products in NumPy,
bitwise as SciPy's compiled sparse kernels do, assembles its Jacobian on the
first call, and gives the operator's tensor-product form
(SeparableLaplacian), from which the stage solver diagonalizes it and takes
a stage's slope: building and running calvo or Gray-Scott imports no SciPy.
A coefficient field (bsvd) assembles the operator at build and calls those
kernels on its arrays.  SciPy is imported where a sparse matrix is made.
Every problem lists its stiff diffusion partition first and its reaction
second, the order of build_imex22's implicit and explicit schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from gark.mesh import DIRICHLET, NEUMANN, TensorGrid2D, trapezoid_weights

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Partition:
    """One term of the additive split y' = sum_q f^(q)(t, y).

    pointwise declares that the rhs acts on each node's values alone, with
    coefficients sampled at that node.  Injection R onto a coarser grid
    keeps every coarse node bitwise, so then R f_fine(Y) == f_coarse(R Y)
    bitwise.  On an explicit stage the fine stage value is exactly the
    recombination of the slopes and its slope is exactly f(Y), so the
    restricted stage residual k - f(R Y) is exactly zero, and the estimate
    does not weigh a pointwise partition whose stages are all explicit.  An
    implicit stage breaks this: a Newton stage's value differs from the
    recombination by its Newton residual, and a linear stage's slope from
    f(Y) by its solve's round-off.  A rhs whose diagonal Jacobian hides a
    term that depends on the grid is not pointwise.

    separable is a linear partition's constant Jacobian J in tensor-product
    form, and declares that its rhs is exactly J y, with no forcing term:
    the stage solver then diagonalizes J instead of factoring the stage
    matrix, and takes a stage's slope in J's eigenbasis without calling rhs.
    Set on a partition that is not linear, it raises ValueError.
    """

    name: str
    rhs: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], sp.spmatrix]
    linear: bool = False
    vjp: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    pointwise: bool = False
    separable: SeparableLaplacian | None = None

    def __post_init__(self):
        if self.separable is not None and not self.linear:
            raise ValueError(f"partition {self.name!r} is not linear, so it "
                             "cannot carry a separable operator")


@dataclass(frozen=True, eq=False)
class SeparableLaplacian:
    """A constant-coefficient Laplacian on a tensor grid, in 1-D factors.

    Species k of a species-major state, reshaped to the (ny, nx) array Y_k
    of its unknowns, has J y = scales[k] (Ly Y_k + Y_k Lx^T), where each
    axis's operator L = W^-1 K has the trapezoid weights w = diag(W) and the
    symmetric second-difference matrix K of discretize_laplacian's faces
    with c = 1, Dirichlet ends dropped as it drops them.
    """

    x: tuple[np.ndarray, np.ndarray]  # (w, K) of the x axis
    y: tuple[np.ndarray, np.ndarray]  # (w, K) of the y axis
    scales: tuple[float, ...]

    @cached_property
    def diagonalization(self) -> tuple:
        """(lam, products, transposed_products), computed on first use, with
        J = diag(scales) kron (Vy kron Vx) diag(lam) (Vy kron Vx)^-1 and
        lam[j, i] = lam_y[j] + lam_x[i].  Each axis's basis comes from eigh
        of the symmetric W^-1/2 K W^-1/2 = W^1/2 L W^-1/2 = Q diag(lam) Q^T,
        so V = W^-1/2 Q and V^-1 = Q^T W^1/2.  A product set (A, B, C, D),
        contiguous, takes a reshaped state Y into the eigenbasis as A Y B
        and out as C Z D: the stage system's (Vy^-1, Vx^-T, Vy, Vx^T)
        applies (Vy kron Vx)^-1 and then Vy kron Vx, and its transpose's
        are their transposes (Vy^T, Vx, Vy^-T, Vx^-1)."""
        lam, v, v_inv = [], [], []
        for w, k in (self.x, self.y):
            root = np.sqrt(w)
            lam_axis, q = np.linalg.eigh(k / np.outer(root, root))
            lam.append(lam_axis)
            v.append(q / root[:, None])
            v_inv.append(q.T * root)
        (vx, vy), (vx_inv, vy_inv) = v, v_inv
        products = ((vy_inv, vx_inv.T, vy, vx.T), (vy.T, vx, vy_inv.T, vx_inv))
        return (np.add.outer(lam[1], lam[0]),
                *(tuple(map(np.ascontiguousarray, p)) for p in products))


def separable_laplacian(grid: TensorGrid2D,
                        scales: tuple[float, ...]) -> SeparableLaplacian:
    """The 1-D factors of discretize_laplacian(grid) times scales[k] on
    species k; see SeparableLaplacian."""
    keep = slice(1, -1) if grid.bc == DIRICHLET else slice(None)

    def axis(coords):
        inv_h = 1.0 / np.diff(coords)
        k = np.diag(inv_h, 1) + np.diag(inv_h, -1)
        k -= np.diag(k.sum(axis=1))
        return trapezoid_weights(coords)[keep], k[keep, keep]

    return SeparableLaplacian(axis(grid.xs), axis(grid.ys),
                              tuple(float(s) for s in scales))


@dataclass(frozen=True, eq=False)
class SplitOdeSystem:
    dim: int
    partitions: tuple[Partition, ...]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def partition_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.partitions)

    def f(self, q: int, t: float, y: np.ndarray) -> np.ndarray:
        return self.partitions[q].rhs(t, y)

    def jac(self, q: int, t: float, y: np.ndarray) -> sp.spmatrix:
        return self.partitions[q].jacobian(t, y)

    def vjp(self, q: int, t: float, y: np.ndarray,
            w: np.ndarray) -> np.ndarray:
        """J_q(t, y)^T w, assembling J_q only if the partition has no vjp."""
        vjp = self.partitions[q].vjp
        if vjp is None:
            return self.jac(q, t, y).T @ w
        return vjp(t, y, w)


@dataclass(frozen=True)
class GoalFunction:
    """Scalar quantity of interest Q(y) with its gradient."""

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass
class ProblemInstance:
    """A split system bound to a grid, an initial state, and a goal."""

    name: str
    system: SplitOdeSystem
    grid: TensorGrid2D | None
    y0: np.ndarray
    t0: float
    t_final: float
    goal: GoalFunction
    exact_solution: Callable[[float], np.ndarray] | None = None
    params: dict = field(default_factory=dict)


def _face_coefficients(grid: TensorGrid2D, coefficient=None) -> tuple:
    """(idx, has_face, neighbor, coef) of discretize_laplacian's flux
    form: the unknown index per node, and per node and face E, W, N, S
    whether the node has the face, the neighbour's unknown index (-1 where
    it has none or it is eliminated) and the face coefficient (0.0 where
    the node has no face)."""
    ny, nx = grid.node_shape
    if coefficient is None:
        D = np.ones((ny, nx))
    else:
        X, Y = np.meshgrid(grid.xs, grid.ys)
        D = np.broadcast_to(np.asarray(coefficient(X, Y), dtype=float),
                            (ny, nx)).copy()

    idx = grid.unknown_index()
    hx, hy = np.diff(grid.xs), np.diff(grid.ys)
    wx, wy = trapezoid_weights(grid.xs), trapezoid_weights(grid.ys)
    every, head, tail = slice(None), slice(None, -1), slice(1, None)
    # faces E, W, N, S: (nodes that have the face, their neighbours, h * w)
    faces = (((every, head), (every, tail), hx * wx[:-1]),
             ((every, tail), (every, head), hx * wx[1:]),
             ((head, every), (tail, every), (hy * wy[:-1])[:, None]),
             ((tail, every), (head, every), (hy * wy[1:])[:, None]))
    has_face = np.zeros((ny, nx, 4), dtype=bool)
    neighbor = np.full((ny, nx, 4), -1)
    coef = np.zeros((ny, nx, 4))
    for f, (here, there, hw) in enumerate(faces):
        has_face[here + (f,)] = True
        neighbor[here + (f,)] = idx[there]
        coef[here + (f,)] = 0.5 * (D[here] + D[there]) / hw
    return idx, has_face, neighbor, coef


def discretize_laplacian(grid: TensorGrid2D, coefficient=None) -> sp.csr_matrix:
    """Flux-form div(c grad u) on the grid's unknowns, with c = 1 or the
    callable coefficient(X, Y) on the nodal meshgrid.

    Face coefficients are arithmetic means of the nodal coefficient field;
    Neumann edges carry zero flux, Dirichlet edges hold value zero and their
    nodes are eliminated.  Exact on quadratics over uniform spacing, and the
    all-Neumann operator conserves the trapezoid integral for any state.
    """
    import scipy.sparse as sp

    idx, has_face, neighbor, coef = _face_coefficients(grid, coefficient)
    # Triplets per node, face, then (diagonal, neighbour): the same order as
    # a node-by-node loop, so duplicates on the diagonal sum in that order.
    keep = has_face & (idx >= 0)[:, :, None]
    keep = np.stack([keep, keep & (neighbor >= 0)], axis=-1)
    rows = np.broadcast_to(idx[:, :, None, None], keep.shape)[keep]
    cols = np.stack([np.broadcast_to(idx[:, :, None], neighbor.shape),
                     neighbor], axis=-1)[keep]
    vals = np.stack([-coef, coef], axis=-1)[keep]
    n = grid.num_unknowns
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


_PAD = np.zeros(1)  # the value that _stencil's missing entries read
_PAD.setflags(write=False)
# The slot of each face E, W, N, S in a row's CSR column order S, W, D, E,
# N; the diagonal D takes slot 2, and the slot opposite slot k is 4 - k.
_FACE_SLOTS = (3, 1, 4, 0)


def _stencil(grid: TensorGrid2D, scales: tuple[float, ...]) -> tuple:
    """The slots of the operator scales[k] * discretize_laplacian(grid) on
    species k, and of its transpose: two (cols, vals) pairs of shape
    (5, N) for N unknowns, row r's entries in slots (S, W, D, E, N), the
    CSR column order.  A missing entry reads column N, a zero pad, with
    value 0.0.  The transpose's slots of row c hold the operator's entries
    (r, c) with r ascending, the order in which the CSC product sums them.
    """
    idx, _, neighbor, coef = _face_coefficients(grid)
    unknown = idx >= 0
    n = grid.num_unknowns
    rows = np.arange(n)
    # minus the faces in face order, as scipy sums the duplicate diagonal
    # triplets; a missing face's -0.0 changes no sum
    diagonal = -coef[..., 0]
    for f in range(1, 4):
        diagonal = diagonal - coef[..., f]
    cols = np.full((5, n), -1)
    vals = np.zeros((5, n))
    cols[2], vals[2] = rows, diagonal[unknown]
    for f, slot in enumerate(_FACE_SLOTS):
        there = neighbor[..., f][unknown]
        has = there >= 0
        cols[slot, has] = there[has]
        vals[slot, has] = coef[..., f][unknown][has]

    t_cols, t_vals = np.full_like(cols, -1), np.zeros_like(vals)
    for slot in range(5):
        has = cols[slot] >= 0
        t_cols[4 - slot, cols[slot, has]] = rows[has]
        t_vals[4 - slot, cols[slot, has]] = vals[slot, has]

    pad = len(scales) * n

    def stacked(cols, vals):
        return (np.concatenate([np.where(cols < 0, pad, cols + k * n)
                                for k in range(len(scales))], axis=1),
                np.concatenate([s * vals for s in scales], axis=1))

    return stacked(cols, vals), stacked(t_cols, t_vals)


def integral_goal(grid: TensorGrid2D, num_species: int = 1) -> GoalFunction:
    """Trapezoid-rule integral of the first of num_species stacked species."""
    n = grid.num_unknowns
    w = np.zeros(num_species * n)
    w[:n] = grid.quadrature_weights()
    w.setflags(write=False)
    return GoalFunction(evaluate=lambda y: float(w @ y),
                        gradient=lambda y: w.copy())


def _diffusion(grid: TensorGrid2D, diffusivities: tuple[float, ...] = (1.0,),
               coefficient=None) -> Partition:
    """The stiff linear partition y' = op y, op being diffusivities[k] times
    discretize_laplacian(grid, coefficient) on species k; with no
    coefficient field it also carries op's separable_laplacian form.

    With no coefficient field, rhs and vjp sum _stencil's slots in NumPy,
    each output from 0.0 in the order in which csr_matvec and csc_matvec,
    the compiled kernels of op @ y and op.T @ w, sum its entries: the same
    bits, and no SciPy import.  Implicit stages take their solves, slopes
    and adjoint thetas in the eigenbasis, so these products run only in the
    estimate's stage residuals (f) and in tableaux that step diffusion
    explicitly.  op itself is assembled on the first jacobian call, which
    no run makes.  A coefficient field assembles op here and
    calls those kernels on op's own arrays, bound once, without
    scipy.sparse's per-call dispatch, as long as no caller changes op in
    place.  That branch keeps SciPy: its stage solves need SciPy's SuperLU
    anyway, and its campaigns run on thousands of unknowns, where the
    kernels take under half the NumPy slots' time (13.3 against 32.7 us at
    3 422 unknowns on a 2-core Xeon).  A vector whose shape is not (n,)
    raises ValueError first, as op @ y does.
    """
    n = len(diffusivities) * grid.num_unknowns

    def checked(v: np.ndarray) -> np.ndarray:
        if v.shape != (n,):
            raise ValueError(f"the diffusion operator on {n} unknowns "
                             f"cannot apply to a vector of shape {v.shape}")
        return v

    def assemble():
        import scipy.sparse as sp
        lap = discretize_laplacian(grid, coefficient)
        return sp.block_diag([s * lap for s in diffusivities], format="csr")

    if coefficient is None:
        slots = _stencil(grid, diffusivities)
        assembled = cache(assemble)

        def product(transposed: int, v: np.ndarray) -> np.ndarray:
            cols, vals = slots[transposed]
            padded = np.concatenate((checked(v), _PAD))
            return np.add.reduce(vals * padded[cols], axis=0, initial=0.0)

        def jacobian(t, y):
            return assembled()

        separable = separable_laplacian(grid, diffusivities)
    else:
        from scipy.sparse import _sparsetools
        op = assemble()
        arrays = (op.indptr, op.indices, op.data)
        kernels = (_sparsetools.csr_matvec, _sparsetools.csc_matvec)

        def product(transposed: int, v: np.ndarray) -> np.ndarray:
            out = np.zeros(n)
            kernels[transposed](n, n, *arrays, checked(v), out)
            return out

        def jacobian(t, y):
            return op

        separable = None
    return Partition("diffusion", lambda t, y: product(0, y), jacobian,
                     linear=True, vjp=lambda t, y, w: product(1, w),
                     separable=separable)


def _pointwise_reaction(rhs, slope) -> Partition:
    """A reaction rhs(t, y) acting node by node, with diagonal Jacobian
    slope(y): a pointwise partition."""
    def jacobian(t, y):
        import scipy.sparse as sp
        return sp.diags(slope(y), format="csr")

    return Partition("reaction", rhs, jacobian,
                     vjp=lambda t, y, w: slope(y) * w, pointwise=True)


# x span, y span and the boundary tag, per grid problem
PROBLEM_DOMAINS = {
    "calvo": ((-1.0, 3.0), (-1.0, 1.0), DIRICHLET),
    "gray_scott": ((0.0, 2.0), (0.0, 2.0), NEUMANN),
    "bsvd": ((0.0, 1.0), (0.0, 1.0), NEUMANN),
}


def _require_domain(grid: TensorGrid2D, name: str) -> None:
    (x0, x1), (y0, y1), bc = PROBLEM_DOMAINS[name]
    ends = (grid.xs[0], grid.xs[-1], grid.ys[0], grid.ys[-1])
    if not all(math.isclose(a, b, abs_tol=1e-12)
               for a, b in zip(ends, (x0, x1, y0, y1))):
        raise ValueError(f"make_{name} expects the domain "
                         f"[{x0},{x1}]x[{y0},{y1}]")
    if grid.bc != bc:
        raise ValueError(f"make_{name} expects {bc} edges everywhere")


# --- manufactured reaction-diffusion problem -------------------------------

def _calvo_g(x: np.ndarray) -> np.ndarray:
    left = (x + 1.0) * (2.0 * x - 21.0 / 4.0)
    right = (3.0 - x) * (x - 23.0 / 4.0)
    return np.where(x <= 2.0, left, right)


def _calvo_gxx(x: np.ndarray) -> np.ndarray:
    # second derivative jumps across x = 2; nodes on the seam take the mean,
    # which is also what the symmetric second difference produces there
    out = np.where(x < 2.0, 4.0, -2.0)
    return np.where(np.abs(x - 2.0) <= 1e-9, 1.0, out)


def make_calvo(grid: TensorGrid2D, nu: float = 0.1) -> ProblemInstance:
    """Reaction-diffusion u_t = nu lap(u) + u - u^3 + f with a known solution.

    The manufactured solution (2 + cos(pi t))/30 * g(x) * (y^2 - 1) is
    piecewise quadratic per direction and C^1 across x = 2, so on uniform
    spacing with a grid line at x = 2 (nx divisible by 4) the nodal samples
    solve the semi-discrete system exactly.  The default nu = 0.1 is a
    conventional choice for this setup, not part of the solution.
    Domain [-1,3]x[-1,1], zero Dirichlet edges, t in [0, 1.5].
    """
    _require_domain(grid, "calvo")
    if grid.num_unknowns == 0:
        raise ValueError(f"make_calvo has no unknowns inside the Dirichlet "
                         f"edges of {grid.num_cells} cells; it needs 2 a side")
    coords = grid.unknown_coords()
    xc, yc = coords[:, 0], coords[:, 1]
    gx, gxxc = _calvo_g(xc), _calvo_gxx(xc)
    qy = yc * yc - 1.0
    gq = gx * qy
    gq3 = gq ** 3
    lap_gq = gxxc * qy + 2.0 * gx  # the Laplacian of gq, time-independent

    def s(t: float) -> float:
        return (2.0 + math.cos(math.pi * t)) / 30.0

    def s_dot(t: float) -> float:
        return -math.pi * math.sin(math.pi * t) / 30.0

    def forcing(t: float) -> np.ndarray:
        # u_t - nu lap(u) - u + u^3 at u = s(t) gq, gq's powers precomputed
        st = s(t)
        return (s_dot(t) - st) * gq - (nu * st) * lap_gq + st ** 3 * gq3

    def reaction_rhs(t: float, y: np.ndarray) -> np.ndarray:
        return y - y * y * y + forcing(t)

    system = SplitOdeSystem(
        dim=grid.num_unknowns,
        partitions=(
            _diffusion(grid, (nu,)),
            _pointwise_reaction(reaction_rhs, lambda y: 1.0 - 3.0 * y ** 2),
        ))

    def exact(t: float) -> np.ndarray:
        return s(t) * gq

    return ProblemInstance(name="calvo", system=system, grid=grid,
                           y0=exact(0.0), t0=0.0, t_final=1.5,
                           goal=integral_goal(grid),
                           exact_solution=exact,
                           params={"nu": nu})


# --- two-species autocatalytic pattern problem -----------------------------

GRAY_SCOTT_DU, GRAY_SCOTT_DV = 8.0e-2, 4.0e-2  # u and v diffusivities


def make_gray_scott(grid: TensorGrid2D, feed: float = 0.024,
                    kill: float = 0.06, t_final: float = 50.0
                    ) -> ProblemInstance:
    """Two-species problem u_t = du lap(u) - u v^2 + feed (1 - u),
    v_t = dv lap(v) + u v^2 - (feed + kill) v on [0,2]^2, zero-flux edges,
    with du = GRAY_SCOTT_DU and dv = GRAY_SCOTT_DV.

    State is species-major: all u unknowns, then all v unknowns.  The goal
    integrates the u species only.
    """
    _require_domain(grid, "gray_scott")
    n = grid.num_unknowns
    decay = feed + kill

    def reaction_rhs(t: float, y: np.ndarray) -> np.ndarray:
        # -u v^2 + feed (1 - u) and u v^2 - decay v, written into one array
        u, v = y[:n], y[n:]
        uvv = u * v
        uvv *= v
        out = np.empty(2 * n)
        out_u, out_v = out[:n], out[n:]
        np.subtract(1.0, u, out=out_u)
        out_u *= feed
        out_u -= uvv
        np.multiply(decay, v, out=out_v)
        np.subtract(uvv, out_v, out=out_v)
        return out

    def reaction_blocks(y: np.ndarray):
        """Diagonals of the Jacobian blocks [[uu, uv], [vu, vv]]."""
        u, v = y[:n], y[n:]
        return (-v * v - feed, -2.0 * u * v, v * v, 2.0 * u * v - decay)

    def reaction_jac(t: float, y: np.ndarray) -> sp.spmatrix:
        import scipy.sparse as sp
        uu, uv, vu, vv = reaction_blocks(y)
        return sp.bmat([[sp.diags(uu), sp.diags(uv)],
                        [sp.diags(vu), sp.diags(vv)]], format="csr")

    def reaction_vjp(t: float, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        uu, uv, vu, vv = reaction_blocks(y)
        wu, wv = w[:n], w[n:]
        return np.concatenate([uu * wu + vu * wv, uv * wu + vv * wv])

    system = SplitOdeSystem(
        dim=2 * n,
        partitions=(
            _diffusion(grid, (GRAY_SCOTT_DU, GRAY_SCOTT_DV)),
            Partition("reaction", reaction_rhs, reaction_jac,
                      vjp=reaction_vjp, pointwise=True),
        ))

    coords = grid.unknown_coords()
    x, y_ = coords[:, 0], coords[:, 1]
    strip = (x >= 0.75) & (x <= 1.25)
    v0 = np.where(strip,
                  0.25 * np.sin(4.0 * math.pi * x) ** 2
                  * np.sin(4.0 * math.pi * y_) ** 2,
                  1.0)
    u0 = np.where(strip, 1.0 - 2.0 * v0, 0.0)

    return ProblemInstance(name="gray_scott", system=system, grid=grid,
                           y0=np.concatenate([u0, v0]), t0=0.0,
                           t_final=t_final,
                           goal=integral_goal(grid, num_species=2),
                           params={"feed": feed, "kill": kill,
                                   "t_final": t_final})


# --- bistable variable-diffusion problem -----------------------------------

_BSVD_CENTERS_Y = (0.6, 0.75, 0.9)


def bsvd_diffusivity(x, y):
    """Three Gaussian bumps of diffusivity along x = 0.5."""
    total = 0.0
    for yc in _BSVD_CENTERS_Y:
        total = total + np.exp(-100.0 * ((x - 0.5) ** 2 + (y - yc) ** 2))
    return 0.1 * total


def make_bsvd(grid: TensorGrid2D, t_final: float = 7.0) -> ProblemInstance:
    """Bistable front u_t = div(D grad u) + 10 (1 - u^2)(u + 0.6) on [0,1]^2
    with zero-flux edges and the diffusivity bumps of ``bsvd_diffusivity``."""
    _require_domain(grid, "bsvd")
    system = SplitOdeSystem(
        dim=grid.num_unknowns,
        partitions=(
            _diffusion(grid, coefficient=bsvd_diffusivity),
            _pointwise_reaction(
                lambda t, y: 10.0 * (1.0 - y * y) * (y + 0.6),
                lambda y: 10.0 * (1.0 - 1.2 * y - 3.0 * y * y)),
        ))

    coords = grid.unknown_coords()
    x, y_ = coords[:, 0], coords[:, 1]
    y0 = 2.0 * np.exp(-10.0 * ((x - 0.5) ** 2 + (y_ + 0.1) ** 2)) - 1.0

    return ProblemInstance(name="bsvd", system=system, grid=grid, y0=y0,
                           t0=0.0, t_final=t_final,
                           goal=integral_goal(grid),
                           params={"t_final": t_final})


# --- registry ---------------------------------------------------------------

PROBLEM_BUILDERS = {
    "calvo": make_calvo,
    "gray_scott": make_gray_scott,
    "bsvd": make_bsvd,
}


def default_grid(name: str, nx_cells: int, ny_cells: int) -> TensorGrid2D:
    (x0, x1), (y0, y1), bc = PROBLEM_DOMAINS[name]
    return TensorGrid2D.uniform(x0, x1, nx_cells, y0, y1, ny_cells, bc)


def build_problem(name: str, grid: TensorGrid2D, **params) -> ProblemInstance:
    if name not in PROBLEM_BUILDERS:
        raise KeyError(f"unknown problem {name!r}; "
                       f"choices: {sorted(PROBLEM_BUILDERS)}")
    return PROBLEM_BUILDERS[name](grid, **params)


def rebuild_on(problem: ProblemInstance, grid: TensorGrid2D) -> ProblemInstance:
    """Same problem family and parameters, new grid."""
    return build_problem(problem.name, grid, **problem.params)
