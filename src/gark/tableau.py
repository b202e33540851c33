"""Coefficient tables for generalized-structure additive Runge-Kutta methods.

A method acting on a P-way additive split y' = sum_q f^(q)(t, y) is described
by coupling matrices A^{q,m} (how the stages of partition q read the slopes of
partition m), one weight vector b^(q) per partition, and a stage schedule that
fixes the evaluation order across partitions.  GarkTableau.plan lists the
scheduled stages once with their nonzero couplings: the slopes each stage
reads (forward step, residuals) and the stages that read it (reverse sweep).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

SQRT2 = math.sqrt(2.0)
GAMMA_MINUS = 1.0 - SQRT2 / 2.0
GAMMA_PLUS = 1.0 + SQRT2 / 2.0
# validate() flags an order-condition or structure residual above this
VALIDATION_TOL = 1e-12


class InvalidParameterError(ValueError):
    """A tableau parameter is outside its admissible range."""


class UnsupportedTableauError(ValueError):
    """The tableau cannot be used for the requested operation."""


@dataclass(frozen=True)
class Violation:
    """One failed structural or order check."""

    name: str
    detail: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.name}: {v.detail} (|resid|={v.magnitude:.3e})"
                         for v in self.violations)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class PlannedStage(NamedTuple):
    """One scheduled stage (q, i) and the nonzero couplings around it.

    reads holds (m, j, a^{q,m}_{ij}) for the earlier stages this one reads,
    in schedule order; read_by holds (m, j, a^{m,q}_{ji}) for the later
    stages that read this one, in reverse schedule order.
    """

    q: int
    i: int
    c: float
    a_ii: float
    b: float
    reads: tuple
    read_by: tuple


@dataclass(frozen=True, eq=False)
class GarkTableau:
    """Coefficients of one generalized additive Runge-Kutta method.

    coupling[q][m] holds A^{q,m} with shape (s_q, s_m); weights[q] holds
    b^(q).  stage_schedule lists (partition, stage) pairs, 0-based, in the
    order the forward step evaluates them.
    """

    coupling: tuple[tuple[np.ndarray, ...], ...]
    weights: tuple[np.ndarray, ...]
    stage_schedule: tuple[tuple[int, int], ...]
    declared_order: int = 2
    internally_consistent: bool = True
    stiffly_accurate: bool = False

    def __post_init__(self):
        coupling = tuple(tuple(_freeze(a) for a in row) for row in self.coupling)
        weights = tuple(_freeze(b) for b in self.weights)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "stage_schedule",
                           tuple((int(q), int(i)) for q, i in self.stage_schedule))
        object.__setattr__(self, "_abscissae", tuple(
            tuple(_freeze(a.sum(axis=1)) for a in row) for row in coupling))

    @property
    def num_partitions(self) -> int:
        return len(self.weights)

    @property
    def stage_counts(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.weights)

    def abscissae(self, q: int, m: int | None = None) -> np.ndarray:
        """Row sums c^{q,m} = A^{q,m} 1, m defaulting to q; summed at build."""
        return self._abscissae[q][q if m is None else m]

    @cached_property
    def plan(self) -> tuple[PlannedStage, ...]:
        """The scheduled stages in order, built once; raises
        UnsupportedTableauError if a stage reads a slope scheduled later."""
        schedule = self.stage_schedule
        reads = [[] for _ in schedule]
        read_by = [[] for _ in schedule]
        for k, (q, i) in enumerate(schedule):
            for p, (m, j) in enumerate(schedule):
                a = float(self.coupling[q][m][i, j])
                if a == 0.0 or p == k:
                    continue
                if p > k:
                    raise UnsupportedTableauError(
                        f"stage ({q + 1},{i + 1}) needs slope ({m + 1},"
                        f"{j + 1}) which the schedule evaluates later")
                reads[k].append((m, j, a))
                read_by[p].insert(0, (q, i, a))  # later readers first
        return tuple(
            PlannedStage(q, i, float(self.abscissae(q)[i]),
                         float(self.coupling[q][q][i, i]),
                         float(self.weights[q][i]), tuple(reads[k]),
                         tuple(read_by[k]))
            for k, (q, i) in enumerate(schedule))

    @cached_property
    def last_stage_is_step(self) -> bool:
        """Whether the last scheduled stage carries the weights exactly: it
        reads (q, i, b) of every earlier stage with b != 0, in schedule
        order, and its own a_ii equals its b.  Its argument then sums the
        weighted slopes as the step's completion does, so an explicit or
        linear implicit last stage has the value y_{n+1} bitwise.  Stricter
        than validate()'s stiff-accuracy check, which allows
        VALIDATION_TOL."""
        if not self.plan:
            return False
        *earlier, last = self.plan
        return (last.a_ii == last.b and last.reads == tuple(
            (st.q, st.i, st.b) for st in earlier if st.b != 0.0))

    def validate(self) -> ValidationReport:
        """Check structure and order conditions; report, never raise."""
        bad: list[Violation] = []
        P = self.num_partitions
        counts = self.stage_counts

        for q in range(P):
            for m in range(P):
                a = self.coupling[q][m]
                if a.shape != (counts[q], counts[m]):
                    bad.append(Violation(
                        "shape", f"A^{{{q + 1},{m + 1}}} has shape {a.shape}, "
                        f"expected {(counts[q], counts[m])}", 0.0))

        for q in range(P):
            resid = abs(self.weights[q].sum() - 1.0)
            if resid > VALIDATION_TOL:
                bad.append(Violation(
                    "weight-sum", f"sum b^({q + 1}) != 1", resid))

        if self.declared_order >= 2:
            for q in range(P):
                for m in range(P):
                    resid = abs(self.weights[q] @ self.abscissae(q, m) - 0.5)
                    if resid > VALIDATION_TOL:
                        bad.append(Violation(
                            "order-2", f"b^({q + 1}) . c^({q + 1},{m + 1}) != 1/2",
                            resid))

        if self.internally_consistent:
            for q in range(P):
                c_own = self.abscissae(q, q)
                for m in range(P):
                    resid = float(np.max(np.abs(self.abscissae(q, m) - c_own),
                                         initial=0.0))
                    if resid > VALIDATION_TOL:
                        bad.append(Violation(
                            "internal-consistency",
                            f"c^({q + 1},{m + 1}) != c^({q + 1},{q + 1})", resid))

        expected = {(q, i) for q in range(P) for i in range(counts[q])}
        scheduled = set(self.stage_schedule)
        if scheduled != expected or len(self.stage_schedule) != len(expected):
            bad.append(Violation(
                "schedule", "stage schedule is not a permutation of all stages",
                float(len(expected.symmetric_difference(scheduled)))))
        else:
            try:
                self.plan
            except UnsupportedTableauError as err:
                bad.append(Violation("schedule-order", str(err), 1.0))

        if self.stiffly_accurate and self.stage_schedule:
            q_last, i_last = self.stage_schedule[-1]
            resid = 0.0
            for m in range(P):
                resid = max(resid, float(np.max(
                    np.abs(self.coupling[q_last][m][i_last, :] - self.weights[m]),
                    initial=0.0)))
            if resid > VALIDATION_TOL:
                bad.append(Violation(
                    "stiff-accuracy",
                    f"last scheduled stage ({q_last + 1},{i_last + 1}) row "
                    "does not equal the weights", resid))

        return ValidationReport(tuple(bad))

    def permute_partitions(self, perm: tuple[int, ...]) -> "GarkTableau":
        """Reorder partitions; perm[new_index] = old_index."""
        P = self.num_partitions
        if sorted(perm) != list(range(P)):
            raise InvalidParameterError(f"not a permutation of 0..{P - 1}: {perm}")
        inverse = [0] * P
        for new, old in enumerate(perm):
            inverse[old] = new
        coupling = tuple(tuple(self.coupling[perm[q]][perm[m]] for m in range(P))
                         for q in range(P))
        weights = tuple(self.weights[perm[q]] for q in range(P))
        schedule = tuple((inverse[q], i) for q, i in self.stage_schedule)
        return GarkTableau(coupling, weights, schedule,
                           declared_order=self.declared_order,
                           internally_consistent=self.internally_consistent,
                           stiffly_accurate=self.stiffly_accurate)


def adjoint_coefficients(tableau: GarkTableau) -> GarkTableau:
    """Transform forward coefficients into reversed-sweep coefficients.

    abar^{q,m}_{i,j} = b^(m)_j a^{m,q}_{j,i} / b^(q)_i and bbar = b, with
    the forward schedule reversed.  Every weight must be nonzero for the
    division to make sense.  Applying the transform twice recovers the
    original coefficients.  The result keeps the declared order but claims
    neither internal consistency nor stiff accuracy.
    """
    P = len(tableau.weights)
    for q in range(P):
        zero = np.nonzero(tableau.weights[q] == 0.0)[0]
        if zero.size:
            i = int(zero[0])
            raise UnsupportedTableauError(
                f"zero weight b^({q + 1})_{i + 1}: stage ({q + 1},{i + 1}) "
                "has no reversed-sweep form")
    coupling = tuple(
        tuple(np.diag(1.0 / tableau.weights[q]) @ tableau.coupling[m][q].T
              @ np.diag(tableau.weights[m]) for m in range(P))
        for q in range(P))
    weights = tuple(np.array(b, dtype=float) for b in tableau.weights)
    schedule = tuple(reversed(tableau.stage_schedule))
    return GarkTableau(coupling, weights, schedule,
                       declared_order=tableau.declared_order,
                       internally_consistent=False, stiffly_accurate=False)


def is_second_order_gamma(gamma: float) -> bool:
    """Whether gamma is GAMMA_MINUS or GAMMA_PLUS to within 1e-12, the two
    values for which build_imex22 is second order."""
    return any(math.isclose(gamma, root, rel_tol=0.0, abs_tol=1e-12)
               for root in (GAMMA_MINUS, GAMMA_PLUS))


def build_imex22(gamma: float = GAMMA_MINUS,
                 alpha: float | None = None) -> GarkTableau:
    """Two-stage implicit-explicit pair: partition 1 explicit, partition 2
    a stiffly accurate two-stage singly diagonally implicit scheme.

    Second order requires gamma = 1 +- sqrt(2)/2 (warned otherwise); alpha is
    free and defaults to gamma, which makes the two weight vectors equal.
    """
    if alpha is None:
        alpha = gamma
    if alpha == 0.0:
        raise InvalidParameterError("alpha must be nonzero")
    if not is_second_order_gamma(gamma):
        warnings.warn(f"gamma={gamma!r} does not satisfy the order-2 "
                      "condition 2*gamma - gamma^2 = 1/2", stacklevel=2)

    a_ee = np.array([[0.0, 0.0], [1.0 / (2.0 * alpha), 0.0]])
    a_ei = np.array([[0.0, 0.0], [1.0 / (2.0 * alpha), 0.0]])
    a_ie = np.array([[gamma, 0.0], [1.0 - alpha, alpha]])
    a_ii = np.array([[gamma, 0.0], [1.0 - gamma, gamma]])
    b_e = np.array([1.0 - alpha, alpha])
    b_i = np.array([1.0 - gamma, gamma])
    schedule = ((0, 0), (1, 0), (0, 1), (1, 1))
    return GarkTableau(coupling=((a_ee, a_ei), (a_ie, a_ii)),
                       weights=(b_e, b_i),
                       stage_schedule=schedule,
                       declared_order=2,
                       internally_consistent=True,
                       stiffly_accurate=True)
