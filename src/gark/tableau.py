"""Coefficient tables for generalized-structure additive Runge-Kutta methods.

A method acting on a P-way additive split y' = sum_q f^(q)(t, y) is described
by coupling matrices A^{q,m} (how the stages of partition q read the slopes of
partition m), one weight vector b^(q) per partition, and a stage schedule that
fixes the evaluation order across partitions; every other property is
computed once from these and the order.  GarkTableau.plan lists the
scheduled stages once with their nonzero couplings: the slopes each stage
reads (forward step, residuals) and the stages that read it (reverse sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# build_imex22's gamma, a root of the order-2 condition 2 gamma - gamma^2 = 1/2
GAMMA_MINUS = 1.0 - math.sqrt(2.0) / 2.0
# validate() flags an order-condition or structure residual above this
VALIDATION_TOL = 1e-12


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

    @property
    def value_terms(self) -> tuple:
        """The terms of the stage value Y = y_n + h sum a k: reads, then
        (q, i, a_ii) when a_ii != 0."""
        own = ((self.q, self.i, self.a_ii),) if self.a_ii != 0.0 else ()
        return self.reads + own


@dataclass(frozen=True, eq=False)
class GarkTableau:
    """Coefficients of one generalized additive Runge-Kutta method.

    coupling[q][m] holds A^{q,m} with shape (s_q, s_m); weights[q] holds
    b^(q).  stage_schedule lists (partition, stage) pairs, 0-based, in the
    order the forward step evaluates them.  Partition q of a tableau is
    partition q of every system it integrates.
    """

    coupling: tuple[tuple[np.ndarray, ...], ...]
    weights: tuple[np.ndarray, ...]
    stage_schedule: tuple[tuple[int, int], ...]
    declared_order: int = 2

    def __post_init__(self):
        coupling = tuple(tuple(_freeze(a) for a in row) for row in self.coupling)
        weights = tuple(_freeze(b) for b in self.weights)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "stage_schedule",
                           tuple((int(q), int(i)) for q, i in self.stage_schedule))
        # validate() reports NaN and infinite coefficients; their sums
        # would only warn here first
        with np.errstate(invalid="ignore", over="ignore"):
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
    def implicit_partitions(self) -> tuple[int, ...]:
        """The partitions, in order, whose A^{q,q} has a nonzero diagonal."""
        return tuple(q for q in range(self.num_partitions)
                     if np.any(np.diag(self.coupling[q][q]) != 0.0))

    @cached_property
    def step_terms(self) -> tuple:
        """(q, i, b^(q)_i) of every scheduled stage with b != 0, in schedule
        order: the terms of y_{n+1} = y_n + h sum b k."""
        return tuple((st.q, st.i, st.b) for st in self.plan if st.b != 0.0)

    @cached_property
    def last_stage_is_step(self) -> bool:
        """Whether the last scheduled stage carries the weights exactly: the
        terms of its value are step_terms, so it reads (q, i, b) of every
        earlier stage with b != 0, in schedule order, and its own a_ii
        equals its b.  An explicit or linear implicit last stage then has
        the value y_{n+1} bitwise.  This exact test is the tableau's one
        notion of stiff accuracy."""
        return bool(self.plan) and self.plan[-1].value_terms == self.step_terms

    @np.errstate(invalid="ignore", over="ignore")
    def validate(self) -> ValidationReport:
        """Check structure and order conditions; report, never raise (nor
        warn on the residuals that NaN or infinite coefficients spoil)."""
        bad: list[Violation] = []
        P = self.num_partitions
        counts = self.stage_counts

        shaped = set(range(P))  # partitions whose couplings all fit
        for q in range(P):
            for m in range(P):
                a = self.coupling[q][m]
                if a.shape != (counts[q], counts[m]):
                    shaped.discard(q)
                    bad.append(Violation(
                        "shape", f"A^{{{q + 1},{m + 1}}} has shape {a.shape}, "
                        f"expected {(counts[q], counts[m])}", 0.0))

        arrays = [a for row in self.coupling for a in row] + [*self.weights]
        non_finite = sum(np.count_nonzero(~np.isfinite(a)) for a in arrays)
        if non_finite:
            bad.append(Violation("non-finite", f"{non_finite} coefficients "
                                 "are NaN or infinite", float(non_finite)))

        # every residual test reads `not resid <= tol`, which a NaN fails
        for q in range(P):
            resid = abs(self.weights[q].sum() - 1.0)
            if not resid <= VALIDATION_TOL:
                bad.append(Violation(
                    "weight-sum", f"sum b^({q + 1}) != 1", resid))

        # the abscissae of a misshapen partition fit none of its vectors
        if self.declared_order >= 2:
            for q in sorted(shaped):
                for m in range(P):
                    resid = abs(self.weights[q] @ self.abscissae(q, m) - 0.5)
                    if not resid <= VALIDATION_TOL:
                        bad.append(Violation(
                            "order-2", f"b^({q + 1}) . c^({q + 1},{m + 1}) != 1/2",
                            resid))

        for q in sorted(shaped):
            c_own = self.abscissae(q, q)
            for m in range(P):
                resid = float(np.max(np.abs(self.abscissae(q, m) - c_own),
                                     initial=0.0))
                if m != q and not resid <= VALIDATION_TOL:
                    bad.append(Violation(
                        "internal-consistency",
                        f"c^({q + 1},{m + 1}) != c^({q + 1},{q + 1})", resid))

        expected = {(q, i) for q in range(P) for i in range(counts[q])}
        scheduled = set(self.stage_schedule)
        if scheduled != expected or len(self.stage_schedule) != len(expected):
            bad.append(Violation(
                "schedule", "stage schedule is not a permutation of all stages",
                float(len(expected.symmetric_difference(scheduled)))))
        elif len(shaped) == P:
            try:
                self.plan
            except UnsupportedTableauError as err:
                bad.append(Violation("schedule-order", str(err), 1.0))

        return ValidationReport(tuple(bad))


def build_imex22() -> GarkTableau:
    """Two-stage implicit-explicit pair: partition 1 is the stiffly
    accurate two-stage singly diagonally implicit scheme (implicit),
    partition 2 explicit, the order in which every problem lists its
    stiff partition and the rest.

    gamma = GAMMA_MINUS, and both partitions carry the weights
    (1 - gamma, gamma), so the implicit stages read the explicit slopes
    with the implicit scheme's coefficients.
    """
    g = GAMMA_MINUS
    a_e = np.array([[0.0, 0.0], [1.0 / (2.0 * g), 0.0]])
    a_i = np.array([[g, 0.0], [1.0 - g, g]])
    b = np.array([1.0 - g, g])
    schedule = ((1, 0), (0, 0), (1, 1), (0, 1))
    return GarkTableau(coupling=((a_i, a_i), (a_e, a_e)),
                       weights=(b, b),
                       stage_schedule=schedule,
                       declared_order=2)
