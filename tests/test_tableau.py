import math
import re

import numpy as np
import pytest

from gark.tableau import (GAMMA_MINUS, GAMMA_PLUS, GarkTableau,
                          InvalidParameterError, UnsupportedTableauError,
                          adjoint_coefficients, build_imex22)

SQRT2 = math.sqrt(2.0)


def test_gamma_branches():
    assert GAMMA_MINUS == pytest.approx(0.2928932188134524, abs=1e-15)
    assert GAMMA_PLUS == pytest.approx(1.7071067811865476, abs=1e-15)
    for g in (GAMMA_MINUS, GAMMA_PLUS):
        assert abs(2.0 * g - g * g - 0.5) < 1e-14


def test_imex22_default_coefficients():
    g = GAMMA_MINUS
    t = build_imex22()
    a_ee, a_ei = t.coupling[0]
    a_ie, a_ii = t.coupling[1]
    np.testing.assert_allclose(a_ee, [[0.0, 0.0], [1.0 / (2.0 * g), 0.0]],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(a_ei, a_ee, rtol=0, atol=0)
    np.testing.assert_allclose(a_ie, [[g, 0.0], [1.0 - g, g]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(a_ii, [[g, 0.0], [1.0 - g, g]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(t.weights[0], [1.0 - g, g], rtol=0, atol=1e-15)
    np.testing.assert_allclose(t.weights[1], [1.0 - g, g], rtol=0, atol=1e-15)
    assert t.stage_schedule == ((0, 0), (1, 0), (0, 1), (1, 1))
    # second explicit abscissa sits beyond the step end for this gamma
    assert t.abscissae(0)[1] == pytest.approx(1.0 + SQRT2 / 2.0, abs=1e-14)
    np.testing.assert_allclose(t.abscissae(1), [g, 1.0], rtol=0, atol=1e-15)


def test_abscissae_are_summed_once_and_frozen():
    t = build_imex22(alpha=0.37)
    for q in range(2):
        for m in (None, 0, 1):
            first, again = t.abscissae(q, m), t.abscissae(q, m)
            np.testing.assert_array_equal(first, again)
            np.testing.assert_array_equal(
                first, t.coupling[q][q if m is None else m].sum(axis=1))
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0


def test_imex22_alpha_half():
    t = build_imex22(alpha=0.5)
    assert t.coupling[0][0][1, 0] == pytest.approx(1.0, abs=0.0)
    np.testing.assert_allclose(t.weights[0], [0.5, 0.5], rtol=0, atol=0)


@pytest.mark.parametrize("gamma", [GAMMA_MINUS, GAMMA_PLUS])
@pytest.mark.parametrize("alpha", [None, 0.5, 0.31])
def test_imex22_validates(gamma, alpha):
    t = build_imex22(gamma, alpha)
    report = t.validate()
    assert report.ok, str(report)


def test_imex22_order_two_sums():
    t = build_imex22(alpha=0.37)
    for q in range(2):
        assert t.weights[q].sum() == pytest.approx(1.0, abs=1e-14)
        for m in range(2):
            assert t.weights[q] @ t.abscissae(q, m) == pytest.approx(0.5, abs=1e-14)


def test_imex22_stiff_accuracy_row():
    t = build_imex22(alpha=0.41)
    q_last, i_last = t.stage_schedule[-1]
    assert (q_last, i_last) == (1, 1)
    for m in range(2):
        np.testing.assert_allclose(t.coupling[q_last][m][i_last, :],
                                   t.weights[m], rtol=0, atol=1e-14)


def test_imex22_zero_alpha_rejected():
    with pytest.raises(InvalidParameterError):
        build_imex22(alpha=0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_imex22_non_finite_alpha_rejected(alpha):
    with pytest.raises(InvalidParameterError,
                       match="alpha must be nonzero and finite"):
        build_imex22(alpha=alpha)


def test_imex22_order_breaking_gamma_fails_order_two():
    report = build_imex22(gamma=0.3).validate()
    assert {v.name for v in report.violations} == {"order-2"}


@pytest.mark.parametrize("gamma", [GAMMA_MINUS, GAMMA_PLUS, 0.3, 0.5, 1.0,
                                   GAMMA_MINUS + 1e-12])
@pytest.mark.parametrize("alpha", [-2.5, 1e-8, 0.31, 0.5, 1.0, 40.1,
                                   1234.567])
def test_imex22_validity_rests_on_gamma_alone(gamma, alpha):
    # any finite, nonzero alpha keeps the weight sums, internal consistency
    # and partition 1's order-2 conditions: the report is gamma's
    def violations(tableau):
        return [(v.name, v.detail) for v in tableau.validate().violations]

    found = violations(build_imex22(gamma, alpha))
    assert found == violations(build_imex22(gamma))
    assert all(name == "order-2" and detail.startswith("b^(2)")
               for name, detail in found)
    assert (not found) == (gamma in (GAMMA_MINUS, GAMMA_PLUS))


EVERY_RESIDUAL = {"non-finite", "weight-sum", "order-2",
                  "internal-consistency"}


@pytest.mark.parametrize("gamma, alpha, names", [
    (math.nan, 0.5, EVERY_RESIDUAL), (math.inf, 0.5, EVERY_RESIDUAL),
    (GAMMA_MINUS, 1e-320, EVERY_RESIDUAL - {"weight-sum"})],
    ids=["gamma-nan", "gamma-inf", "alpha-overflow"])
def test_validate_flags_non_finite_coefficients(gamma, alpha, names):
    # each `resid > tol` test is false for NaN: the entries are flagged
    # as such, and so is every residual they spoil
    report = build_imex22(gamma, alpha).validate()
    assert {v.name for v in report.violations} == names
    # a NaN differs from itself, yet no check compares a vector with itself
    assert not [v.detail for v in report.violations
                if re.fullmatch(r"(\S+) != \1", v.detail)]


def test_validate_reports_weight_sum_violation():
    t = build_imex22()
    bad = GarkTableau(t.coupling,
                      (t.weights[0] + 0.05, t.weights[1]),
                      t.stage_schedule, declared_order=1)
    report = bad.validate()
    names = {v.name for v in report.violations}
    assert "weight-sum" in names
    resid = next(v.magnitude for v in report.violations if v.name == "weight-sum")
    assert resid == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("block", [np.eye(3), np.eye(1)], ids=["3x3", "1x1"])
def test_validate_reports_a_misshapen_coupling(block):
    # the order and consistency sums of a misshapen partition would not
    # line up; validate() names the shape and skips them
    t = build_imex22()
    coupling = (t.coupling[0], (t.coupling[1][0], block))
    report = GarkTableau(coupling, t.weights, t.stage_schedule).validate()
    assert not report.ok
    assert [v.name for v in report.violations] == ["shape"]
    assert f"A^{{2,2}} has shape {block.shape}, expected (2, 2)" in str(report)


def test_validate_reports_schedule_cycle():
    t = build_imex22()
    # (E,2) reads (I,1); scheduling (I,1) after (E,2) breaks the ordering
    bad = GarkTableau(t.coupling, t.weights, ((0, 0), (0, 1), (1, 0), (1, 1)),
                      declared_order=2)
    report = bad.validate()
    assert any(v.name == "schedule-order" for v in report.violations)


def test_validate_reports_incomplete_schedule():
    t = build_imex22()
    bad = GarkTableau(t.coupling, t.weights, ((0, 0), (1, 0), (0, 1), (0, 1)))
    report = bad.validate()
    assert any(v.name == "schedule" for v in report.violations)


def test_adjoint_weights_equal_forward_weights():
    t = build_imex22(alpha=0.45)
    adj = adjoint_coefficients(t)
    for q in range(2):
        np.testing.assert_allclose(adj.weights[q], t.weights[q], rtol=0, atol=0)


def test_adjoint_coefficient_values():
    g = GAMMA_MINUS
    adj = adjoint_coefficients(build_imex22())
    # abar^{E,E}_{1,2} = b^E_2 a^{EE}_{2,1} / b^E_1 = 1 / (2 (1 - gamma))
    assert adj.coupling[0][0][0, 1] == pytest.approx(0.7071067811865475, abs=1e-15)
    # abar^{I,I}_{2,2} keeps the diagonal entry
    assert adj.coupling[1][1][1, 1] == pytest.approx(g, abs=1e-15)
    # reversed evaluation order
    assert adj.stage_schedule == ((1, 1), (0, 1), (1, 0), (0, 0))


def test_adjoint_transform_matches_definition():
    t = build_imex22(alpha=0.39)
    adj = adjoint_coefficients(t)
    for q in range(2):
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    expect = (t.weights[m][j] * t.coupling[m][q][j, i]
                              / t.weights[q][i])
                    assert adj.coupling[q][m][i, j] == pytest.approx(
                        expect, abs=1e-15)


def test_adjoint_transform_is_involutive():
    t = build_imex22(alpha=0.47)
    back = adjoint_coefficients(adjoint_coefficients(t))
    for q in range(2):
        for m in range(2):
            np.testing.assert_allclose(back.coupling[q][m], t.coupling[q][m],
                                       rtol=0, atol=1e-14)
    assert back.stage_schedule == t.stage_schedule


@pytest.mark.parametrize("alpha", [None, 0.39, 0.47])
def test_adjoint_tableau_validates(alpha):
    # the reversed sweep keeps the weights, the order and a usable
    # schedule; its abscissae differ across the partitions it reads
    adj = adjoint_coefficients(build_imex22(alpha=alpha))
    assert isinstance(adj, GarkTableau)
    found = {(v.name, v.detail) for v in adj.validate().violations}
    assert found == {
        ("internal-consistency", "c^(1,2) != c^(1,1)"),
        ("internal-consistency", "c^(2,1) != c^(2,2)")}


def test_adjoint_rejects_zero_weight():
    t = build_imex22()
    crooked = GarkTableau(t.coupling, (np.array([1.0, 0.0]), t.weights[1]),
                          t.stage_schedule, declared_order=1)
    with pytest.raises(UnsupportedTableauError, match=r"\(1,2\)"):
        adjoint_coefficients(crooked)


def test_implicit_partitions():
    t = build_imex22()
    assert t.implicit_partitions == (1,)
    assert t.implicit_partitions is t.implicit_partitions
    assert t.permute_partitions((1, 0)).implicit_partitions == (0,)
    # the reversed sweep keeps the diagonal of A^{2,2}
    assert adjoint_coefficients(t).implicit_partitions == (1,)


def test_permute_partitions_round_trip_and_validity():
    t = build_imex22(alpha=0.52)
    p = t.permute_partitions((1, 0))
    assert p.validate().ok
    # the implicit scheme now sits in partition 1
    stages = {(st.q, st.i): st for st in p.plan}
    assert stages[(0, 0)].a_ii != 0.0 and stages[(1, 0)].a_ii == 0.0
    np.testing.assert_array_equal(p.coupling[0][0], t.coupling[1][1])
    np.testing.assert_array_equal(p.coupling[0][1], t.coupling[1][0])
    assert p.stage_schedule == ((1, 0), (0, 0), (1, 1), (0, 1))
    back = p.permute_partitions((1, 0))
    for q in range(2):
        for m in range(2):
            np.testing.assert_array_equal(back.coupling[q][m], t.coupling[q][m])
    assert back.stage_schedule == t.stage_schedule


@pytest.mark.parametrize("tableau", [
    build_imex22(), build_imex22(alpha=0.33),
    build_imex22(alpha=0.33).permute_partitions((1, 0))],
    ids=["equal-weights", "unequal-weights", "permuted"])
def test_stage_plan_lists_the_nonzero_couplings(tableau):
    plan = tableau.plan
    assert plan is tableau.plan
    schedule = tableau.stage_schedule
    assert [(st.q, st.i) for st in plan] == list(schedule)
    for k, st in enumerate(plan):
        q, i = st.q, st.i
        assert st.c == tableau.abscissae(q)[i]
        assert st.a_ii == tableau.coupling[q][q][i, i]
        assert st.b == tableau.weights[q][i]
        # reads: earlier stages in schedule order; read_by: later stages in
        # reverse schedule order
        assert st.reads == tuple(
            (m, j, tableau.coupling[q][m][i, j]) for m, j in schedule[:k]
            if tableau.coupling[q][m][i, j] != 0.0)
        assert st.read_by == tuple(
            (m, j, tableau.coupling[m][q][j, i])
            for m, j in reversed(schedule[k + 1:])
            if tableau.coupling[m][q][j, i] != 0.0)
    # read_by is exactly the transpose of reads
    reads = {((st.q, st.i), (m, j), a) for st in plan for m, j, a in st.reads}
    read_by = {((m, j), (st.q, st.i), a)
               for st in plan for m, j, a in st.read_by}
    assert reads == read_by
    assert sum(len(st.reads) for st in plan) == len(reads) > 0
