import numpy as np
import pytest

from conftest import (
    lp_value_by_vertex_enumeration,
    random_bounded_lp,
    transport_value_by_vertex_enumeration,
)
from transportkit import lp
from transportkit.errors import NumericalBreakdown


def test_max_bounded_by_one():
    sol = lp.solve(lp.LinearProgram([1.0], "max", [[1.0]], [lp.LE], [1.0]))
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(1.0)
    assert sol.primal[0] == pytest.approx(1.0)


def test_infeasible_with_farkas():
    sol = lp.solve(lp.LinearProgram([1.0], "max", [[1.0]], [lp.LE], [-1.0]))
    assert sol.status == lp.INFEASIBLE
    y = sol.farkas
    # certificate: y on <= row is <= 0, combination nonpositive on x >= 0,
    # and strictly positive against the rhs
    assert y[0] <= 1e-12
    assert y[0] * 1.0 <= 1e-12
    assert y @ [-1.0] > 0


def test_transport_2x2_matches_enumeration():
    # (unif{0,2}, unif{1,3}, |x - y|): two polytope vertices, costs 1 and 2
    C = np.array([[1.0, 3.0], [1.0, 1.0]])
    oracle = transport_value_by_vertex_enumeration(
        [0.5, 0.5], [0.5, 0.5], C)
    assert oracle == pytest.approx(1.0)
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    sol = lp.solve(lp.LinearProgram(C.ravel(), "min", A, [lp.EQ] * 4,
                                    [0.5, 0.5, 0.5, 0.5]))
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(oracle, abs=1e-10)


def test_feasibility_examples():
    r = lp.check_feasibility([[1.0]], [lp.EQ], [1.0])
    assert r.feasible and r.primal[0] == pytest.approx(1.0)

    r2 = lp.check_feasibility([[1.0], [1.0]], [lp.LE, lp.GE], [0.0, 1.0])
    assert not r2.feasible
    y = r2.certificate
    assert y @ [0.0, 1.0] > 0
    assert y[0] + y[1] <= 1e-12  # combination against x


def test_feasibility_martingale_system():
    # coupling system for (half at -1 and 1) below (quarter/half/quarter at
    # -2, 0, 2): six unknowns, unique solution
    mu_pts, nu_pts = [-1.0, 1.0], [-2.0, 0.0, 2.0]
    A = np.zeros((7, 6))
    A[:5] = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 1, 0, 0],
             [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    for i, x in enumerate(mu_pts):
        A[5 + i, 3 * i:3 * i + 3] = np.array(nu_pts) - x
    b = [0.5, 0.5, 0.25, 0.5, 0.25, 0.0, 0.0]
    r = lp.check_feasibility(A, [lp.EQ] * 7, b)
    assert r.feasible
    expected = np.array([0.25, 0.25, 0.0, 0.0, 0.25, 0.25])
    assert np.allclose(r.primal, expected, atol=1e-10)


def test_strong_duality_on_random_lps():
    rng = np.random.default_rng(123)
    for _ in range(100):
        prog = random_bounded_lp(rng, max_vars=8, max_rows=8)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        dual_obj = float(prog.b @ sol.dual)
        assert abs(sol.value - dual_obj) <= 1e-8 * (1 + abs(sol.value))
        assert sol.residuals["primal"] <= 1e-8
        assert sol.residuals["dual"] <= 1e-8
        assert sol.residuals["complementary_slackness"] <= 1e-8


def test_oracle_equivalence_small_lps():
    rng = np.random.default_rng(77)
    for _ in range(100):
        prog = random_bounded_lp(rng, max_vars=6, max_rows=6)
        sol = lp.solve(prog)
        oracle = lp_value_by_vertex_enumeration(prog)
        assert sol.status == lp.OPTIMAL
        assert abs(sol.value - oracle) <= 1e-7 * (1 + abs(oracle))


def test_determinism_bitwise():
    rng = np.random.default_rng(9)
    prog = random_bounded_lp(rng, max_vars=7, max_rows=7)
    a = lp.solve(prog)
    b = lp.solve(prog)
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.dual.tobytes() == b.dual.tobytes()


def test_unbounded_detection():
    sol = lp.solve(lp.LinearProgram([1.0, 0.0], "max", [[0.0, 1.0]],
                                    [lp.LE], [1.0]))
    assert sol.status == lp.UNBOUNDED


def test_free_variables_hidden_split():
    # x is free, so min 2x + y with x + y = 3 drives x down to its row
    # bound x >= -2; the internal positive split must stay invisible
    sol = lp.solve(lp.LinearProgram([2.0, 1.0], "min",
                                    [[1.0, 1.0], [1.0, 0.0]],
                                    [lp.EQ, lp.GE], [3.0, -2.0],
                                    free=[True, False]))
    assert sol.status == lp.OPTIMAL
    assert sol.primal[0] == pytest.approx(-2.0)
    assert sol.primal[1] == pytest.approx(5.0)


def test_iteration_cap_raises_breakdown():
    rng = np.random.default_rng(31)
    prog = random_bounded_lp(rng, max_vars=8, max_rows=8)
    tiny = lp.SolverConfig(max_iterations=1)
    with pytest.raises(NumericalBreakdown):
        lp.solve(prog, tiny)


def test_equality_redundancy_is_tolerated():
    # row sums and column sums of a transport polytope are linearly
    # dependent; the solver must drop the redundant row, not fail
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    sol = lp.solve(lp.LinearProgram([0.0, 1.0, 1.0, 0.0], "min", A,
                                    [lp.EQ] * 4, [0.5, 0.5, 0.4, 0.6]))
    assert sol.status == lp.OPTIMAL
    # diagonal keeps min(.5,.4) + min(.5,.6); 0.1 must move off-diagonal
    assert sol.value == pytest.approx(0.1, abs=1e-12)
    assert sol.dual.size == 4


def test_farkas_certificate_properties_random():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        A = rng.uniform(-1, 1, size=(3, n))
        b = rng.uniform(-1, 1, size=3)
        res = lp.check_feasibility(A, [lp.LE, lp.GE, lp.EQ], b)
        if res.feasible:
            Ax = A @ res.primal
            assert Ax[0] <= b[0] + 1e-8
            assert Ax[1] >= b[1] - 1e-8
            assert abs(Ax[2] - b[2]) <= 1e-8
            assert np.all(res.primal >= -1e-9)
        else:
            y = res.certificate
            checked += 1
            assert y @ b > 0
            assert y[0] <= 1e-10          # <= row multiplier
            assert y[1] >= -1e-10         # >= row multiplier
            comb = A.T @ y
            assert np.max(comb) <= 1e-8   # nonpositive on x >= 0
    assert checked > 10


_GOOD = {"A": np.ones((2, 4)), "rels": [lp.LE, lp.GE], "b": [1.0, 0.0],
         "free": None}
_BAD_INPUTS = {
    "b_longer_than_A_and_rels": {"b": [1.0, 0.0, 2.0]},
    "rels_longer_than_A_and_b": {"rels": [lp.LE, lp.GE, lp.EQ]},
    "A_has_an_extra_row": {"A": np.ones((3, 4))},
    "unknown_relation": {"rels": [lp.LE, "<"]},
    "nan_rhs": {"b": [1.0, np.nan]},
    "infinite_rhs": {"b": [np.inf, 0.0]},
    "free_mask_too_short": {"free": [True, False, False]},
    "transposed_single_row": {"A": np.ones((4, 1)), "rels": [lp.LE],
                              "b": [1.0]},
    "flat_row": {"A": np.ones(4), "rels": [lp.LE], "b": [1.0]},
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_matrix_inputs_raise(case):
    bad = {**_GOOD, **_BAD_INPUTS[case]}
    with pytest.raises(ValueError):
        lp.LinearProgram(np.zeros(4), "min", bad["A"], bad["rels"],
                         bad["b"], bad["free"])
    with pytest.raises(ValueError):
        lp.check_feasibility(bad["A"], bad["rels"], bad["b"], bad["free"])


def test_matrix_of_right_size_but_wrong_shape_raises():
    # 2 x 2 holds the 4 entries of a 1 x 4 row; reshaping it would hide
    # the mistake, so the shape must match exactly
    with pytest.raises(ValueError):
        lp.LinearProgram(np.zeros(4), "min", np.ones((2, 2)), [lp.LE],
                         [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram(np.zeros(4), "min", np.ones((2, 2)),
                         [lp.LE, lp.LE], [1.0, 1.0])
    prog = lp.LinearProgram(np.zeros(4), "min", _GOOD["A"], _GOOD["rels"],
                            _GOOD["b"])
    assert (prog.n_rows, prog.n_vars) == (2, 4)


def _residual_report_by_loops(prog, sol):
    """The row-by-row and variable-by-variable form of residual_report."""
    A, rels, b = prog.A, prog.rels, prog.b
    x, y = sol.primal, sol.dual
    ax = A @ x
    primal = dual_sign = cs_rows = 0.0
    sense_max = prog.sense == "max"
    for i, rel in enumerate(rels):
        gap = ax[i] - b[i]
        if rel == lp.LE:
            primal = max(primal, gap)
            dual_sign = max(dual_sign, y[i] if not sense_max else -y[i])
        elif rel == lp.GE:
            primal = max(primal, -gap)
            dual_sign = max(dual_sign, -y[i] if not sense_max else y[i])
        else:
            primal = max(primal, abs(gap))
        cs_rows = max(cs_rows, abs(y[i] * gap))
    primal = max(primal, float(np.max(-x[~prog.free], initial=0.0)))
    r = prog.objective - A.T @ y
    if sense_max:
        r = -r
    dual_red = cs_vars = 0.0
    for j in range(prog.n_vars):
        if prog.free[j]:
            dual_red = max(dual_red, abs(r[j]))
        else:
            dual_red = max(dual_red, -r[j])
            cs_vars = max(cs_vars, abs(x[j] * r[j]))
    gap = abs(float(prog.objective @ x) - float(b @ y))
    return {"primal": float(primal), "dual": float(max(dual_sign, dual_red)),
            "gap": float(gap),
            "complementary_slackness": float(max(cs_rows, cs_vars))}


def test_residual_report_matches_row_loops():
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 7))
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        rels = rng.choice([lp.LE, lp.EQ, lp.GE], size=m)
        free = rng.random(n) < 0.4
        x0 = rng.uniform(-1.0, 1.0, size=n)
        x0[~free] = np.abs(x0[~free])
        slack = rng.uniform(0.0, 1.0, size=m)
        b = A @ x0 + np.where(rels == lp.LE, slack,
                              np.where(rels == lp.GE, -slack, 0.0))
        prog = lp.LinearProgram(rng.uniform(-1.0, 1.0, size=n),
                                str(rng.choice(["min", "max"])), A, rels, b,
                                free)
        # arbitrary points reach every branch with nonzero residuals
        probe = lp.LpSolution(lp.OPTIMAL, primal=rng.normal(size=n),
                              dual=rng.normal(size=m))
        assert lp.residual_report(prog, probe) == \
            _residual_report_by_loops(prog, probe)
        sol = lp.solve(prog)
        if sol.status == lp.OPTIMAL:
            solved += 1
            assert sol.residuals == _residual_report_by_loops(prog, sol)
    assert solved > 50
