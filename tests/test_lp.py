import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    kernel_pairs,
    lp_value_by_vertex_enumeration,
    planar_spread_pair,
    random_bounded_lp,
    split_free,
    transport_value_by_vertex_enumeration,
    with_slacks,
)
from transportkit import lp
from transportkit.convex_order import (
    _farkas_witness,
    _martingale_rows,
    _martingale_start,
    convex_order_check,
)
from transportkit.errors import NumericalBreakdown
from transportkit.measures import cost_from_json, new_measure
from transportkit.mot import mot_primal
from transportkit.ot import kantorovich_primal


def test_max_bounded_by_one():
    # max x s.t. x <= 1 is min -x, of value -1
    sol = lp.solve(*with_slacks([-1.0], [[1.0]], ["<="], [1.0]))
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(-1.0)
    assert sol.primal[0] == pytest.approx(1.0)


def test_infeasible_with_farkas():
    sol = lp.solve(*with_slacks([-1.0], [[1.0]], ["<="], [-1.0]))
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
    sol = lp.solve(lp.LinearProgram(C.ravel(), A, [0.5, 0.5, 0.5, 0.5]))
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(oracle, abs=1e-10)


def test_feasibility_examples():
    r = lp.check_feasibility([[1.0]], [1.0])
    assert r.status == lp.OPTIMAL and r.primal[0] == pytest.approx(1.0)

    prog, start = with_slacks(None, [[1.0], [1.0]], ["<=", ">="], [0.0, 1.0])
    r2 = lp.check_feasibility(prog.A, prog.b, start)
    assert r2.status == lp.INFEASIBLE
    y = r2.farkas
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
    r = lp.check_feasibility(A, b)
    assert r.status == lp.OPTIMAL
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
        res = lp.residual_report(prog, sol)
        assert res["primal"] <= 1e-8
        assert res["dual"] <= 1e-8
        assert res["complementary_slackness"] <= 1e-8


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


def _beale_lp():
    c = [-0.75, 20.0, -0.5, 6.0]
    A = [[0.25, -8.0, -1.0, 9.0],
         [0.5, -12.0, -0.5, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    return with_slacks(c, A, ["<="] * 3, [0.0, 0.0, 1.0])


def test_beale_cycling_lp():
    # Beale (1955): most-negative-reduced-cost entering with a smallest-index
    # tie-break among the tied ratios cycles forever from the slack basis;
    # the lexicographic leaving rule must reach the optimum instead
    prog, start = _beale_lp()
    sol = lp.solve(prog, basis=start)
    assert sol.status == lp.OPTIMAL
    assert sol.value == -1.25
    assert sol.primal[:4].tolist() == [1.0, 0.0, 1.0, 0.0]
    res = lp.residual_report(prog, sol)
    assert all(v == 0.0 for v in res.values()), res


@st.composite
def tie_heavy_lps(draw):
    """Small <= LPs with many ties, with their slack starts:
    integer-lattice coefficients, costs all equal or on a lattice,
    duplicated (redundant) rows, and a simplex cap that keeps them
    bounded. Some rhs are negative, so phase 1 pivots and some instances
    are infeasible. Half the objectives are negated: min -c is the
    maximum of c."""
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                  max_size=n), min_size=1, max_size=3))
    rhs = draw(st.lists(st.integers(-1, 3), min_size=len(rows),
                        max_size=len(rows)))
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(rows[k])
        rhs.append(rhs[k])
    rows.append([1] * n)
    rhs.append(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        c = [draw(st.sampled_from([-1, 1]))] * n
    else:
        c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return with_slacks(sign * np.array(c, dtype=float), rows,
                       ["<="] * len(rows), rhs)


@given(tie_heavy_lps())
def test_tie_heavy_lps_match_vertex_enumeration(case):
    prog, start = case
    sol = lp.solve(prog, basis=start)
    again = lp.solve(prog, basis=start)
    oracle = lp_value_by_vertex_enumeration(prog)
    if np.isinf(oracle):
        # no feasible vertex: the Farkas ray must prove emptiness
        assert sol.status == lp.INFEASIBLE
        y = sol.farkas
        assert y @ prog.b > 0
        assert y.max() <= 1e-10
        assert (prog.A.T @ y).max() <= 1e-8
        assert y.tobytes() == again.farkas.tobytes()
        return
    assert sol.status == lp.OPTIMAL
    assert abs(sol.value - oracle) <= 1e-9 * (1 + abs(oracle))
    assert abs(sol.value - prog.b @ sol.dual) <= 1e-9 * (1 + abs(oracle))
    res = lp.residual_report(prog, sol)
    assert max(res.values()) <= 1e-9, res
    assert sol.value == again.value
    assert sol.primal.tobytes() == again.primal.tobytes()
    assert sol.dual.tobytes() == again.dual.tobytes()


def test_iterations_count_pivots():
    # Beale's LP starts from its slack basis and takes two phase-2 pivots
    prog, start = _beale_lp()
    assert lp.solve(prog, basis=start).iterations == 2
    # x1 = x2 = x3 starts feasible with two artificials at level 0; the
    # two pivots that drive them out are the only pivots of the solve
    prog, start = with_slacks(
        [1.0, 1.0, 1.0], [[1, -1, 0], [0, 1, -1], [1, 1, 1]],
        ["==", "==", "<="], [0.0, 0.0, 1.0])
    sol = lp.solve(prog, basis=start)
    assert sol.status == lp.OPTIMAL and sol.value == 0.0
    assert sol.iterations == 2


def test_devex_tie_goes_to_smallest_index(monkeypatch):
    # min -x0 + 4 x1 - 3 x2 s.t. -2 x1 + x2 <= 1, x0 + x1 <= 1, from the
    # slack basis. x2 enters first (z^2 / w = 9 against 1); its pivot row
    # has -2 under x1, so x1's reference weight becomes 4. Then x0 prices
    # (-1)^2 / 1 and x1 prices (-2)^2 / 4: a tie, which the smaller index
    # wins, where the most negative reduced cost would take x1
    prog, start = with_slacks([-1.0, 4.0, -3.0],
                              [[0.0, -2.0, 1.0], [1.0, 1.0, 0.0]],
                              ["<=", "<="], [1.0, 1.0])
    real, entered = lp._pivot, []

    def pivot(T, basis, r, j):
        entered.append(j)
        real(T, basis, r, j)
    monkeypatch.setattr(lp, "_pivot", pivot)
    sol = lp.solve(prog, basis=start)
    assert entered == [2, 0, 1]
    assert sol.status == lp.OPTIMAL and sol.value == -5.0
    assert sol.primal[:3].tolist() == [0.0, 1.0, 3.0]


def _reversed_martingale_lp(nu, mu):
    """The infeasible feasibility LP of the reversed pair, from the start
    ``convex_order_check`` would give it. The order check refuses such a
    pair by its hull witness before any LP, so the Farkas path is reached
    on the same rows directly."""
    return lp.check_feasibility(*_martingale_rows(nu, mu),
                                basis=_martingale_start(nu, mu))


def test_martingale_pivot_ceiling(monkeypatch):
    # the forward and reversed order LPs and the euclidean MOT primal
    # of one 8 x 16 pair: 105 pivots with Devex pricing, 130 with the most
    # negative reduced cost
    real, pivots = lp.solve, []

    def solve(*args, **kwargs):
        sol = real(*args, **kwargs)
        pivots.append(sol.iterations)
        return sol
    monkeypatch.setattr(lp, "solve", solve)
    mu, nu = planar_spread_pair(7)
    assert convex_order_check(mu, nu).in_order
    assert _reversed_martingale_lp(nu, mu).status == lp.INFEASIBLE
    mot_primal(mu, nu, cost_from_json({"kind": "euclidean"}))
    assert len(pivots) == 3 and sum(pivots) <= 110


def test_false_optimum_is_priced_again_on_a_refresh(monkeypatch):
    # min -sum (j+1) x_j s.t. (j+2) x_j <= 1 has one optimal basis, six
    # pivots from the slack basis. The first three pivots blank the
    # reduced costs, so each time the loop sees no entering column on a
    # drifted tableau: it must refresh, price the columns still to enter
    # and pivot on to the primal and duals of an unpatched solve
    n = 6
    prog, start = with_slacks(-np.arange(1.0, n + 1),
                              np.diag(np.arange(2.0, n + 2)), ["<="] * n,
                              np.ones(n))
    ref = lp.solve(prog, basis=start)
    real_pivot, real_refresh = lp._pivot, lp._refresh_tableau
    blanked, refreshes = [], []

    def pivot(T, basis, r, j):
        real_pivot(T, basis, r, j)
        if len(blanked) < 3:
            blanked.append(j)
            T[-1, :n] = 0.0

    def refresh(*args, full=False):
        refreshes.append(full)
        return real_refresh(*args, full=full)
    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(lp, "_refresh_tableau", refresh)
    sol = lp.solve(prog, basis=start)
    # the opening refresh, one after each blanked pivot, one to confirm
    assert len(blanked) == 3 and refreshes == [False] * 5
    assert sol.status == lp.OPTIMAL
    assert sol.iterations == ref.iterations == n
    res = lp.residual_report(prog, sol)
    assert max(res.values()) <= 1e-9, res
    assert sol.value == ref.value
    assert sol.primal.tobytes() == ref.primal.tobytes()
    assert sol.dual.tobytes() == ref.dual.tobytes()


def test_refreshes_that_keep_an_entering_column_raise(monkeypatch):
    # min -x s.t. x <= 1. Every plain refresh of the basis {x} prices x
    # itself at -1: entering it pivots on its own row and leaves the basis
    # as it was, so no refresh confirms an optimum. The fourth refresh's
    # breakdown raises out of solve, with no second attempt
    prog, start = with_slacks([-1.0], [[1.0]], ["<="], [1.0])
    real_phase1, real_refresh = lp._phase1, lp._refresh_tableau
    phase1s, lies = [], []

    def phase1(*args, **kwargs):
        phase1s.append(1)
        return real_phase1(*args, **kwargs)

    def refresh(T, basis, *args, full=False):
        out = real_refresh(T, basis, *args, full=full)
        if not full and basis == [0]:
            lies.append(1)
            T[-1, 0] = -1.0
        return out
    monkeypatch.setattr(lp, "_phase1", phase1)
    monkeypatch.setattr(lp, "_refresh_tableau", refresh)
    with pytest.raises(NumericalBreakdown,
                       match="phase 2: reduced costs still admit an entering "
                             "column after 4 refreshes"):
        lp.solve(prog, basis=start)
    assert len(lies) == 4 and len(phase1s) == 1


def _lex_leaving_by_columns(T, basis, rows, col):
    """The leaving-row rule read one basis-inverse column at a time, every
    column in turn while a tie remains: the referee of lp._lex_leaving."""
    m = len(basis)
    n_cols = T.shape[1] - m - 1
    cand = rows
    vals = np.maximum(T[cand, -1], 0.0) / col[cand]
    best = vals.min()
    cand = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
    k = 0
    while cand.size > 1 and k < m:
        vals = T[cand, n_cols + k] / col[cand]
        best = vals.min()
        cand = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
        k += 1
    if cand.size > 1:
        cand = cand[np.argsort([basis[i] for i in cand])]
    return int(cand[0])


@st.composite
def lex_tableaux(draw):
    """A small tableau and entering column 0 with integer-lattice entries.
    Rhs ratios are mostly forced to tie. A random number of leading
    basis-inverse columns tie every row: they are +0, -0 (and skipped) or
    a multiple of column 0 (nonzero, so read, but narrowing nothing), and
    a later column decides. Rows that are multiples of an earlier row tie
    to the basis index. Other zeros are signed at random."""
    m, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    width = n_cols + m + 1
    T = np.zeros((m + 1, width))
    for i in range(m):
        T[i] = draw(st.lists(st.integers(-2, 2), min_size=width,
                             max_size=width))
        T[i, 0] = draw(st.integers(-1, 3))
    T[0, 0] = draw(st.integers(1, 3))
    ratio = draw(st.sampled_from([None, 0, 1, 2]))
    if ratio is not None:
        T[:-1, -1] = ratio * T[:-1, 0]
    for k in range(draw(st.integers(0, m))):
        kind = draw(st.sampled_from([0.0, -0.0, "tied"]))
        T[:-1, n_cols + k] = draw(st.integers(-2, 2)) * T[:-1, 0] \
            if kind == "tied" else kind
    for i, src in enumerate(draw(st.lists(st.integers(0, m - 1),
                                          min_size=m, max_size=m))):
        if src < i and draw(st.booleans()):
            T[i] = draw(st.integers(1, 3)) * T[src]
    flips = np.array(draw(st.lists(st.booleans(), min_size=m * width,
                                   max_size=m * width))).reshape(m, width)
    T[:-1][flips & (T[:-1] == 0)] = -0.0
    basis = draw(st.permutations(range(n_cols + m)))[:m]
    return T, basis


@given(lex_tableaux())
def test_lex_leaving_matches_column_scan(case):
    T, basis = case
    col = T[:-1, 0]
    rows = np.flatnonzero(col > lp.PIVOT_TOL)
    assert lp._lex_leaving(T, basis, rows, col) == \
        _lex_leaving_by_columns(T, basis, rows, col)


def test_lex_leaving_matches_column_scan_on_martingale_pair(monkeypatch):
    real = lp._lex_leaving
    choices, tied = [], []

    def refereed(T, basis, rows, col):
        r = real(T, basis, rows, col)
        choices.append(r == _lex_leaving_by_columns(T, basis, rows, col))
        vals = np.maximum(T[rows, -1], 0.0) / col[rows]
        best = vals.min()
        tied.append(np.sum(vals <= best + 1e-12 * (1.0 + abs(best))) > 1)
        return r
    monkeypatch.setattr(lp, "_lex_leaving", refereed)
    mu, nu = planar_spread_pair(7)
    assert convex_order_check(mu, nu).in_order
    assert _reversed_martingale_lp(nu, mu).status == lp.INFEASIBLE
    _, value = mot_primal(mu, nu, cost_from_json({"kind": "euclidean"}))
    assert value > 0
    assert len(choices) > 100 and all(choices)
    # the martingale rows' zero rhs makes some choices tie past the rhs,
    # so the basis-inverse columns decide them
    assert sum(tied) > 10


def test_breakdowns_raise_out_of_solve_and_check_feasibility(monkeypatch):
    # check_feasibility is the zero-objective solve, so a singular basis
    # met inside the solve raises out of both entry points, at once
    prog, start = with_slacks([-1.0], [[1.0]], ["<="], [1.0])
    assert lp.solve(prog, basis=start).value == pytest.approx(-1.0)
    assert lp.check_feasibility([[1.0]], [1.0]).status == lp.OPTIMAL
    calls = []

    def singular(B, rhs, during):
        calls.append(during)
        raise NumericalBreakdown(f"basis became singular during {during}")
    monkeypatch.setattr(lp, "_solve_basis", singular)
    with pytest.raises(NumericalBreakdown, match="singular during refresh"):
        lp.solve(prog, basis=start)
    assert calls == ["refresh"]
    with pytest.raises(NumericalBreakdown, match="singular during refresh"):
        lp.check_feasibility([[1.0]], [1.0])
    assert calls == ["refresh"] * 2


@pytest.mark.parametrize("sense, b", [("==", [0.0, 2.0]),
                                      ("<=", [0.0, -1.0]),
                                      (">=", [1.0, 0.0])])
def test_lp_without_columns(sense, b):
    # no variables: b = 0 is met by the empty point, b != 0 by none. The
    # only columns are the inequality rows' slacks
    A = np.zeros((2, 0))
    sol = lp.solve(*with_slacks(np.zeros(0), A, [sense] * 2, np.zeros(2)))
    assert sol.status == lp.OPTIMAL and sol.value == 0.0
    assert sol.primal.shape == ((0,) if sense == "==" else (2,))
    sol = lp.solve(*with_slacks(np.zeros(0), A, [sense] * 2, b))
    assert sol.status == lp.INFEASIBLE
    assert float(np.asarray(b) @ sol.farkas) > 0


def _leaving_rows(monkeypatch):
    """Record (rows, col) of every ratio test."""
    real, seen = lp._lex_leaving, []

    def spy(T, basis, rows, col):
        seen.append((rows.copy(), col.copy()))
        return real(T, basis, rows, col)
    monkeypatch.setattr(lp, "_lex_leaving", spy)
    return seen


def test_sliver_of_the_column_is_no_pivot(monkeypatch):
    # min -x s.t. 1e-9 x <= 5e-10, x <= 1. x enters on the column
    # (1e-9, 1): row 0 holds the least ratio, 0.5, but its entry lies
    # below RELATIVE_PIVOT times the column's largest, so row 1 leaves at
    # ratio 1 and row 0's slack ends at 5e-10 - 1e-9 = -5e-10. The answer
    # x = 1 (exact: 0.5) meets row 0 only within the feasibility tolerance
    prog, start = with_slacks([-1.0], [[1e-9], [1.0]], ["<=", "<="],
                              [5e-10, 1.0])
    seen = _leaving_rows(monkeypatch)
    real_extract, basic = lp._extract_primal, []

    def extract(M, b, basis, xb):
        basic.append(xb.copy())
        return real_extract(M, b, basis, xb)
    monkeypatch.setattr(lp, "_extract_primal", extract)
    sol = lp.solve(prog, basis=start)
    (rows, col), = seen
    assert lp.PIVOT_TOL < col[0] < lp.RELATIVE_PIVOT * col[1]
    assert rows.tolist() == [1]
    # the negative basic value is guarded by _extract_primal: it clamps
    # basic values at zero and accepts them above -1e-6 (1 + |b|), and
    # the row the clamp leaves short misses by 5e-10, inside 1e-8 (1 +
    # |b|). The clamp in _lex_leaving acts only on later ratio tests, and
    # there are none here.
    assert basic[0].min() == pytest.approx(-5e-10, rel=1e-6)
    assert sol.status == lp.OPTIMAL and sol.value == -1.0
    assert lp.residual_report(prog, sol)["primal"] == \
        pytest.approx(5e-10, rel=1e-6)


def test_large_negative_entry_keeps_the_admissible_row(monkeypatch):
    # min -x s.t. -1e6 x <= 1, 1e-3 x <= 1: the column (-1e6, 1e-3). Its
    # largest positive entry, not max |col|, sets the scale, so row 1 stays
    # admissible and the solve is bounded at x = 1000
    prog, start = with_slacks([-1.0], [[-1e6], [1e-3]], ["<=", "<="],
                              [1.0, 1.0])
    seen = _leaving_rows(monkeypatch)
    sol = lp.solve(prog, basis=start)
    (rows, col), = seen
    assert lp.RELATIVE_PIVOT * np.abs(col).max() > col[1]
    assert rows.tolist() == [1]
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(-1000.0, rel=1e-12)


def _transport_2x2(free=None):
    # cells (0,0), (0,1), (1,0), (1,1); rows r0, r1, c0, c1. A free cell
    # is split into the column pair [+j, -j]
    A = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
    c = np.array([1.0, 2.0, 3.0, 1.0])
    if free is not None:
        A, var, sign = split_free(A, free)
        c = c[var] * sign
    return lp.LinearProgram(c, A, [0.5, 0.5, 0.3, 0.7])


@pytest.mark.parametrize("basis, free, reason", [
    ([0, 1, -1], None, "one entry per row"),
    ([0.0, 1.0, 3.0, -1.0], None, "integers"),
    ([0, 1, 4, -1], None, "must lie in"),
    ([0, 0, 3, -1], None, "repeats a column"),
    # the two halves of a split free cell are parallel columns
    ([0, 1, 3, -1], [True, False, False, False], "singular"),
    ([0, 1, 2, 3], None, "singular"),
    # x00 = 0.5 leaves x10 = 0.3 - 0.5 on row c0
    ([0, 3, 2, -1], None, "infeasible"),
])
def test_bad_starting_basis_is_refused(basis, free, reason):
    prog = _transport_2x2(free)
    with pytest.raises(ValueError, match=reason):
        lp.solve(prog, basis=basis)


def test_starting_basis_is_used():
    # (0,0), (0,1), (1,1) ship 0.3, 0.2, 0.5; the c0 row is redundant
    prog = _transport_2x2()
    sol = lp.solve(prog, basis=[0, 1, -1, 3])
    cold = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(cold.value, abs=1e-15)
    res = lp.residual_report(prog, sol)
    assert max(res.values()) <= 1e-12, res


def test_unit_column_start_installs_without_a_basis_solve(monkeypatch):
    # x0 is row 0's unit column, so the start {x0, artificial of row 1} is
    # the identity, as the default all-artificial start is: phase 1 takes M
    # as its tableau and solves no basis before its pivot loop. Both starts
    # end at the one optimum x = (1, 1, 0), y = (1, 0)
    prog = lp.LinearProgram([1.0, 1.0, 3.0],
                            [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], [2.0, 1.0])
    cold = lp.solve(prog)
    real_solve, real_loop, steps = lp._solve_basis, lp._pivot_loop, []

    def solve_basis(*args):
        steps.append("basis solve")
        return real_solve(*args)

    def loop(*args, **kwargs):
        steps.append("pivot loop")
        return real_loop(*args, **kwargs)
    monkeypatch.setattr(lp, "_solve_basis", solve_basis)
    monkeypatch.setattr(lp, "_pivot_loop", loop)
    sol = lp.solve(prog, basis=[0, -1])
    assert steps[0] == "pivot loop"
    assert sol.status == cold.status == lp.OPTIMAL
    assert sol.value == cold.value == 2.0
    assert sol.primal.tolist() == cold.primal.tolist() == [1.0, 1.0, 0.0]
    assert sol.dual.tolist() == cold.dual.tolist() == [1.0, 0.0]


def test_starting_artificial_above_zero_runs_phase_one(monkeypatch):
    # x1 = 1 on the second row leaves the first row's artificial at 1, so
    # phase 1 must pivot from this basis before phase 2 can start
    prog, _ = with_slacks([-1.0, -2.0], [[1.0, 1.0], [0.0, 1.0]],
                          ["<=", "<="], [2.0, 1.0])
    real, phases = lp._pivot_loop, []
    params = inspect.signature(real)

    def recorded(*args, **kwargs):
        phases.append(params.bind(*args, **kwargs).arguments["phase"])
        return real(*args, **kwargs)
    monkeypatch.setattr(lp, "_pivot_loop", recorded)
    sol = lp.solve(prog, basis=[-1, 1])
    assert 1 in phases
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(lp_value_by_vertex_enumeration(prog),
                                      abs=1e-12)
    res = lp.residual_report(prog, sol)
    assert max(res.values()) <= 1e-12, res


def test_zero_objective_runs_no_phase_two(monkeypatch):
    def never(*args):
        raise AssertionError("phase 2 ran on a zero objective")
    monkeypatch.setattr(lp, "_phase2", never)
    prog, start = with_slacks(None, [[1.0, 1.0], [1.0, -1.0]], ["==", ">="],
                              [1.0, 0.5])
    res = lp.check_feasibility(prog.A, prog.b, start)
    assert res.status == lp.OPTIMAL and not res.dual.any()
    assert res.primal[:2] @ [1.0, 1.0] == pytest.approx(1.0)
    assert res.primal[:2] @ [1.0, -1.0] >= 0.5 - 1e-12


def _gaussian_pair(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    return (new_measure(2, rng.normal(size=(n, 2)), a / a.sum()),
            new_measure(2, rng.normal(size=(n, 2)), b / b.sum()))


def _record_solve_steps(monkeypatch):
    """Log each pivot loop (its phase), each refresh ("full" or "plain")
    and each basis solve outside a refresh (what it was for), in order."""
    real_loop, real_refresh = lp._pivot_loop, lp._refresh_tableau
    real_solve = lp._solve_basis
    params = inspect.signature(real_loop)
    steps = []

    def loop(*args, **kwargs):
        phase = params.bind(*args, **kwargs).arguments["phase"]
        steps.append(f"phase {phase} loop")
        return real_loop(*args, **kwargs)

    def refresh(*args, full=False):
        steps.append("full" if full else "plain")
        return real_refresh(*args, full=full)

    def solve_basis(B, rhs, during):
        if during != "refresh":
            steps.append(during)
        return real_solve(B, rhs, during)
    monkeypatch.setattr(lp, "_pivot_loop", loop)
    monkeypatch.setattr(lp, "_refresh_tableau", refresh)
    monkeypatch.setattr(lp, "_solve_basis", solve_basis)
    return steps


def test_starting_basis_is_refreshed_fully_once(monkeypatch):
    # phase 1 installs the least-cost staircase with a full refresh and
    # makes no pivot, so phase 2 opens on that tableau with a plain one;
    # under 99 pivots no periodic rebuild adds a full refresh
    mu, nu = _gaussian_pair(10, 10)
    real_solve, sols = lp.solve, []

    def solve(*args, **kw):
        sols.append(real_solve(*args, **kw))
        return sols[-1]
    monkeypatch.setattr(lp, "solve", solve)
    steps = _record_solve_steps(monkeypatch)
    kantorovich_primal(mu, nu, cost_from_json({"kind": "sq_euclidean"}))
    assert len(sols) == 1 and 0 < sols[0].iterations < 99
    assert steps.count("full") == 1
    assert steps[:3] == ["full", "plain", "phase 2 loop"]


def test_exact_install_opens_phase_two_plainly(monkeypatch):
    # phase 1 pivots and ends with an artificial basic, so it refreshes
    # fully before its drive-out, which finds nothing to pivot on: the
    # tableau is the exact install of the final basis, and phase 2 opens
    # on it with a plain refresh
    mu, nu = planar_spread_pair(0)
    steps = _record_solve_steps(monkeypatch)
    real_pivot = lp._pivot

    def pivot(*args):
        if steps[-1] != "pivot":
            steps.append("pivot")
        real_pivot(*args)
    monkeypatch.setattr(lp, "_pivot", pivot)
    mot_primal(mu, nu, cost_from_json({"kind": "euclidean"}))
    opening = steps.index("phase 2 loop")
    assert steps[:opening] == ["full", "phase 1 loop", "pivot", "plain",
                               "full", "plain"]
    assert "full" not in steps[opening:]


def test_infeasible_verdict_takes_one_refresh(monkeypatch):
    # the reversed pair is not in convex order: from the identity, one
    # phase-1 loop whose one plain refresh confirms its optimum and gives
    # the artificials and the Farkas ray
    mu, nu = planar_spread_pair(7)
    A, b = _martingale_rows(nu, mu)
    steps = _record_solve_steps(monkeypatch)
    res = lp.check_feasibility(A, b)
    assert res.status == lp.INFEASIBLE
    assert steps == ["phase 1 loop", "plain"]
    assert res.farkas @ b == pytest.approx(1.0)
    assert (A.T @ res.farkas).max() <= 1e-7


def test_started_infeasible_verdict_takes_one_refresh(monkeypatch):
    # the martingale LP started from its staircase: one install, with the
    # barycenter artificials that start below zero already negated, then
    # the same loop and its confirming plain refresh
    mu, nu = planar_spread_pair(7)
    steps = _record_solve_steps(monkeypatch)
    res = _reversed_martingale_lp(nu, mu)
    assert res.status == lp.INFEASIBLE
    assert steps == ["full", "phase 1 loop", "plain"]
    assert _farkas_witness(nu, mu, res.farkas).integral_gap(nu, mu) > 1e-10


def test_starting_artificial_below_zero_enters_negated():
    # x1 = 1 on the second row leaves the first row's artificial at
    # 0 - 1 = -1; it enters as -e_0, starts at +1 and phase 1 pivots it out
    A = [[1.0, -1.0], [1.0, 1.0]]
    prog = lp.LinearProgram([1.0, 2.0], A, [0.0, 1.0])
    # the same rows as pairs of "<=" rows, for the oracle
    oracle, _ = with_slacks([1.0, 2.0], A + [[-1.0, 1.0], [-1.0, -1.0]],
                            ["<="] * 4, [0.0, 1.0, 0.0, -1.0])
    sol = lp.solve(prog, basis=[-1, 0])
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(
        lp_value_by_vertex_enumeration(oracle), abs=1e-12)
    res = lp.residual_report(prog, sol)
    assert max(res.values()) <= 1e-12, res


def _artificial_records(call):
    """Run ``call`` and record, at every refresh, around every pivot loop
    and at every primal extraction, the tableau width (None where no
    tableau is passed), the matrix M and a copy of the basis."""
    refresh, loop = lp._refresh_tableau, lp._pivot_loop
    extract = lp._extract_primal
    records = []

    def spy(real):
        params = inspect.signature(real)

        def wrapped(*args, **kwargs):
            bound = params.bind(*args, **kwargs).arguments
            T = bound.get("T")
            width = None if T is None else T.shape[1]
            records.append((width, bound["M"].copy(), list(bound["basis"])))
            out = real(*args, **kwargs)
            records.append((width, bound["M"].copy(), list(bound["basis"])))
            return out
        return wrapped
    with pytest.MonkeyPatch.context() as mp:
        for name, real in (("_refresh_tableau", refresh),
                           ("_pivot_loop", loop),
                           ("_extract_primal", extract)):
            mp.setattr(lp, name, spy(real))
        call()
    return records


def _assert_artificials_on_their_rows(records, m, n):
    """Every basic artificial at position i is basis entry n + i, M is the
    n standard columns followed by one +-e_i per row, and the tableau
    has no artificial column. Returns whether any artificial was basic."""
    seen = False
    for width, M, basis in records:
        assert M.shape == (m, n + m)
        assert np.array_equal(np.abs(M[:, n:]), np.eye(m))
        if width is not None:
            assert width == n + m + 1
        for i, k in enumerate(basis):
            assert k < n or k == n + i, (i, k, n)
            seen |= k >= n
    return seen


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_artificials_stay_on_their_rows_random_lps(seed, started):
    # random "<=" rows whose rhs may be negative need artificials; a start
    # that names one user column leaves the other rows' artificials at
    # b_k - A_kj x_j, which may lie below zero and then enter negated
    rng = np.random.default_rng(seed)
    prog = random_bounded_lp(rng, max_vars=6, max_rows=6)
    m, n = prog.n_rows, prog.n_vars
    start = None
    if started:
        rows, cols = np.nonzero(prog.A * prog.b[:, None] > 0)
        if rows.size:
            k = int(rng.integers(rows.size))
            start = np.full(m, -1)
            start[rows[k]] = cols[k]
    records = _artificial_records(lambda: lp.solve(prog, basis=start))
    seen = _assert_artificials_on_their_rows(records, m, n)
    assert seen or (start is None and (prog.b >= 0).all())


@given(kernel_pairs())
def test_artificials_stay_on_their_rows_martingale_starts(case):
    # the staircase puts an artificial on every barycenter row and
    # negates those that start below zero, in order and reversed
    mu, nu, cost = case
    for p, q in ((mu, nu), (nu, mu)):
        A, b = _martingale_rows(p, q)
        start = _martingale_start(p, q)
        C = cost.pairwise(p.points, q.points).ravel()
        prog = lp.LinearProgram(C, A, b)
        records = _artificial_records(lambda: lp.solve(prog, basis=start))
        assert _assert_artificials_on_their_rows(records, *A.shape)


def _assert_basis_round_trip(prog, sol):
    """Re-solving from an optimal solution's basis pivots 0 times and
    gives the same value and primal."""
    assert sol.basis.shape == (prog.n_rows,)
    again = lp.solve(prog, basis=sol.basis)
    assert again.status == lp.OPTIMAL
    assert again.iterations == 0
    assert again.value == sol.value
    assert np.array_equal(again.primal, sol.primal)
    assert np.array_equal(again.basis, sol.basis)


@given(st.integers(0, 2 ** 32 - 1))
def test_basis_round_trip_random_lps(seed):
    prog = random_bounded_lp(np.random.default_rng(seed), max_vars=6,
                             max_rows=6)
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    _assert_basis_round_trip(prog, sol)


@given(kernel_pairs())
def test_basis_round_trip_martingale_lps(case):
    # an artificial left on a redundant marginal row is reported as -1
    mu, nu, cost = case
    A, b = _martingale_rows(mu, nu)
    prog = lp.LinearProgram(cost.pairwise(mu.points, nu.points).ravel(),
                            A, b)
    _assert_basis_round_trip(prog, lp.solve(
        prog, basis=_martingale_start(mu, nu)))


def test_unbounded_detection():
    sol = lp.solve(*with_slacks([-1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0]))
    assert sol.status == lp.UNBOUNDED


def test_singular_basis_solve_raises():
    # a singular or overflowing basis solve is a breakdown, never a
    # least-squares guess
    with pytest.raises(NumericalBreakdown,
                       match="basis became singular during refresh"):
        lp._solve_basis(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2),
                        "refresh")
    with pytest.raises(NumericalBreakdown, match="numerically singular"):
        lp._solve_basis(np.diag([1e-300, 1.0]), np.array([1e10, 1.0]),
                        "refresh")


def test_validate_ray_rejects_false_rays():
    # one row x0 - x1 + x2 + a = 0 with a the row's artificial, the last
    # column of M; on basis {x0}, column 1 gives the ray z = (1, 1, 0, 0),
    # which improves min -x1 and is accepted
    M = np.array([[1.0, -1.0, 1.0, 1.0]])
    lp._validate_ray(M, np.array([0.0, -1.0, 0.0, 0.0]), [0], 1)
    with pytest.raises(NumericalBreakdown, match="ray failed validation"):
        # the ray does not improve a zero objective
        lp._validate_ray(M, np.zeros(4), [0], 1)
    with pytest.raises(NumericalBreakdown, match="ray failed validation"):
        # column 2 has the admissible pivot B^-1 A_2 = 1
        lp._validate_ray(M, np.array([0.0, 0.0, -1.0, 0.0]), [0], 2)
    with pytest.raises(NumericalBreakdown, match="ray failed validation"):
        # on the artificial basis {a} the ray (0, 1, 0, 1) leaves the
        # real row unbalanced
        lp._validate_ray(M, np.array([0.0, -1.0, 0.0, 0.0]), [3], 1)
    with pytest.raises(NumericalBreakdown,
                       match="singular during ray validation"):
        lp._validate_ray(np.array([[0.0, 1.0, 1.0]]),
                         np.array([0.0, -1.0, 0.0]), [0], 1)


def test_extract_primal_refusals():
    # two rows x0 + x1 = b0, x1 = b1 over x0, x1, then the artificials a0,
    # a1 of the two rows; the basis {x0, x1} gives x1 = b1, x0 = b0 - b1
    M = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    z = lp._extract_primal(M, np.array([3.0, 1.0]), [0, 1], None)
    assert z.tolist() == [2.0, 1.0]
    with pytest.raises(NumericalBreakdown,
                       match="singular during primal extraction"):
        # the two basic columns are parallel
        lp._extract_primal(np.array([[1.0, 2.0, 1.0, 0.0],
                                     [2.0, 4.0, 0.0, 1.0]]),
                           np.ones(2), [0, 1], None)
    with pytest.raises(NumericalBreakdown,
                       match="does not reproduce a feasible point"):
        # x0 = -1e-5 on a column of 1e-4: clipped, it leaves row 0 off by
        # only 1e-9, so the basic value itself must be refused
        lp._extract_primal(np.array([[1e-4, 1.0, 1.0, 0.0],
                                     [0.0, 1.0, 0.0, 1.0]]),
                           np.array([1.0 - 1e-9, 1.0]), [0, 1], None)
    with pytest.raises(NumericalBreakdown,
                       match="does not reproduce a feasible point"):
        # on the basis {a0, x1} the artificial carries x0's mass
        lp._extract_primal(M, np.array([3.0, 1.0]), [2, 1], None)
    with pytest.raises(NumericalBreakdown,
                       match="does not reproduce a feasible point"):
        # x0 = -1e-7 is clipped to zero, which leaves row 0 off by 1e-7
        lp._extract_primal(M, np.array([1.0 - 1e-7, 1.0]), [0, 1], None)


def test_solve_peak_memory_is_bounded_by_tableau():
    # lp.DENSE_BUDGET_BYTES assumes a solve peaks at about five times its
    # dense arrays, 8 (rows + 1)(cols + 2 rows + 1) bytes for the 2n
    # marginal rows over n^2 couplings (4.8x when measured)
    n = 40
    mu, nu = _gaussian_pair(n, n)
    cost = cost_from_json({"kind": "sq_euclidean"})
    kantorovich_primal(mu, nu, cost)
    tracemalloc.start()
    try:
        kantorovich_primal(mu, nu, cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tableau = 8 * (2 * n + 1) * (n * n + 4 * n + 1)
    assert peak <= 5.5 * tableau, peak / tableau


def test_iteration_cap_raises_breakdown(monkeypatch):
    rng = np.random.default_rng(31)
    prog = random_bounded_lp(rng, max_vars=8, max_rows=8)
    monkeypatch.setattr(lp, "_iteration_cap", lambda m, n: 1)
    with pytest.raises(NumericalBreakdown):
        lp.solve(prog)


def test_equality_redundancy_is_tolerated():
    # row sums and column sums of a transport polytope are linearly
    # dependent; the solver must drop the redundant row, not fail
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    sol = lp.solve(lp.LinearProgram([0.0, 1.0, 1.0, 0.0], A,
                                    [0.5, 0.5, 0.4, 0.6]))
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
        prog, start = with_slacks(None, A, ["<=", ">=", "=="], b)
        res = lp.check_feasibility(prog.A, prog.b, start)
        if res.status == lp.OPTIMAL:
            Ax = A @ res.primal[:n]
            assert Ax[0] <= b[0] + 1e-8
            assert Ax[1] >= b[1] - 1e-8
            assert abs(Ax[2] - b[2]) <= 1e-8
            assert np.all(res.primal >= -1e-9)
        else:
            y = res.farkas
            checked += 1
            assert y @ b > 0
            assert y[0] <= 1e-10          # <= row multiplier
            assert y[1] >= -1e-10         # >= row multiplier
            comb = A.T @ y
            assert np.max(comb) <= 1e-8   # nonpositive on x >= 0
    assert checked > 10


_GOOD = {"A": np.ones((2, 4)), "b": [1.0, 0.0]}
_BAD_INPUTS = {
    "b_longer_than_A": {"b": [1.0, 0.0, 2.0]},
    "A_has_an_extra_row": {"A": np.ones((3, 4))},
    "nan_rhs": {"b": [1.0, np.nan]},
    "infinite_rhs": {"b": [np.inf, 0.0]},
    "transposed_single_row": {"A": np.ones((4, 1)), "b": [1.0]},
    "flat_row": {"A": np.ones(4), "b": [1.0]},
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_matrix_inputs_raise(case):
    bad = {**_GOOD, **_BAD_INPUTS[case]}
    with pytest.raises(ValueError):
        lp.LinearProgram(np.zeros(4), bad["A"], bad["b"])
    with pytest.raises(ValueError):
        lp.check_feasibility(bad["A"], bad["b"])


def test_matrix_of_right_size_but_wrong_shape_raises():
    # 2 x 2 holds the 4 entries of a 1 x 4 row; reshaping it would hide
    # the mistake, so the shape must match exactly
    with pytest.raises(ValueError):
        lp.LinearProgram(np.zeros(4), np.ones((2, 2)), [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram(np.zeros(4), np.ones((2, 2)), [1.0, 1.0])
    prog = lp.LinearProgram(np.zeros(4), _GOOD["A"], _GOOD["b"])
    assert (prog.n_rows, prog.n_vars) == (2, 4)


def _residual_report_by_loops(prog, sol):
    """The row-by-row and variable-by-variable form of residual_report."""
    A, b = prog.A, prog.b
    x, y = sol.primal, sol.dual
    ax = A @ x
    primal = 0.0
    for i in range(prog.n_rows):
        primal = max(primal, abs(ax[i] - b[i]))
    primal = max(primal, float(np.max(-x, initial=0.0)))
    r = prog.objective - A.T @ y
    dual = cs = 0.0
    for j in range(prog.n_vars):
        dual = max(dual, -r[j])
        cs = max(cs, abs(x[j] * r[j]))
    gap = abs(float(prog.objective @ x) - float(b @ y))
    return {"primal": float(primal), "dual": float(dual),
            "gap": float(gap), "complementary_slackness": float(cs)}


def test_residual_report_matches_row_loops():
    # min or max (min -c), with free variables split into column pairs
    # and inequality rows given their slack columns
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 7))
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        senses = rng.choice(["<=", "==", ">="], size=m)
        free = rng.random(n) < 0.4
        x0 = rng.uniform(-1.0, 1.0, size=n)
        x0[~free] = np.abs(x0[~free])
        slack = rng.uniform(0.0, 1.0, size=m)
        b = A @ x0 + np.where(senses == "<=", slack,
                              np.where(senses == ">=", -slack, 0.0))
        c = rng.uniform(-1.0, 1.0, size=n)
        sign = rng.choice([1.0, -1.0])
        A, var, col_sign = split_free(A, free)
        prog, start = with_slacks(sign * c[var] * col_sign, A, senses, b)
        # arbitrary points reach every branch with nonzero residuals
        probe = lp.LpSolution(lp.OPTIMAL,
                              primal=rng.normal(size=prog.n_vars),
                              dual=rng.normal(size=m))
        assert lp.residual_report(prog, probe) == \
            _residual_report_by_loops(prog, probe)
        sol = lp.solve(prog, basis=start)
        if sol.status == lp.OPTIMAL:
            solved += 1
            assert lp.residual_report(prog, sol) == \
                _residual_report_by_loops(prog, sol)
    assert solved > 50
