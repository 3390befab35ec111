import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    count_solves,
    kernel_pair,
    kernel_pairs,
    nu3,
    pm1,
    random_convex_order_pair,
    random_measure,
    split_free,
    traced_refusal_peak,
    with_slacks,
)
from transportkit import convex_order as co, lp, measures as ms, mot, ot
from transportkit.errors import (
    BadCheckParameter,
    DimensionMismatch,
    EmptyAtoms,
    GammaMissing,
    GridTooCoarse,
    LowerBoundViolation,
    MissingGrowth,
    NonSmoothDiagonal,
    NonVanishingDiagonal,
    NotInConvexOrder,
    ProductTooLarge,
    RestrictionDeviates,
)
from transportkit.functions import Box, FunctionEvaluator, Grid, ModulusSpec


def sq(p):
    p = np.atleast_1d(p)
    return float(p @ p)


def neg_sq(p):
    return -sq(p)


ZERO = ms.CostSpec.zero(1)


# --- martingale transport LPs -------------------------------------------------

def test_mot_primal_examples():
    eu = ms.CostSpec.euclidean()
    _, v = mot.mot_primal(ms.dirac([0.0]), pm1(), eu)
    assert v == pytest.approx(1.0)
    _, v2 = mot.mot_primal(pm1(), nu3(), eu)
    assert v2 == pytest.approx(1.0, abs=1e-9)
    mu = pm1()
    _, v3 = mot.mot_primal(mu, mu, ms.CostSpec.sq_euclidean())
    assert v3 == pytest.approx(0.0, abs=1e-12)


def test_mot_primal_rejects_unordered():
    with pytest.raises(NotInConvexOrder):
        mot.mot_primal(pm1(), ms.dirac([0.0]), ms.CostSpec.euclidean())


def test_mot_primal_size_budget():
    # 1400 rows over 200 000 couplings: a ~2.2 GB dense tableau, refused
    # from the sizes before the cost or the rows are built
    mu = ms.new_measure(1, np.linspace(-1, 1, 200)[:, None],
                        np.full(200, 1 / 200))
    nu = ms.new_measure(1, np.linspace(-2, 2, 1000)[:, None],
                        np.full(1000, 1 / 1000))
    peak = traced_refusal_peak(ProductTooLarge, lambda: mot.mot_primal(
        mu, nu, ms.CostSpec.euclidean()))
    assert peak < 20e6


def test_mot_dual_examples():
    eu = ms.CostSpec.euclidean()
    dual, v = mot.mot_dual(ms.dirac([0.0]), pm1(), eu)
    assert v == pytest.approx(1.0)
    assert dual.max_violation(eu) <= 1e-9

    mu = pm1()
    _, v2 = mot.mot_dual(mu, mu, eu)
    assert v2 == pytest.approx(0.0, abs=1e-10)

    _, v3 = mot.mot_dual(pm1(), nu3(), eu)
    assert v3 == pytest.approx(1.0, abs=1e-9)


def test_mot_duality_random_instances():
    rng = np.random.default_rng(101)
    costs = [ms.CostSpec.euclidean(), ms.CostSpec.sq_euclidean()]
    for k in range(30):
        dim = int(rng.integers(1, 3))
        mu, nu = random_convex_order_pair(rng, dim, 8)
        cost = costs[k % 2]
        _, vp = mot.mot_primal(mu, nu, cost)
        _, vd = mot.mot_dual(mu, nu, cost)
        assert abs(vp - vd) <= 1e-7 * (1 + abs(vp))


def _same(a, b) -> bool:
    """Byte-equal: the same pickled bytes, field by field."""
    return pickle.dumps(a) == pickle.dumps(b)


def _views_match(entry, primal, dual, args, objective_args):
    """Each entry point solves once, and its two views return exactly its
    (coupling, value) and (certificate, certificate objective)."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_solves(mp)
        coupling, certificate, value = entry(*args)
        assert len(calls) == 1
    assert _same(primal(*args), (coupling, value))
    assert _same(dual(*args),
                 (certificate, certificate.objective(*objective_args)))


@given(kernel_pairs())
def test_views_return_the_fields_of_their_entry_point(case):
    mu, nu, cost = case
    _views_match(ot.kantorovich, ot.kantorovich_primal, ot.kantorovich_dual,
                 (mu, nu, cost), (mu, nu))
    _views_match(mot.mot_solve, mot.mot_primal, mot.mot_dual,
                 (mu, nu, cost), (mu, nu))
    eu = ms.CostSpec.euclidean()
    coupling, f, value = ot.kr(mu, nu, eu)
    assert _same(ot.kr_dual(mu, nu, eu), (f, f.objective(mu, nu)))
    # the KR value is the Kantorovich value of the same coupling LP
    assert _same((coupling, value), ot.kantorovich_primal(mu, nu, eu))


def test_multimarginal_views_return_the_fields_of_their_entry_point():
    rng = np.random.default_rng(29)
    measures = [random_measure(rng, 2, 6) for _ in range(3)]
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    _views_match(ot.multimarginal, ot.multimarginal_primal,
                 ot.multimarginal_dual, (measures, cost), (measures,))


def test_mot_dual_symmetric_examples():
    eu = ms.CostSpec.euclidean()
    sym, v = mot.mot_dual_symmetric(ms.dirac([0.0]), pm1(), eu)
    assert v == pytest.approx(1.0, abs=1e-9)
    assert sym.max_violation(eu) <= 1e-9

    mu = pm1()
    sym2, v2 = mot.mot_dual_symmetric(mu, mu, eu)
    assert v2 == pytest.approx(0.0, abs=1e-10)
    assert sym2.max_violation(eu) <= 1e-9

    # squared distance: symmetric value never exceeds the general dual
    sqc = ms.CostSpec.sq_euclidean()
    syms, vs = mot.mot_dual_symmetric(pm1(), nu3(), sqc)
    _, vg = mot.mot_dual(pm1(), nu3(), sqc)
    assert vs <= vg + 1e-9
    assert syms.max_violation(sqc) <= 1e-9


def test_symmetric_max_violation_is_over_distinct_pairs():
    # a slack (f, gamma) reads negative: the zero diagonal is not a row
    sym = mot.SymmetricDual(np.array([[0.0], [1.0]]), np.array([0.5, 0.0]),
                            np.array([[0.25], [0.125]]))
    assert sym.max_violation(ms.CostSpec.euclidean()) == -0.25
    # a one-point union has no pair i != j: the margin is 0, not -inf
    one = mot.SymmetricDual(np.array([[0.0]]), np.zeros(1), np.zeros((1, 1)))
    assert one.max_violation(ms.CostSpec.euclidean()) == 0.0


def test_mot_dual_symmetric_hull_refusal_solves_no_lp(monkeypatch):
    # the 1-D kernel pairs reversed: an atom of nu lies outside the hull
    # of mu's support, so the pair is refused before the u (1 + d)-row
    # flow LP is built (0.1-1.2 s of solving per pair without the test)
    rng = np.random.default_rng(5)
    pairs = [kernel_pair(rng, m, 2 * m) for m in (16, 24, 32)]
    calls = count_solves(monkeypatch)
    for mu, nu in pairs:
        with pytest.raises(NotInConvexOrder):
            mot.mot_dual_symmetric(nu, mu, ms.CostSpec.euclidean())
    assert calls == []


def test_mot_dual_symmetric_rejects_nonvanishing_diagonal():
    shifted = ms.CostSpec.custom(lambda x, y: float(np.linalg.norm(x - y))
                                 + 1.0)
    with pytest.raises(NonVanishingDiagonal):
        mot.mot_dual_symmetric(ms.dirac([0.0]), pm1(), shifted)


def test_mot_dual_symmetric_refuses_unequal_dims():
    with pytest.raises(DimensionMismatch, match="dims 1 vs 2"):
        mot.mot_dual_symmetric(pm1(), ms.dirac([0.0, 0.0]),
                               ms.CostSpec.euclidean())


def test_symmetric_below_general_structural():
    rng = np.random.default_rng(103)
    eu = ms.CostSpec.euclidean()
    for _ in range(10):
        mu, nu = random_convex_order_pair(rng, 1, 6)
        sym, vs = mot.mot_dual_symmetric(mu, nu, eu)
        _, vg = mot.mot_dual(mu, nu, eu)
        assert vs <= vg + 1e-9
        assert sym.max_violation(eu) <= 1e-9


@given(kernel_pairs())
def test_mti_costs_give_the_two_potential_value(case):
    # the paper's theorem: under the martingale triangle inequality the
    # dual may be restricted to one potential, so the symmetric value is
    # the two-potential one
    mu, nu, _ = case
    for cost in (ms.CostSpec.euclidean(), ms.CostSpec.sq_euclidean(),
                 ms.CostSpec.manhattan()):
        sym, vs = mot.mot_dual_symmetric(mu, nu, cost)
        _, vd = mot.mot_dual(mu, nu, cost)
        assert abs(vs - vd) <= 1e-9, cost.kind
        assert sym.max_violation(cost) <= 1e-9


def test_non_mti_cost_gives_a_lower_symmetric_value():
    # |x - y|^3 fails the martingale triangle inequality: the flow LP
    # routes mass through +-1 on its way to +-2 for 2.5, where every
    # martingale coupling of delta_0 pays (1 + 1 + 8 + 8) / 4 = 4.5
    cube = ms.CostSpec.custom(lambda x, y: float(np.linalg.norm(x - y)) ** 3)
    assert not mot.mti_check(cube, Box([-2.0], [2.0]), 2000, 3).ok
    mu = ms.dirac([0.0])
    nu = ms.new_measure(1, [[-2.0], [-1.0], [1.0], [2.0]], [0.25] * 4)
    sym, vs = mot.mot_dual_symmetric(mu, nu, cube)
    _, vd = mot.mot_dual(mu, nu, cube)
    assert vd == pytest.approx(4.5, abs=1e-9)
    assert vs == pytest.approx(2.5, abs=1e-9)
    assert sym.max_violation(cube) <= 1e-9


def _mot_dual_rows_by_loop(mu, nu, C):
    """The one-row-per-pair construction of the mot_dual constraints."""
    m, n, d = len(mu), len(nu), mu.dim
    nvar = m + n + m * d
    rows, rhs = [], []
    for i in range(m):
        for j in range(n):
            row = np.zeros(nvar)
            row[i] = 1.0
            row[m + j] = -1.0
            row[m + n + i * d:m + n + (i + 1) * d] = \
                nu.points[j] - mu.points[i]
            rows.append(row)
            rhs.append(C[i, j])
    return np.array(rows), np.array(rhs)


def _symmetric_rows_by_loop(Z, C):
    """The one-row-per-pair construction of the mot_dual_symmetric
    constraints."""
    u, d = Z.shape
    nvar = u + u * d
    rows, rhs = [], []
    for i in range(u):
        for j in range(u):
            if i == j:
                continue
            row = np.zeros(nvar)
            row[i] = 1.0
            row[j] -= 1.0
            row[u + i * d:u + (i + 1) * d] = Z[j] - Z[i]
            rows.append(row)
            rhs.append(C[i, j])
    return np.array(rows), np.array(rhs)


def _symmetric_referee(mu, nu, cost):
    """The u (u - 1)-row dual LP of the symmetric dual, solved directly:
    max sum_k (mu - nu)_k f_k over (f, gamma) meeting every pair row, as
    min -sum_k (mu - nu)_k f_k with every variable split into a column
    pair. Returns the rows (A, b) and the solution, whose value is minus
    the dual's."""
    Z = ms.union_points(mu.points, nu.points)
    A, b = _symmetric_rows_by_loop(Z, cost.pairwise(Z, Z))
    mu_d, nu_d = mu.as_dict(), nu.as_dict()
    signed = np.array([mu_d.get(ms.point_key(p), 0.0)
                       - nu_d.get(ms.point_key(p), 0.0) for p in Z])
    objective = np.concatenate([signed, np.zeros(A.shape[1] - len(Z))])
    split, var, sign = split_free(A, np.ones(A.shape[1], dtype=bool))
    sol = lp.solve(*with_slacks(-objective[var] * sign, split,
                                ["<="] * len(b), b))
    return A, b, sol


def _symmetric_row_excess(sym, A, b):
    return float(np.max(A @ np.concatenate([sym.f, sym.gamma.ravel()]) - b))


def test_gamma_dual_read_off_meets_referee_rows():
    # the one-row-per-pair dual LP, solved directly, is the referee of the
    # (u, v, gamma) read off the martingale primal
    rng = np.random.default_rng(311)
    eu = ms.CostSpec.euclidean()
    checked = 0
    for dim in (1, 2):
        for _ in range(6):
            mu, nu = random_convex_order_pair(rng, dim, 5)
            dual, value = mot.mot_dual(mu, nu, eu)
            A, b = _mot_dual_rows_by_loop(
                mu, nu, eu.pairwise(mu.points, nu.points))
            objective = np.concatenate([mu.weights, -nu.weights,
                                        np.zeros(A.shape[1] - len(mu)
                                                 - len(nu))])
            # max objective.x over free x, as min -objective.x over
            # column pairs
            split, var, sign = split_free(A, np.ones(A.shape[1], dtype=bool))
            ref = lp.solve(*with_slacks(
                -objective[var] * sign, split, ["<="] * len(b), b))
            x = np.concatenate([dual.u, dual.v, dual.gamma.ravel()])
            assert float(np.max(A @ x - b)) <= 1e-9
            assert ref.status == lp.OPTIMAL
            assert abs(value + ref.value) <= 1e-9
            with pytest.raises(NotInConvexOrder):
                mot.mot_dual(nu, mu, eu)
            checked += 1
    assert checked == 12


def test_symmetric_dual_read_off_meets_referee_rows():
    # the same 12 seeded pairs as test_gamma_dual_read_off_meets_referee_rows;
    # the per-pair dual rows are the referee of the read-off (f, gamma)
    rng = np.random.default_rng(311)
    eu = ms.CostSpec.euclidean()
    checked = 0
    for dim in (1, 2):
        for _ in range(6):
            mu, nu = random_convex_order_pair(rng, dim, 5)
            sym, value = mot.mot_dual_symmetric(mu, nu, eu)
            A, b, ref = _symmetric_referee(mu, nu, eu)
            assert sym.points.tobytes() == \
                ms.union_points(mu.points, nu.points).tobytes()
            assert _symmetric_row_excess(sym, A, b) <= 1e-9
            assert sym.max_violation(eu) == pytest.approx(
                _symmetric_row_excess(sym, A, b), abs=1e-12)
            assert ref.status == lp.OPTIMAL
            assert abs(value + ref.value) <= 1e-9
            with pytest.raises(NotInConvexOrder):
                mot.mot_dual_symmetric(nu, mu, eu)
            checked += 1
    assert checked == 12


@st.composite
def lattice_martingale_pairs(draw):
    """(mu, nu, cost): mu on distinct points of the integer lattice
    {-2..2}^d (d = 1, 2) with equal or lattice weights; nu spreads some
    atoms x of mu to x - e and x + e with half the weight each, e a
    nonzero step in {-1, 0, 1}^d, so mu precedes nu strictly in convex
    order and atoms of nu pile up on shared lattice points."""
    d = draw(st.sampled_from([1, 2]))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3,
                        unique=True))
    k = len(pts)
    w = [1] * k if draw(st.booleans()) else \
        draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    step = st.tuples(*[st.integers(-1, 1)] * d)
    steps = draw(st.lists(step, min_size=k, max_size=k).filter(
        lambda es: any(any(e) for e in es)))
    table = {}
    for x, wx, e in zip(pts, w, steps):
        for sgn in ((-1, 1) if any(e) else (0,)):
            y = tuple(xi + sgn * ei for xi, ei in zip(x, e))
            table[y] = table.get(y, 0.0) + (wx / 2 if any(e) else wx)
    total = float(sum(w))
    mu = ms.new_measure(d, np.array(pts, dtype=float), np.array(w) / total)
    ys = sorted(table)
    nu = ms.new_measure(d, np.array(ys, dtype=float),
                        np.array([table[y] for y in ys]) / total)
    cost = draw(st.sampled_from([ms.CostSpec.euclidean(),
                                 ms.CostSpec.sq_euclidean()]))
    return mu, nu, cost


def _mot_outputs(mu, nu, cost):
    coupling, vp = mot.mot_primal(mu, nu, cost)
    dual, vd = mot.mot_dual(mu, nu, cost)
    sym, vs = mot.mot_dual_symmetric(mu, nu, cost)
    return (coupling, vp), (dual, vd), (sym, vs)


@given(lattice_martingale_pairs())
def test_tie_heavy_martingale_pairs(pair):
    mu, nu, cost = pair
    (coupling, vp), (dual, vd), (sym, vs) = _mot_outputs(mu, nu, cost)
    assert abs(vp - vd) <= 1e-9
    assert dual.max_violation(cost) <= 1e-9
    assert vs <= vd + 1e-9
    A, b, _ = _symmetric_referee(mu, nu, cost)
    assert _symmetric_row_excess(sym, A, b) <= 1e-9
    assert sym.max_violation(cost) <= 1e-9
    assert co.convex_order_check(mu, nu).in_order
    assert not co.convex_order_check(nu, mu).in_order
    with pytest.raises(NotInConvexOrder):
        mot.mot_dual_symmetric(nu, mu, cost)
    (coupling2, vp2), (dual2, vd2), (sym2, vs2) = _mot_outputs(mu, nu, cost)
    assert coupling2.mass.tobytes() == coupling.mass.tobytes()
    for a, b2 in ((dual.u, dual2.u), (dual.v, dual2.v),
                  (dual.gamma, dual2.gamma), (sym.f, sym2.f),
                  (sym.gamma, sym2.gamma)):
        assert a.tobytes() == b2.tobytes()
    assert (vp, vd, vs) == (vp2, vd2, vs2)


# --- simplex inequalities -----------------------------------------------------

def test_simplex_check_jensen():
    box = Box([-1.0], [1.0])
    res = mot.simplex_inequality_check(sq, sq, ZERO, box, 500, seed=7)
    assert res.ok


@pytest.mark.parametrize("n", [0, -3])
def test_sampled_checks_refuse_no_samples(n):
    # no sample would report ok with a largest violation of -inf
    box = Box([-1.0], [1.0])
    with pytest.raises(BadCheckParameter, match="at least one sample"):
        mot.simplex_inequality_check(neg_sq, neg_sq, ZERO, box, n, seed=7)
    with pytest.raises(BadCheckParameter, match="at least one sample"):
        mot.mti_check(ms.CostSpec.custom(lambda x, y: -abs(x - y)[0]), box,
                      n, 3)


def test_simplex_check_concave_witness():
    box = Box([-1.0], [1.0])
    res = mot.simplex_inequality_check(neg_sq, neg_sq, ZERO, box, 1000,
                                       seed=7)
    assert not res.ok
    assert res.witness.violation > 1e-8
    # the witness recomputes
    v = mot.simplex_violation(neg_sq, neg_sq, ZERO, res.witness.atoms,
                              res.witness.lambdas)
    assert v == pytest.approx(res.witness.violation)


def test_simplex_check_variance_identity():
    # -x^2 against squared distance: equality within float noise
    box = Box([-1.0], [1.0])
    res = mot.simplex_inequality_check(neg_sq, neg_sq,
                                       ms.CostSpec.sq_euclidean(), box,
                                       500, seed=7)
    assert res.ok
    assert abs(res.max_violation) <= 1e-9


def test_simplex_sampling_deterministic():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    f = FunctionEvaluator.quadratic(np.eye(2), [0.0, 0.0])
    a = mot.simplex_inequality_check(f, f, ms.CostSpec.zero(2), box, 200, 3)
    b = mot.simplex_inequality_check(f, f, ms.CostSpec.zero(2), box, 200, 3)
    assert a.max_violation == b.max_violation


def test_sample_streams_differ_across_seed_and_index():
    # seed 0, index 5 and seed 5, index 0 once drew the same tuple
    box = Box([-1.0, -1.0], [1.0, 1.0])
    a = mot._sample_tuple(box, 0, 5, with_base=True)
    b = mot._sample_tuple(box, 5, 0, with_base=True)
    assert not np.allclose(a[0], b[0])
    assert not np.allclose(a[2], b[2])


# --- gamma certification ------------------------------------------------------

def test_gamma_certify_convex():
    X = np.array([[-1.0], [0.0], [1.0]])
    res = mot.gamma_certify(sq, sq, X, X, ZERO)
    assert res.ok
    # any returned field must satisfy the defining inequalities
    for i, x in enumerate(X):
        for y in X:
            assert sq(x) - sq(y) <= float(res.gammas[i] @ (y - x)) + 1e-9


def test_gamma_certify_concave_fails_at_zero():
    X = np.array([[-1.0], [0.0], [1.0]])
    res = mot.gamma_certify(neg_sq, neg_sq, X, X, ZERO)
    assert not res.ok
    assert res.counterexample.point[0] == pytest.approx(0.0)
    assert len(res.counterexample.binding) >= 2


def test_gamma_certify_concave_with_sq_cost():
    X = np.array([[-1.0], [0.0], [1.0]])
    res = mot.gamma_certify(neg_sq, neg_sq, X, X,
                            ms.CostSpec.sq_euclidean())
    assert res.ok


def test_certified_pair_passes_constructed_simplex_tuples():
    # gamma certificates on X imply the simplex inequality whenever the
    # barycenter lands in X and the atoms in Y: build such tuples directly
    rng = np.random.default_rng(11)
    X = np.linspace(-1, 1, 21).reshape(-1, 1)
    cost = ms.CostSpec.euclidean()
    f = mot.bclass_generate([([0.3], [0.5], 0.2), ([-0.4], [-1.0], 0.0)],
                            cost)
    res = mot.gamma_certify(f, f, X, X, cost)
    assert res.ok
    worst = -np.inf
    for _ in range(2000):
        xbar = X[int(rng.integers(len(X)))]
        lo = X[X[:, 0] <= xbar[0]]
        hi = X[X[:, 0] >= xbar[0]]
        a = lo[int(rng.integers(len(lo)))]
        b = hi[int(rng.integers(len(hi)))]
        if a[0] == b[0]:
            lam = np.array([1.0])
            atoms = a.reshape(1, -1)
        else:
            t = (xbar[0] - a[0]) / (b[0] - a[0])
            lam = np.array([1.0 - t, t])
            atoms = np.vstack([a, b])
        worst = max(worst, mot.simplex_violation(f, f, cost, atoms, lam))
    assert worst <= 1e-8


# --- function class generation and extension ----------------------------------

def test_bclass_single_atom_metric():
    f = mot.bclass_generate([([0.0], [0.0], 0.0)], ms.CostSpec.euclidean())
    for x in (-2.0, -0.5, 0.0, 1.5):
        assert f([x]) == pytest.approx(-abs(x))


def test_bclass_affine_pieces_zero_cost():
    f = mot.bclass_generate([([0.0], [1.0], 0.0), ([0.0], [-1.0], 0.0)],
                            ZERO)
    for x in (-1.0, 0.25, 2.0):
        assert f([x]) == pytest.approx(abs(x))


def test_bclass_value_at_atom():
    f = mot.bclass_generate([([0.0], [0.0], 5.0)], ZERO)
    assert f([0.0]) == pytest.approx(5.0)
    with pytest.raises(EmptyAtoms):
        mot.bclass_generate([], ZERO)


def test_extend_worked_example():
    K = np.linspace(-1, 1, 2001).reshape(-1, 1)
    g = (K ** 2).ravel()
    gamma = -2.0 * K
    res = mot.extend(K, g, ZERO, gamma, [[2.0]])
    assert res.values[0] == pytest.approx(3.0, abs=1e-5)
    assert res.restriction_error <= 1e-9


def test_extend_restriction_is_identity():
    K = np.linspace(-1, 1, 201).reshape(-1, 1)
    g = (K ** 2).ravel()
    gamma = -2.0 * K
    inside = [[0.37], [-0.81]]
    res = mot.extend(K, g, ZERO, gamma, inside)
    # targets inside the hull agree with g up to the grid resolution
    for p, v in zip(inside, res.values):
        assert v == pytest.approx(p[0] ** 2, abs=1e-2)


def test_extend_with_lower_bound():
    K = np.linspace(-1, 1, 201).reshape(-1, 1)
    g = (K ** 2).ravel()
    gamma = -2.0 * K
    lb = FunctionEvaluator.quadratic([[1.0]], [0.0], -0.5)
    res = mot.extend(K, g, ZERO, gamma, [[2.0], [0.5]], lower_bound=lb)
    plain = mot.extend(K, g, ZERO, gamma, [[2.0], [0.5]])
    for v, v0, p in zip(res.values, plain.values, [[2.0], [0.5]]):
        assert v == pytest.approx(max(v0, p[0] ** 2 - 0.5))
        assert v >= lb(p) - 1e-12


def test_extend_error_cases():
    K = np.array([[0.0], [1.0]])
    g = np.array([0.0, 1.0])
    no_growth = ms.CostSpec.sq_euclidean()
    with pytest.raises(MissingGrowth):
        mot.extend(K, g, no_growth, np.zeros((2, 1)), [[2.0]])
    with pytest.raises(GammaMissing):
        mot.extend(K, g, ZERO, {(0.0,): [0.0]}, [[2.0]])
    bad_lb = FunctionEvaluator.quadratic([[0.0]], [0.0], 10.0)
    with pytest.raises(LowerBoundViolation):
        mot.extend(K, g, ZERO, np.array([[-0.0], [-2.0]]), [[2.0]],
                   lower_bound=bad_lb)
    # gamma = 0 makes the envelope max(g) = 1 on the whole grid
    with pytest.raises(RestrictionDeviates,
                       match="restriction deviates by 1.000e"):
        mot.extend(K, g, ZERO, np.zeros((2, 1)), [[2.0]])


def test_extended_function_stays_in_class():
    # the envelope is itself a supremum of cost-affine atoms, so it must
    # pass the sampled simplex inequality for a metric cost
    cost = ms.CostSpec.euclidean()
    K = np.linspace(-1, 1, 41).reshape(-1, 1)
    g0 = mot.bclass_generate([([0.2], [0.4], 0.1), ([-0.5], [-0.2], 0.0)],
                             cost)
    gv = g0.on(K)
    cert = mot.gamma_certify(g0, g0, K, K, cost)
    assert cert.ok
    extended = mot.bclass_generate(
        [(K[i], -cert.gammas[i], gv[i]) for i in range(len(K))], cost)
    res = mot.simplex_inequality_check(extended, extended, cost,
                                       Box([-2.0], [2.0]), 2000, seed=5)
    assert res.ok


# --- uniform convexity / smoothness -------------------------------------------

def test_ucvx_quadratic_certifies():
    t2 = ModulusSpec.power(2)
    for dim in (1, 2, 3):
        grid = Grid(Box([-1.0] * dim, [1.0] * dim), (5,) * dim).points()
        f = FunctionEvaluator.quadratic(np.eye(dim), np.zeros(dim))
        res = mot.uniform_convexity_certify(f, t2, grid)
        assert res.ok
        # the certificate at x is the gradient 2x
        assert np.allclose(res.gammas, 2.0 * grid, atol=1e-7)


def test_ucvx_abs_fails_interior():
    t2 = ModulusSpec.power(2)
    grid = np.linspace(-1, 1, 21).reshape(-1, 1)
    res = mot.uniform_convexity_certify(FunctionEvaluator.abs_norm(), t2,
                                        grid)
    assert not res.ok
    x = res.counterexample.point[0]
    assert -1.0 < x < 1.0
    assert len(res.counterexample.binding) >= 2


def test_ucvx_abs_two_constraint_infeasibility():
    # at x = 1/2 the neighbors 1/2 +- 0.1 force gamma >= 1.1 and
    # gamma <= 0.9 simultaneously
    grid = np.array([[0.4], [0.5], [0.6]])
    res = mot.uniform_convexity_certify(FunctionEvaluator.abs_norm(),
                                        ModulusSpec.power(2), grid)
    assert not res.ok
    assert res.counterexample.point[0] == pytest.approx(0.5)
    ys = sorted(y[0] for y, _ in res.counterexample.binding)
    assert ys == [pytest.approx(0.4), pytest.approx(0.6)]


def _farkas_cases():
    """(D, r) systems <g, y_j - x> <= r_j at every point x of seeded 1-D
    and 2-D sets: random points under a noisy quadratic, integer lattices
    with integer values (many exact ties), a 5 x 5 grid whose centre is
    raised above a uniformly convex quadratic, and a 7 x 7 quadratic grid
    (24 of its 49 points on the boundary) under a modulus it meets and one
    it does not. Then X = Y systems, which keep the zero row y = x: its
    r is 0, or -0.05 where every point is refuted by that row alone. Last,
    two systems refuted by 4e-9, inside 1e-8 (1 + max|r|) but beyond the
    LP's FEAS_TOL (1 + max|r|): rows -g <= r and g <= r, and a zero row."""
    rng = np.random.default_rng(20261018)
    sets = []
    for d in (1, 2):
        for _ in range(8):
            P = rng.uniform(-1.0, 1.0, (9, d))
            f = (P ** 2).sum(axis=1) + rng.normal(0.0, 0.1, 9)
            sets.append((P, f, rng.uniform(0.0, 1.0)))
    line = np.arange(-3.0, 4.0).reshape(-1, 1)
    lattice = Grid(Box([-2.0, -2.0], [2.0, 2.0]), (5, 5)).points()
    for P in (line, lattice):
        for f in (np.abs(P).sum(axis=1), np.abs(P).max(axis=1),
                  -np.abs(P).sum(axis=1), np.round((P ** 2).sum(axis=1) / 2)):
            sets.append((P, f, 0.0))
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (5, 5)).points()
    raised = (grid ** 2).sum(axis=1)
    raised[12] += 0.3
    sets.append((grid, raised, 1.0))
    fine = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7)).points()
    quad = np.einsum("ij,jk,ik->i", fine, [[2.0, 0.5], [0.5, 1.5]], fine)
    sets += [(fine, quad, 1.0), (fine, quad, 2.5)]
    for P, f, s in sets:
        for i, x in enumerate(P):
            D = np.delete(P, i, axis=0) - x
            r = np.delete(f, i) - f[i] - s * (D ** 2).sum(axis=1)
            yield D, r
    xs = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    bclass = FunctionEvaluator.bclass_sup(
        [([0.15], [0.5], 0.1), ([-0.4], [-0.8], 0.0)],
        ms.CostSpec.euclidean()).on(xs)
    for P, f, shift in ((xs, bclass, 0.0), (xs, bclass, 0.05),
                        (lattice, np.abs(lattice).sum(axis=1), 0.0)):
        for x, fx in zip(P, f):
            D = P - x
            yield D, f - fx + np.linalg.norm(D, axis=1) - shift
    yield np.array([[-1.0], [1.0]]), np.full(2, -4e-9)
    yield np.array([[0.0], [-1.0], [1.0]]), np.array([-4e-9, 1.0, 1.0])


def _referee_feasible(D, r):
    """The (n - 1)-row system solved directly for g, each component of g
    split into a column pair."""
    split, _, _ = split_free(D, np.ones(D.shape[1], dtype=bool))
    prog, start = with_slacks(None, split, ["<="] * len(r), r)
    return lp.check_feasibility(prog.A, prog.b, start).status == lp.OPTIMAL


def _certify_one_point(D, r):
    """``_certify_points`` on the one-point system D g <= r (x = 0, so
    Y = D): (g, None), or (None, (row indices, weights)) of the binding
    core, its points located among the rows of D."""
    res = mot._certify_points(np.zeros((1, D.shape[1])), D, r[None], 1.0)
    if res.ok:
        return res.gammas[0], None
    binding = res.counterexample.binding
    idx = np.array([np.flatnonzero((D == y).all(axis=1))[0]
                    for y, _ in binding])
    return None, (idx, np.array([w for _, w in binding]))


def test_farkas_point_matches_direct_system():
    verdicts = set()
    for D, r in _farkas_cases():
        g, core = _certify_one_point(D, r)
        assert (core is None) == _referee_feasible(D, r)
        verdicts.add(core is None)
        if core is None:
            assert np.max(D @ g - r) <= 1e-8
            continue
        idx, lam = core
        assert len(idx) <= D.shape[1] + 1
        assert lam.min() > 0 and lam.sum() == pytest.approx(1.0)
        assert not _referee_feasible(D[idx], r[idx])
        for k in range(len(idx)):
            keep = np.delete(idx, k)
            assert _referee_feasible(D[keep], r[keep])
    assert verdicts == {True, False}


def _bclass_line():
    """41 points on [-1, 1] and a bclass_sup under the euclidean cost on
    them, whose kinks fall between the points."""
    xs = np.linspace(-1.0, 1.0, 41).reshape(-1, 1)
    fx = FunctionEvaluator.bclass_sup(
        [([0.1234], [0.6], 0.0), ([-0.5321], [-0.3], 0.1),
         ([0.8111], [1.0], -0.2)], ms.CostSpec.euclidean()).on(xs)
    return xs, fx


def _certify_systems():
    """(X, Y, R, orient, skip_self) as the certifiers build them: 7 x 7
    grids under sigma(t) = t^2, for the uniform convexity of x'Qx
    (Q = AA' + I) and the uniform smoothness of -x'Qx, with one seeded
    point (centre, corner, edge or interior) moved against the modulus or
    none; a 1-D bclass_sup whose kinks fall between the 41 grid points,
    certified with X = Y under the euclidean cost (certifiable) and the
    zero cost (refuted); a 4 x 4 x 4 grid, whose fits have p = 9
    features, for the uniform convexity of x'Qx, as it is and with its
    point 21 raised by 1. Last, two systems refuted by 4e-9, inside
    1e-8 (1 + max|r|) but beyond the LP's FEAS_TOL (1 + max|r|): the
    midpoint of [-1, 0, 1] with values 1 - 4e-9, 0, 1 - 4e-9 under
    sigma(t) = t^2 (its fitted slope 0 misses both rows by 4e-9), and an
    X = Y grid whose zero rows have r = -4e-9."""
    rng = np.random.default_rng(20261019)
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7)).points()
    sq_dist = ((grid[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    for moved in (None, 24, 0, 3, 16, 40):
        A = rng.uniform(-0.5, 0.5, (2, 2))
        f = np.einsum("ij,jk,ik->i", grid, A @ A.T + np.eye(2), grid)
        bump = np.zeros(len(grid))
        if moved is not None:
            bump[moved] = rng.uniform(0.5, 1.0)
        for h, orient in ((f + bump / 2, 1.0), (-f - bump, -1.0)):
            yield grid, grid, h[None, :] - h[:, None] - sq_dist, orient, True
    xs, fx = _bclass_line()
    for cost in (ms.CostSpec.euclidean(), ZERO):
        yield xs, xs, fx[:, None] - fx[None, :] - cost.pairwise(xs, xs), \
            -1.0, False
    cube = Grid(Box([-1.0] * 3, [1.0] * 3), (4, 4, 4)).points()
    A = rng.uniform(-0.5, 0.5, (3, 3))
    f = np.einsum("ij,jk,ik->i", cube, A @ A.T + np.eye(3), cube)
    bump = np.zeros(len(cube))
    bump[21] = 1.0
    sq_dist = ((cube[:, None, :] - cube[None, :, :]) ** 2).sum(axis=2)
    for h in (f, f + bump):
        yield cube, cube, h[None, :] - h[:, None] - sq_dist, 1.0, True
    tri = np.array([[-1.0], [0.0], [1.0]])
    h = np.array([1.0 - 4e-9, 0.0, 1.0 - 4e-9])
    yield tri, tri, h[None, :] - h[:, None] - (tri - tri.T) ** 2, 1.0, True
    line = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
    h = 2.0 * line[:, 0] ** 2
    R = h[None, :] - h[:, None] - (line - line.T) ** 2 - 4e-9 * np.eye(5)
    yield line, line, R, 1.0, False


def _certify_by_lp(X, Y, R, orient, skip_self):
    """The first refuted point of an LP at every point, with its binding
    core, or None."""
    for i, x in enumerate(X):
        keep = np.arange(len(Y)) != i if skip_self else slice(None)
        _, core = mot._farkas_lp(Y[keep] - x, orient * R[i, keep])
        if core is not None:
            return i, [(Y[keep][k], w) for k, w in zip(*core)]
    return None


def _assert_agrees_with_lp(res, X, Y, R, orient, skip_self, tol):
    """``res`` has ``_certify_by_lp``'s verdict: the same refuted index,
    point and binding core, byte for byte, or gammas that meet every row
    within tol (1 + max|r|). Returns the number of points the reference
    visited."""
    ref = _certify_by_lp(X, Y, R, orient, skip_self)
    assert res.ok == (ref is None)
    if not res.ok:
        index, binding = ref
        cex = res.counterexample
        assert cex.index == index
        assert cex.point.tobytes() == X[index].tobytes()
        assert len(cex.binding) == len(binding)
        for (y, w), (y_ref, w_ref) in zip(cex.binding, binding):
            assert y.tobytes() == y_ref.tobytes() and w == w_ref
        return index + 1
    for i, x in enumerate(X):
        keep = np.arange(len(Y)) != i if skip_self else slice(None)
        r = orient * R[i, keep]
        excess = orient * ((Y[keep] - x) @ res.gammas[i]) - r
        assert excess.max(initial=0.0) \
            <= tol * (1.0 + np.abs(r).max(initial=0.0))
    return len(X)


def test_candidates_keep_every_lp_verdict(monkeypatch):
    farkas_lp, lps, visited = mot._farkas_lp, [], 0

    def spy_lp(D, r):
        lps.append(len(r))
        return farkas_lp(D, r)
    monkeypatch.setattr(mot, "_farkas_lp", spy_lp)
    verdicts = set()
    for system in _certify_systems():
        res = mot._certify_points(*system)
        verdicts.add(res.ok)
        visited += _assert_agrees_with_lp(res, *system, 1e-8)
    assert verdicts == {True, False}
    # the reference's own LPs are counted too: one per point it visits
    assert 0 < len(lps) - visited < visited / 4


def test_refit_spares_the_raised_centres_window(monkeypatch):
    # x'Qx on a 7 x 7 grid under sigma(t) = t^2, its centre (point 24)
    # raised by 0.25: the raised row spoils the fit of every point whose
    # window holds the centre. Without the refit, three of the points
    # before it reach the LP; refitted without the row of largest
    # leave-one-out residual, the centre's, they are certified, and only
    # the centre's refutation solves.
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7)).points()
    f = np.einsum("ij,jk,ik->i", grid, [[1.1, 0.05], [0.05, 1.25]], grid)
    f[24] += 0.25
    sq_dist = ((grid[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    system = (grid, grid, f[None, :] - f[:, None] - sq_dist, 1.0, True)
    calls = count_solves(monkeypatch)
    res = mot._certify_points(*system)
    assert len(calls) == 1
    assert res.counterexample.index == 24
    _assert_agrees_with_lp(res, *system, 1e-8)


def test_refit_drops_the_raised_centres_row_two_steps_away(monkeypatch):
    # the raised grid of the certify_grid benchmark (seed 41, task 0):
    # x'Qx with Q = AA' + I on a 7 x 7 grid, its centre raised by delta.
    # Points 10 and 22, two steps from the centre along an axis, miss a
    # row with their fitted gradients; under the plain residual their
    # worst row is the neighbour between them and the centre, but their
    # row of largest leave-one-out residual is the centre's. Refitted
    # without it they are certified, and the LP runs only at the centre.
    rng = np.random.default_rng(np.random.SeedSequence([41, 3, 0]))
    A = rng.uniform(-0.5, 0.5, (2, 2))
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7)).points()
    f = np.einsum("ij,jk,ik->i", grid, A @ A.T + np.eye(2), grid)
    f[24] += rng.uniform(0.1, 0.5)
    f = FunctionEvaluator.samples(grid, f)
    _, _, R = mot._modulus_rows(f, ModulusSpec.power(2), grid)
    D, r = mot._point_rows(grid, grid, R, 1.0, True)
    g, fitted, loo = mot._fitted_gradients(D, r)
    missed = fitted & ~mot._meets_rows(D, r, g, lp.FEAS_TOL)
    assert missed[[10, 22]].all()
    assert (loo(np.array([10, 22])).argmax(axis=1) == 24).all()
    farkas_lp, at = mot._farkas_lp, []

    def spy_lp(D, r):
        at.append(int(np.flatnonzero((grid == grid[0] - D[0]).all(1))[0]))
        return farkas_lp(D, r)
    monkeypatch.setattr(mot, "_farkas_lp", spy_lp)
    res = mot.uniform_convexity_certify(f, ModulusSpec.power(2), grid)
    assert res.counterexample.index == 24
    assert at == [24]


def test_leave_one_out_residuals_only_for_missed_points(monkeypatch):
    # the hat diagonals are paid for by the points a refit reads them
    # for: none on the unraised quadratic, the missed points on the raised
    fit, asked = mot._fitted_gradients, []

    def spy_fit(D, r, use=None):
        g, fitted, loo = fit(D, r, use)

        def spy_loo(at):
            asked.append(at.tolist())
            return loo(at)
        return g, fitted, spy_loo
    monkeypatch.setattr(mot, "_fitted_gradients", spy_fit)
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7)).points()
    Q = np.array([[1.5, 0.25], [0.25, 1.25]])
    f = np.einsum("ij,jk,ik->i", grid, Q, grid)
    sigma = ModulusSpec.power(2)
    quadratic = FunctionEvaluator.quadratic(Q, np.zeros(2))
    assert mot.uniform_convexity_certify(quadratic, sigma, grid).ok
    assert asked == []
    f[24] += 0.3
    raised = FunctionEvaluator.samples(grid, f)
    _, _, R = mot._modulus_rows(raised, sigma, grid)
    D, r = mot._point_rows(grid, grid, R, 1.0, True)
    g, fitted, _ = fit(D, r)
    missed = np.flatnonzero(fitted & ~mot._meets_rows(D, r, g, lp.FEAS_TOL))
    assert not mot.uniform_convexity_certify(raised, sigma, grid).ok
    assert missed.size and asked == [missed.tolist()]


@st.composite
def dented_grids(draw):
    """(X, Y, R, orient, skip_self) as the certifiers build them for the
    uniform convexity of x'Qx, or the uniform smoothness of -x'Qx, on a
    5 x 5 grid under sigma(t) = s t^2, with every point's row to one
    drawn other point dented against the modulus by an amount from 1e-9
    (within the LP's verdict threshold) to 1 (beyond any slack)."""
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (5, 5)).points()
    n = len(grid)
    a, c = draw(st.lists(st.sampled_from([1.0, 1.25, 1.5, 2.0]),
                         min_size=2, max_size=2))
    b = draw(st.sampled_from([-0.25, 0.0, 0.25]))
    s = draw(st.sampled_from([0.0, 0.5, 1.0]))
    orient = draw(st.sampled_from([1.0, -1.0]))
    others = draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    dents = draw(st.lists(st.sampled_from([1e-9, 4e-9, 1e-3, 0.05, 0.3,
                                           1.0]), min_size=n, max_size=n))
    h = orient * np.einsum("ij,jk,ik->i", grid, [[a, b], [b, c]], grid)
    R = h[None, :] - h[:, None] \
        - s * ((grid[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    for i, (j, dent) in enumerate(zip(others, dents)):
        R[i, j + (j >= i)] -= orient * dent
    return grid, grid, R, orient, True


@given(dented_grids())
def test_refit_never_accepts_a_refuted_point(system):
    # each point alone: its fit, its refit without its worst row, then
    # the LP, which must agree on the verdict; then the whole grid
    X, Y, R, orient, _ = system
    for i, x in enumerate(X):
        keep = np.arange(len(Y)) != i
        D, r = Y[keep] - x, orient * R[i, keep]
        _, core = _certify_one_point(D, r)
        assert (core is None) == (mot._farkas_lp(D, r)[1] is None)
    _assert_agrees_with_lp(mot._certify_points(*system), *system, 1e-8)


@st.composite
def line_systems(draw):
    """(X, Y, R, orient, skip_self) in one dimension: points on the
    integer lattice {-2..2}, where points may repeat, and Y on both sides
    of the lattice or on one, with its 0 as -0.0 (so the row y - x = -0.0
    - 0.0 is -0.0); or Y = X under ``skip_self``. Each point's rows are
    r = D g + s - shift for an integer slope g and slacks s in {0, 1, 2}
    (half of them 0, so rows are often tight), up to three of them dented
    to -1 (which may refute the point), and one shift in {0, +-1e-9,
    +-4e-9} for the system, which moves the rows with zero slack to within
    4e-9 of feasibility. Last, whether the system is clean: no dent and
    no positive shift, so every point's g meets its rows exactly."""
    lattice = [-2.0, -1.0, 0.0, 1.0, 2.0]
    X = np.array(draw(st.lists(st.sampled_from(lattice), min_size=1,
                               max_size=5)))[:, None]
    skip_self = draw(st.booleans())
    if skip_self:
        Y = X
    else:
        signed = [-2.0, -1.0, -0.0, 1.0, 2.0]
        side = draw(st.sampled_from([signed, signed[:3], signed[2:]]))
        Y = np.array(draw(st.lists(st.sampled_from(side), min_size=1,
                                   max_size=6)))[:, None]
    n, m = len(X), len(Y)
    g = np.array(draw(st.lists(st.integers(-2, 2), min_size=n,
                               max_size=n)), dtype=float)
    s = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]),
                               min_size=n * m, max_size=n * m))).reshape(n, m)
    dents = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, m - 1)), max_size=3))
    for i, j in dents:
        s[i, j] = -1.0
    shift = draw(st.sampled_from([0.0, 1e-9, -1e-9, 4e-9, -4e-9]))
    orient = draw(st.sampled_from([1.0, -1.0]))
    r = (Y[:, 0][None, :] - X) * g[:, None] + s - shift
    return X, Y, orient * r, orient, skip_self, not dents and shift <= 0


@given(line_systems())
def test_line_candidates_keep_every_lp_verdict(system):
    *system, clean = system
    with pytest.MonkeyPatch.context() as mp:
        calls = count_solves(mp)
        res = mot._certify_points(*system)
    _assert_agrees_with_lp(res, *system, lp.FEAS_TOL)
    # a line's candidate is exact: a feasible point never reaches the LP
    assert not clean or (res.ok and not calls)


@pytest.mark.parametrize("cost, solves", [(ms.CostSpec.euclidean(), 0),
                                          (ZERO, 1)])
def test_line_solves_an_lp_only_to_refute(monkeypatch, cost, solves):
    # every point of a line has its exact interval of slopes, so only the
    # refuted point reaches the LP, for its binding core
    xs, fx = _bclass_line()
    calls = count_solves(monkeypatch)
    res = mot.gamma_certify(fx, fx, xs, xs, cost)
    assert len(calls) == solves
    assert res.ok == (solves == 0)
    if not res.ok:
        assert len(res.counterexample.binding) <= 2


def _fit_systems():
    """(X, Y, R, orient, skip_self) for the batched fit: smooth functions
    on a 9-point line, a 5 x 5 lattice (with and without its self rows,
    and jittered by 1 % of its step) and a 4 x 4 x 4 grid; X = Y systems
    whose zero rows are kept with r = -0.05 there; the 5 x 5 lattice
    against a 9 x 9 one through its points. Then six random points
    against the 5 x 5 lattice, each with fewer than p = 5 near rows; two
    points, one whose rows are all zero and one with three equal rows;
    and the lattice with seven far points on a line, whose near rows are
    collinear (six of them at its first point, at 0.5 to 1 from it)."""
    rng = np.random.default_rng(20261020)
    line = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    square = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (5, 5)).points()
    cube = Grid(Box([-1.0] * 3, [1.0] * 3), (4, 4, 4)).points()
    jitter = square + rng.uniform(-0.005, 0.005, square.shape)
    smooth = [(line, np.exp(line[:, 0]) + np.sin(3.0 * line[:, 0])),
              (square, np.cos(square @ [1.0, 0.5]) + (square ** 2).sum(1)),
              (jitter, np.exp(jitter @ [0.3, -0.7])),
              (cube, np.cos(cube @ [0.4, -0.2, 0.9]) + (cube ** 3).sum(1))]
    for P, f in smooth:
        R = f[None, :] - f[:, None] - 0.5 * ((P[:, None] - P) ** 2).sum(2)
        yield P, P, R, 1.0, True
        yield P, P, R - 0.05 * np.eye(len(P)), -1.0, False
    fine = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (9, 9)).points()
    R = np.cos(fine @ [1.0, 0.5])[None, :] - np.cos(square @ [1.0, 0.5])[
        :, None]
    yield square, fine, R, 1.0, False
    X = rng.uniform(-0.9, 0.9, (6, 2))
    R = np.cos(square @ [1.0, 0.5])[None, :] - X.sum(1)[:, None]
    yield X, square, R, 1.0, False
    X = np.array([[0.3, -0.2], [1.3, -0.2]])
    yield X, X[[0, 0, 0]], np.zeros((2, 3)), 1.0, False
    t = np.array([0.0, -1.0, -0.75, -0.5, 0.5, 0.6, 1.0])[:, None]
    P = np.vstack([square, [3.1, 0.2] + t * [0.6, 0.8]])
    f = (P ** 2).sum(1)
    yield P, P, f[None, :] - f[:, None], -1.0, True


def _lstsq_gradient(D, r, use=None):
    """One point's fit by np.linalg.lstsq: the quadratic model on its
    nonzero rows with |D_j|^2 <= 4.5 min |D_j|^2, less the rows outside
    the mask ``use``, scaled by the nearest nonzero distance. Returns its
    linear part and the leave-one-out |residual| of every fitted row, its
    miss under the model refitted without it (0 where that refit is
    undetermined, and off the fitted rows), or None when the rows are all
    zero or do not determine the model."""
    sq = (D ** 2).sum(axis=1)
    if not (sq > 0).any():
        return None
    nearest = sq[sq > 0].min()
    near = (sq > 0) & (sq <= 4.5 * nearest)
    if use is not None:
        near &= use
    U = D[near] / np.sqrt(nearest)
    d = D.shape[1]
    M = np.column_stack([U] + [U[:, a] * U[:, b] for a in range(d)
                               for b in range(a, d)])

    def fit(rows):
        coef, _, rank, _ = np.linalg.lstsq(M[rows], r[near][rows],
                                           rcond=None)
        return coef if rank == M.shape[1] else None

    coef = fit(np.ones(len(M), dtype=bool))
    if coef is None:
        return None
    loo = np.zeros(len(r))
    for k, j in enumerate(np.flatnonzero(near)):
        rest = fit(np.arange(len(M)) != k)
        if rest is not None:
            loo[j] = abs(M[k] @ rest - r[j])
    return coef[:d] / np.sqrt(nearest), loo


def _assert_fit_matches(g, loo, ref, r):
    np.testing.assert_allclose(g, ref[0], rtol=1e-9, atol=1e-12)
    # a leave-one-out residual is divided by 1 - h_jj, so its rounding
    # grows with the row's leverage
    np.testing.assert_allclose(
        loo, ref[1], rtol=1e-6,
        atol=1e-10 * (1.0 + np.abs(r).max(initial=0.0)))


def test_batched_fit_matches_lstsq_per_point():
    dims, unfitted = set(), 0
    for X, Y, R, orient, skip_self in _fit_systems():
        D, r = mot._point_rows(X, Y, R, orient, skip_self)
        g, fitted, loo = mot._fitted_gradients(D, r)
        loo = loo(np.arange(len(X)))
        for i, x in enumerate(X):
            keep = np.arange(len(Y)) != i if skip_self else slice(None)
            ref = _lstsq_gradient(Y[keep] - x, orient * R[i, keep])
            assert fitted[i] == (ref is not None)
            if ref is None:
                unfitted += 1
                continue
            _assert_fit_matches(g[i], loo[i, keep], ref, r[i])
            dims.add(X.shape[1])
        res = mot._certify_points(X, Y, R, orient, skip_self)
        assert res.ok == (_certify_by_lp(X, Y, R, orient, skip_self) is None)
    assert dims == {1, 2, 3}
    # the six random points, the all-zero point, the equal rows and the
    # seven points of the line
    assert unfitted == 15


def test_dropped_row_fit_matches_lstsq_per_point():
    # the refit of ``_certify_points``: each fitted point leaves out its
    # near row of largest leave-one-out residual, picked here by the
    # reference's own refits
    refits, unfitted = 0, 0
    for X, Y, R, orient, skip_self in _fit_systems():
        D, r = mot._point_rows(X, Y, R, orient, skip_self)
        use = np.ones(r.shape, dtype=bool)
        refs = {}
        for i, x in enumerate(X):
            keep = np.arange(len(Y)) != i if skip_self \
                else np.ones(len(Y), dtype=bool)
            ref = _lstsq_gradient(Y[keep] - x, orient * R[i, keep])
            if ref is not None:
                use[i, np.flatnonzero(keep)[ref[1].argmax()]] = False
                refs[i] = _lstsq_gradient(Y[keep] - x, orient * R[i, keep],
                                          use[i, keep])
        g, fitted, loo = mot._fitted_gradients(D, r, use)
        loo = loo(np.arange(len(X)))
        for i, ref in refs.items():
            keep = np.arange(len(Y)) != i if skip_self else slice(None)
            assert fitted[i] == (ref is not None)
            if ref is None:
                unfitted += 1
                continue
            _assert_fit_matches(g[i], loo[i, keep], ref, r[i])
            refits += 1
    assert refits > 0 and unfitted > 0


def test_farkas_points_skip_phase_one(monkeypatch):
    # lam = 0 with the sum(lam) <= 1 slack, column 48, is a feasible
    # basis, and the d barycenter rows have rhs 0: their artificials start
    # at level 0, so phase 1 must not pivot. The candidate gamma certifies
    # every point of this grid without an LP, so the LP step runs on its
    # 49 point systems directly.
    phases, solves = [], []
    pivot_loop, solve = lp._pivot_loop, lp.solve
    params = inspect.signature(pivot_loop)

    def spy_loop(*args, **kwargs):
        phases.append(params.bind(*args, **kwargs).arguments["phase"])
        return pivot_loop(*args, **kwargs)

    def spy_solve(problem, *args, **kwargs):
        solves.append(np.shape(problem.A))
        return solve(problem, *args, **kwargs)
    monkeypatch.setattr(lp, "_pivot_loop", spy_loop)
    monkeypatch.setattr(lp, "solve", spy_solve)
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7)).points()
    f = FunctionEvaluator.quadratic(np.array([[2.0, 0.5], [0.5, 1.5]]),
                                    np.zeros(2))
    pts, _, R = mot._modulus_rows(f, ModulusSpec.power(2), grid)
    for i, x in enumerate(pts):
        D = np.delete(pts, i, axis=0) - x
        _, core = mot._farkas_lp(D, np.delete(R[i], i))
        assert core is None
    assert solves == [(3, 49)] * 49
    assert 1 not in phases
    assert 2 in phases


def test_ucvx_max_affine_zero_modulus():
    f = FunctionEvaluator.max_affine([([1.0], 0.0), ([-0.5], 0.3)])
    grid = np.linspace(-1, 1, 15).reshape(-1, 1)
    res = mot.uniform_convexity_certify(f, ModulusSpec.zero(), grid)
    assert res.ok


def test_usmooth_examples():
    grid = np.linspace(-1, 1, 15).reshape(-1, 1)
    t2 = ModulusSpec.power(2)
    neg = FunctionEvaluator.quadratic([[-1.0]], [0.0])
    assert mot.uniform_smoothness_certify(neg, t2, grid).ok
    convex = FunctionEvaluator.quadratic([[1.0]], [0.0])
    assert not mot.uniform_smoothness_certify(convex, ModulusSpec.zero(),
                                              grid).ok
    affine = FunctionEvaluator.max_affine([([0.7], 0.1)])
    res = mot.uniform_smoothness_certify(affine, ModulusSpec.zero(), grid)
    assert res.ok
    # two-sided constraints force gamma = slope at interior points;
    # endpoints are one-sided and admit other values
    assert np.allclose(res.gammas[1:-1], 0.7, atol=1e-8)


# --- martingale triangle inequality -------------------------------------------

def test_mti_metric_costs_pass():
    box = Box([-1.0], [1.0])
    assert mot.mti_check(ms.CostSpec.euclidean(), box, 2000, 3).ok
    assert mot.mti_check(ms.CostSpec.truncated_euclidean(1.0), box,
                         2000, 3).ok


def test_mti_squared_distance_equality():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    res = mot.mti_check(ms.CostSpec.sq_euclidean(), box, 2000, 3)
    assert res.ok
    assert res.max_violation <= 1e-9


def test_mti_negated_metric_witness():
    neg = ms.CostSpec.custom(lambda x, y: -float(np.linalg.norm(x - y)))
    # the hand-checked tuple: base 2, atoms -1 and 1, equal weights
    v = mot.mti_violation(neg, [2.0], [[-1.0], [1.0]], [0.5, 0.5])
    assert v == pytest.approx(1.0)
    res = mot.mti_check(neg, Box([-2.0], [2.0]), 2000, 3)
    assert not res.ok
    assert res.witness.base is not None


def test_mti_conical_combination_of_metrics():
    cone = ms.CostSpec.conical([(2.0, ms.CostSpec.euclidean()),
                                (0.5, ms.CostSpec.truncated_euclidean(1.0))])
    assert mot.mti_check(cone, Box([-1.0], [1.0]), 2000, 3).ok


def test_mti_quartic_witness_and_consistency():
    quart = ms.CostSpec.custom(
        lambda x, y: float(np.sum((x - y) ** 2) + np.sum((x - y) ** 2) ** 2))
    res = mot.mti_check(quart, Box([-1.0], [1.0]), 10 ** 5, 3)
    assert not res.ok  # second-order violation shows up in sampling too


# --- second-order check --------------------------------------------------------

def test_hessian_check_examples():
    grid = Grid(Box([-1.0], [1.0]), (9,))
    assert mot.mti_second_order_check(ms.CostSpec.sq_euclidean(), grid,
                                      1e-4).ok
    assert mot.mti_second_order_check(ms.CostSpec.linear([0.7]), grid,
                                      1e-4).ok
    quart = ms.CostSpec.custom(
        lambda x, y: float(np.sum((x - y) ** 2) + np.sum((x - y) ** 2) ** 2))
    res = mot.mti_second_order_check(quart, grid, 1e-4)
    assert not res.ok
    # the closed-form gap is -12 (x - y)^2
    expected = -12.0 * float((res.x[0] - res.y[0]) ** 2)
    assert res.eigenvalue_gap == pytest.approx(expected, abs=1e-4)


def test_hessian_check_two_dimensional():
    # 2-D stencils difference costs up to |c| ~ 8, whose rounding exceeds
    # 10 h^2; sq_euclidean (a constant Hessian) must still pass
    for n in (7, 11):
        grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (n, n))
        assert mot.mti_second_order_check(ms.CostSpec.sq_euclidean(), grid,
                                          1e-4).ok
    quart = ms.CostSpec.custom(
        lambda x, y: float(np.sum((x - y) ** 2) + np.sum((x - y) ** 2) ** 2))
    grid = Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7))
    res = mot.mti_second_order_check(quart, grid, 1e-4)
    assert not res.ok
    # Hessian in y: (2 + 4 r^2) I + 8 (y - x)(y - x)^T, against 2 I at
    # (y, y): the gap's least eigenvalue is -12 r^2 in any direction
    r2 = float(np.sum((res.x - res.y) ** 2))
    assert res.eigenvalue_gap == pytest.approx(-12.0 * r2, abs=1e-4)


@pytest.mark.parametrize("cost, grid", [
    # |x - y| + |x - y|^2 + |x - y|^4: mti_check refutes it, and its kink
    # on the diagonal would read as a Hessian of 2/h that passes any gap
    (ms.CostSpec.custom(lambda x, y: (lambda r: r + r ** 2 + r ** 4)(
        float(np.linalg.norm(x - y)))), Grid(Box([-1.0], [1.0]), (9,))),
    (ms.CostSpec.euclidean(), Grid(Box([-1.0, -1.0], [1.0, 1.0]), (7, 7))),
], ids=["kinked-quartic", "euclidean-2d"])
def test_hessian_check_refuses_kink_on_diagonal(cost, grid):
    with pytest.raises(NonSmoothDiagonal, match="across the diagonal"):
        mot.mti_second_order_check(cost, grid, 1e-4)


@pytest.mark.parametrize("k", [1.0, 2.0, 10.0, 1e4])
def test_hessian_check_smooth_cost_at_any_scale(k):
    # k (r^2 + r^4) is smooth: its diagonal Hessian moves by 6 k h^2 from
    # step 2h to h, above 10 h^2 once k > 5/3, yet it gets a verdict
    cost = ms.CostSpec.custom(
        lambda x, y: k * float(np.sum((x - y) ** 2) + np.sum((x - y) ** 4)))
    res = mot.mti_second_order_check(cost, Grid(Box([-1.0], [1.0]), (9,)),
                                     1e-4)
    assert not res.ok
    expected = -12.0 * k * float((res.x[0] - res.y[0]) ** 2)
    assert res.eigenvalue_gap == pytest.approx(expected, rel=1e-4)


def test_hessian_grid_too_coarse():
    grid = Grid(Box([-1.0], [1.0]), (4,))
    with pytest.raises(GridTooCoarse):
        mot.mti_second_order_check(ms.CostSpec.sq_euclidean(), grid, 1e-4)


@pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
def test_hessian_check_refuses_a_bad_step(h):
    # |x - y|^3 fails the check at h = 1e-4; a step that is not finite and
    # positive must not give it a verdict at all
    cube = ms.CostSpec.custom(lambda x, y: float(np.sum(np.abs(x - y) ** 3)))
    grid = Grid(Box([-1.0], [1.0]), (9,))
    assert not mot.mti_second_order_check(cube, grid, 1e-4).ok
    with pytest.raises(BadCheckParameter, match="finite and positive"):
        mot.mti_second_order_check(cube, grid, h)


# --- one-dimensional slope bounds ----------------------------------------------

def test_one_dimensional_slope_bounds():
    # a class member f has f(center) - average <= cost, so g = -f satisfies
    # the average-minus-center hypothesis of the three-point bounds; check
    # the difference-quotient bounds for g on all grid triples
    cost = ms.CostSpec.euclidean()
    f = mot.bclass_generate(
        [([0.0], [0.0], 0.0), ([0.7], [0.3], 0.1), ([-0.6], [-0.8], 0.05)],
        cost)
    grid = np.linspace(-1, 1, 25)
    vals = {x: -f([x]) for x in grid}
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            for k in range(j + 1, len(grid)):
                x1, x2, x3 = grid[i], grid[j], grid[k]
                lhs = (vals[x3] - vals[x1]) / (x3 - x1)
                c23 = cost([x2], [x3])
                c21 = cost([x2], [x1])
                lower = (vals[x3] - vals[x2]) / (x3 - x2) \
                    + (c23 - c21) / (x3 - x1) - c23 / (x3 - x2)
                upper = (vals[x2] - vals[x1]) / (x2 - x1) \
                    + (c23 - c21) / (x3 - x1) + c21 / (x2 - x1)
                assert lhs >= lower - 1e-8
                assert lhs <= upper + 1e-8
