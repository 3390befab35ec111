import numpy as np
import pytest

from conftest import random_convex_order_pair
from transportkit import convex_order as co, lp, measures as ms, mot
from transportkit.errors import (
    EmptyAtoms,
    GammaMissing,
    GridTooCoarse,
    LowerBoundViolation,
    NonVanishingDiagonal,
    NotInConvexOrder,
)
from transportkit.functions import Box, FunctionEvaluator, Grid, ModulusSpec


def pm1():
    return ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])


def nu3():
    return ms.new_measure(1, [[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25])


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


def test_mot_dual_symmetric_examples():
    eu = ms.CostSpec.euclidean()
    sym, v = mot.mot_dual_symmetric(ms.dirac([0.0]), pm1(), eu)
    assert v == pytest.approx(1.0, abs=1e-9)

    mu = pm1()
    _, v2 = mot.mot_dual_symmetric(mu, mu, eu)
    assert v2 == pytest.approx(0.0, abs=1e-10)

    # squared distance: symmetric value never exceeds the general dual
    sqc = ms.CostSpec.sq_euclidean()
    _, vs = mot.mot_dual_symmetric(pm1(), nu3(), sqc)
    _, vg = mot.mot_dual(pm1(), nu3(), sqc)
    assert vs <= vg + 1e-9


def test_mot_dual_symmetric_rejects_nonvanishing_diagonal():
    shifted = ms.CostSpec.custom(lambda x, y: float(np.linalg.norm(x - y))
                                 + 1.0)
    with pytest.raises(NonVanishingDiagonal):
        mot.mot_dual_symmetric(ms.dirac([0.0]), pm1(), shifted)


def test_symmetric_below_general_structural():
    rng = np.random.default_rng(103)
    eu = ms.CostSpec.euclidean()
    for _ in range(10):
        mu, nu = random_convex_order_pair(rng, 1, 6)
        _, vs = mot.mot_dual_symmetric(mu, nu, eu)
        _, vg = mot.mot_dual(mu, nu, eu)
        assert vs <= vg + 1e-9


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


def test_gamma_dual_rows_match_row_loops(monkeypatch):
    progs = []
    solve = lp.solve

    def capture(prog, config=lp.DEFAULT_CONFIG):
        progs.append(prog)
        return solve(prog, config)

    monkeypatch.setattr(lp, "solve", capture)
    rng = np.random.default_rng(311)
    eu = ms.CostSpec.euclidean()
    checked = 0
    for dim in (1, 2):
        for _ in range(6):
            mu, nu = random_convex_order_pair(rng, dim, 5)
            Z = ms.union_points(mu.points, nu.points)
            for dual, (A, b) in (
                    (mot.mot_dual, _mot_dual_rows_by_loop(
                        mu, nu, eu.pairwise(mu.points, nu.points))),
                    (mot.mot_dual_symmetric, _symmetric_rows_by_loop(
                        Z, eu.pairwise(Z, Z)))):
                progs.clear()
                dual(mu, nu, eu)
                prog, = progs
                assert prog.A.shape == A.shape
                assert prog.A.tobytes() == A.tobytes()
                assert prog.b.tobytes() == b.tobytes()
                assert list(prog.rels) == [lp.LE] * len(b)
                assert prog.free.all()
                checked += 1
    assert checked == 24


# --- simplex inequalities -----------------------------------------------------

def test_simplex_check_jensen():
    box = Box([-1.0], [1.0])
    res = mot.simplex_inequality_check(sq, sq, ZERO, box, 500, seed=7)
    assert res.ok


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
    with pytest.raises(ValueError):
        mot.extend(K, g, no_growth, np.zeros((2, 1)), [[2.0]])
    with pytest.raises(GammaMissing):
        mot.extend(K, g, ZERO, {(0.0,): [0.0]}, [[2.0]])
    bad_lb = FunctionEvaluator.quadratic([[0.0]], [0.0], 10.0)
    with pytest.raises(LowerBoundViolation):
        mot.extend(K, g, ZERO, np.array([[-0.0], [-2.0]]), [[2.0]],
                   lower_bound=bad_lb)


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
    with integer values (many exact ties), and a 5 x 5 grid whose centre
    is raised above a uniformly convex quadratic."""
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
    for P, f, s in sets:
        for i, x in enumerate(P):
            D = np.delete(P, i, axis=0) - x
            r = np.delete(f, i) - f[i] - s * (D ** 2).sum(axis=1)
            yield D, r


def _referee_feasible(D, r):
    """The (n - 1)-row system solved directly for g."""
    d = D.shape[1]
    return lp.check_feasibility(D, (lp.LE,) * len(r), r,
                                free=np.ones(d, dtype=bool)).feasible


def test_farkas_point_matches_direct_system():
    verdicts = set()
    for D, r in _farkas_cases():
        g, core = mot._farkas_point(D, r, lp.DEFAULT_CONFIG)
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


def test_hessian_grid_too_coarse():
    grid = Grid(Box([-1.0], [1.0]), (4,))
    with pytest.raises(GridTooCoarse):
        mot.mti_second_order_check(ms.CostSpec.sq_euclidean(), grid, 1e-4)


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
