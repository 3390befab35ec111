import json

import numpy as np
import pytest

from transportkit import measures as ms
from transportkit.errors import (
    DuplicatePoint,
    MassNotOne,
    MissingValue,
    NegativeWeight,
    OffGrid,
)


@pytest.mark.parametrize("p", [[-0.0, 1.5], np.array([[0.1, -0.0]]), 3.0,
                               np.float32(0.1), [2]])
def test_point_key_is_python_floats_with_signed_zeros(p):
    key = ms.point_key(p)
    ref = tuple(float(c) for c in np.asarray(p, dtype=float).ravel())
    assert key == ref
    assert all(type(c) is float for c in key)
    assert [np.signbit(c) for c in key] == [np.signbit(c) for c in ref]


def test_new_measure_dirac():
    m = ms.new_measure(1, [[0.0]], [1.0])
    assert len(m) == 1
    assert m.weights[0] == 1.0


def test_new_measure_two_atoms():
    m = ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])
    assert np.allclose(m.weights.sum(), 1.0)


def test_new_measure_duplicate_point():
    with pytest.raises(DuplicatePoint):
        ms.new_measure(1, [[0.0], [0.0]], [0.5, 0.5])


def test_new_measure_negative_weight():
    with pytest.raises(NegativeWeight):
        ms.new_measure(1, [[0.0], [1.0]], [1.5, -0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_refused(bad):
    # NaN compares false with everything, so it passes the sign and sum
    # checks, and new_measure would divide every weight by a NaN sum
    with pytest.raises(MassNotOne):
        ms.new_measure(1, [[0.0], [1.0]], [bad, 0.5])
    with pytest.raises(MassNotOne, match="non-finite"):
        ms.DiscreteMeasure(1, [[0.0], [1.0]], [bad, 0.5])


def test_new_measure_mass_validation():
    with pytest.raises(MassNotOne):
        ms.new_measure(1, [[0.0], [1.0]], [0.5, 0.4])
    # deviation within 1e-9 renormalizes
    m = ms.new_measure(1, [[0.0], [1.0]], [0.5, 0.5 + 5e-10])
    assert abs(m.weights.sum() - 1.0) <= 1e-15


def test_construction_copies_the_callers_arrays():
    # a measure and a coupling freeze copies: the caller's arrays stay
    # writeable and are not aliased
    p, w = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
    m = ms.DiscreteMeasure(1, p, w)
    plan = np.diag(w)
    c = ms.Coupling(m, m, plan)
    for theirs, ours in ((p, m.points), (w, m.weights), (plan, c.mass)):
        assert theirs.flags.writeable and not ours.flags.writeable
        assert not np.shares_memory(theirs, ours)
    plan[0, 0] -= 1e-9
    assert c.mass[0, 0] == 0.5


def test_barycenter_examples():
    assert ms.barycenter(ms.dirac([0.0])) == pytest.approx(0.0)
    m = ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])
    assert ms.barycenter(m)[0] == pytest.approx(0.0)
    m4 = ms.new_measure(1, [[-2.0], [-1.0], [1.0], [2.0]], [0.25] * 4)
    assert ms.barycenter(m4)[0] == pytest.approx(0.0)


def test_marginals_product_and_diagonal():
    nu = ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])
    prod = ms.Coupling(ms.dirac([0.0]), nu, np.array([[0.5, 0.5]]))
    left, right = ms.marginals(prod)
    assert np.allclose(left.weights, [1.0])
    assert np.allclose(right.weights, [0.5, 0.5])

    mu = ms.new_measure(1, [[0.0], [3.0]], [0.3, 0.7])
    diag = ms.Coupling(mu, mu, np.diag(mu.weights))
    left, right = ms.marginals(diag)
    assert np.allclose(left.weights, mu.weights)
    assert np.allclose(right.weights, mu.weights)


def test_marginals_two_by_two():
    mu = ms.new_measure(1, [[0.0], [2.0]], [0.5, 0.5])
    nu = ms.new_measure(1, [[1.0], [3.0]], [0.5, 0.5])
    c = ms.Coupling(mu, nu, np.array([[0.5, 0.0], [0.0, 0.5]]))
    left, right = ms.marginals(c)
    assert np.allclose(left.weights, [0.5, 0.5])
    assert np.allclose(right.weights, [0.5, 0.5])


def test_multicoupling_checks_every_marginal():
    mu = ms.new_measure(1, [[0.0], [1.0]], [0.5, 0.5])
    nu = ms.new_measure(1, [[0.0], [2.0], [4.0]], [0.2, 0.3, 0.5])
    mass = np.multiply.outer(np.multiply.outer(mu.weights, nu.weights),
                             mu.weights)
    assert ms.MultiCoupling((mu, nu, mu), mass).mass.shape == (2, 3, 2)
    # 1e-9 moved from row 0 to row 1 keeps the total and the other axes
    moved = mass.copy()
    moved[0, 0, 0] -= 1e-9
    moved[1, 0, 0] += 1e-9
    with pytest.raises(MassNotOne, match="marginal 0 residual"):
        ms.MultiCoupling((mu, nu, mu), moved)
    # a Coupling is the two-measure case: the same check, however built
    plan = np.outer(mu.weights, nu.weights)
    c = ms.Coupling(mu, nu, plan.copy())
    assert c.left is c.measures[0] is mu and c.right is c.measures[1] is nu
    plan[0, 0] -= 1e-9
    plan[1, 0] += 1e-9
    with pytest.raises(MassNotOne, match="marginal 0 residual"):
        ms.Coupling(mu, nu, plan)


def test_evaluate_cost_examples():
    assert ms.evaluate_cost(ms.CostSpec.euclidean(), [0.0], [1.0]) == 1.0
    assert ms.evaluate_cost(ms.CostSpec.sq_euclidean(),
                            [1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    conical = ms.CostSpec.conical([(2.0, ms.CostSpec.euclidean()),
                                   (1.0, ms.CostSpec.sq_euclidean())])
    assert ms.evaluate_cost(conical, [0.0], [1.0]) == pytest.approx(3.0)


def test_cost_kinds():
    assert ms.evaluate_cost(ms.CostSpec.manhattan(),
                            [1.0, 1.0], [0.0, 0.0]) == pytest.approx(2.0)
    t = ms.CostSpec.truncated_euclidean(1.5)
    assert ms.evaluate_cost(t, [0.0], [9.0]) == pytest.approx(1.5)
    lin = ms.CostSpec.linear([2.0])
    assert ms.evaluate_cost(lin, [3.0], [1.0]) == pytest.approx(4.0)


def test_matrix_cost_off_grid():
    grid = [[0.0], [1.0]]
    vals = [[0.0, 5.0], [5.0, 0.0]]
    c = ms.CostSpec.matrix(grid, vals)
    assert ms.evaluate_cost(c, [0.0], [1.0]) == 5.0
    with pytest.raises(OffGrid):
        ms.evaluate_cost(c, [0.5], [1.0])


def test_conical_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        ms.CostSpec.conical([(-1.0, ms.CostSpec.euclidean())])


def test_integrate_examples():
    m = ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])
    assert ms.integrate(lambda p: 1.0, m) == pytest.approx(1.0)
    assert ms.integrate(lambda p: p[0], m) == pytest.approx(0.0)
    assert ms.integrate(lambda p: p[0] ** 2, m) == pytest.approx(1.0)


def test_integrate_missing_value():
    m = ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])
    with pytest.raises(MissingValue):
        ms.integrate({(-1.0,): 2.0}, m)


def test_integrate_linearity():
    rng = np.random.default_rng(5)
    m = ms.new_measure(2, rng.uniform(-1, 1, (6, 2)),
                       np.full(6, 1.0 / 6.0))
    f = lambda p: float(p[0] ** 2 - p[1])
    g = lambda p: float(np.sin(p[0]) + p[1] ** 3)
    a, b = 1.7, -0.3
    combined = ms.integrate(lambda p: a * f(p) + b * g(p), m)
    split = a * ms.integrate(f, m) + b * ms.integrate(g, m)
    assert abs(combined - split) <= 1e-12


def test_euclidean_symmetry_and_identity():
    rng = np.random.default_rng(6)
    c = ms.CostSpec.euclidean()
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        assert ms.evaluate_cost(c, x, y) == pytest.approx(
            ms.evaluate_cost(c, y, x), abs=1e-15)
        assert ms.evaluate_cost(c, x, x) == 0.0
        assert ms.evaluate_cost(c, x, y) > 0.0 or np.allclose(x, y)


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (4, 2))
    Y = rng.uniform(-1, 1, (5, 2))
    for c in (ms.CostSpec.euclidean(), ms.CostSpec.sq_euclidean(),
              ms.CostSpec.manhattan(), ms.CostSpec.truncated_euclidean(0.9),
              ms.CostSpec.linear([1.0, -2.0])):
        M = c.pairwise(X, Y)
        for i in range(4):
            for j in range(5):
                assert M[i, j] == pytest.approx(
                    ms.evaluate_cost(c, X[i], Y[j]), abs=1e-14)


def test_multicost_pairwise_sum_tensor():
    base = ms.CostSpec.euclidean()
    mc = ms.MultiCost.pairwise_sum(base)
    sups = [np.array([[0.0], [1.0]])] * 3
    T = mc.tensor(sups)
    assert T[0, 0, 0] == 0.0
    assert T[0, 1, 1] == pytest.approx(2.0)  # |0-1| + |0-1| + |1-1|
    assert mc([np.array([0.0]), np.array([1.0]), np.array([1.0])]) \
        == pytest.approx(2.0)


def test_measure_json_roundtrip():
    m = ms.new_measure(2, [[0.0, 1.0], [1.0, 0.5]], [0.25, 0.75])
    obj = ms.measure_to_json(m)
    back = ms.new_measure(**json.loads(json.dumps(obj)))
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_cost_json_roundtrip():
    costs = [ms.CostSpec.euclidean(),
             ms.CostSpec.truncated_euclidean(2.5),
             ms.CostSpec.linear([1.0, 2.0]),
             ms.CostSpec.matrix([[0.0], [1.0]], [[0.0, 1.0], [1.0, 0.0]]),
             ms.CostSpec.conical([(2.0, ms.CostSpec.euclidean())])]
    for c in costs:
        back = ms.cost_from_json(json.loads(json.dumps(ms.cost_to_json(c))))
        assert back.kind == c.kind
        x, y = np.array([0.0] * 0 + [0.0]), np.array([1.0])
        if c.kind != "matrix":
            x2 = np.zeros(2) if c.kind == "linear" else x
            y2 = np.ones(2) if c.kind == "linear" else y
            assert ms.evaluate_cost(back, x2, y2) == pytest.approx(
                ms.evaluate_cost(c, x2, y2))


def test_custom_cost_not_serializable():
    c = ms.CostSpec.custom(lambda x, y: 0.0)
    with pytest.raises(ValueError):
        ms.cost_to_json(c)
