"""HiGHS as an outside referee: the package's LP values on seeded cases
against scipy's ``linprog(method="highs")`` on the same rows and costs.
A dual value is refereed by the dual LP of its primal's rows, max b.y
over A^T y <= C with y free; the KR and symmetric MOT duals by their
own rows, and the symmetric MOT dual also by its flow LP, built here pair
by pair.

scipy is not a package dependency; the module is skipped without it.
"""

import numpy as np
import pytest

from transportkit import convex_order, ot
from transportkit.measures import CostSpec, MultiCost, new_measure
from transportkit.mot import mot_dual, mot_dual_symmetric, mot_primal

linprog = pytest.importorskip("scipy.optimize").linprog

OT_COSTS = {"euclidean": CostSpec.euclidean(),
            "sq_euclidean": CostSpec.sq_euclidean(),
            "manhattan": CostSpec.manhattan()}


def highs_value(C, A, b):
    """min C.x over A x = b, x >= 0, solved by HiGHS."""
    res = linprog(np.ravel(C), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def highs_dual_value(C, A, b):
    """max b.y over A^T y <= C with y free, solved by HiGHS: the dual of
    ``highs_value`` on the same rows."""
    res = linprog(-np.asarray(b), A_ub=np.asarray(A).T, b_ub=np.ravel(C),
                  bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def union_mass(mu, nu):
    """The support union Z in sorted order and (mu - nu) on it."""
    Z = np.unique(np.vstack([mu.points, nu.points]), axis=0)
    mass = np.zeros(len(Z))
    for measure, sign in ((mu, 1.0), (nu, -1.0)):
        for p, w in zip(measure.points, measure.weights):
            mass[np.flatnonzero((Z == p).all(axis=1))[0]] += sign * w
    return Z, mass


def weights(rng, n):
    w = rng.uniform(0.5, 1.5, size=n)
    return w / w.sum()


def spread_pair(rng, m):
    """m atoms in [-1, 1]^2, each split along a random direction into two
    atoms that keep its barycenter: mu precedes nu in convex order."""
    X = rng.uniform(-1, 1, (m, 2))
    w = weights(rng, m)
    pts, wts = [], []
    for x, wx in zip(X, w):
        ang = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        s1, s2 = rng.uniform(0.1, 0.5, size=2)
        pts += [x + s1 * u, x - s2 * u]
        wts += [wx * s2 / (s1 + s2), wx * s1 / (s1 + s2)]
    wts = np.asarray(wts)
    return new_measure(2, X, w), new_measure(2, pts, wts / wts.sum())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", sorted(OT_COSTS))
def test_kantorovich_primal_matches_highs(kind, seed):
    rng = np.random.default_rng([18, seed])
    mu = new_measure(2, rng.uniform(-1, 1, (12, 2)), weights(rng, 12))
    nu = new_measure(2, rng.uniform(-1, 1, (12, 2)), weights(rng, 12))
    cost = OT_COSTS[kind]
    _, value = ot.kantorovich_primal(mu, nu, cost)
    A, b = ot._marginal_rows((mu, nu))
    C = cost.pairwise(mu.points, nu.points)
    assert value == pytest.approx(highs_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["euclidean", "sq_euclidean"])
def test_mot_primal_matches_highs(kind, seed):
    mu, nu = spread_pair(np.random.default_rng([18, 1, seed]), 6)
    cost = OT_COSTS[kind]
    _, value = mot_primal(mu, nu, cost)
    A, b = convex_order._martingale_rows(mu, nu)
    C = cost.pairwise(mu.points, nu.points)
    assert value == pytest.approx(highs_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", sorted(OT_COSTS))
def test_kantorovich_dual_matches_highs(kind, seed):
    rng = np.random.default_rng([18, 4, seed])
    mu = new_measure(2, rng.uniform(-1, 1, (10, 2)), weights(rng, 10))
    nu = new_measure(2, rng.uniform(-1, 1, (12, 2)), weights(rng, 12))
    cost = OT_COSTS[kind]
    _, value = ot.kantorovich_dual(mu, nu, cost)
    A, b = ot._marginal_rows((mu, nu))
    C = cost.pairwise(mu.points, nu.points)
    assert value == pytest.approx(highs_dual_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_kr_dual_matches_highs(kind, seed):
    # max sum_k f_k (mu - nu)_k over f on the support union Z with
    # f_i - f_j <= d(z_i, z_j) for every pair i != j
    rng = np.random.default_rng([18, 5, seed])
    X = rng.uniform(-1, 1, (8, 2))
    # two atoms of nu sit on atoms of mu, so the union merges them
    Y = np.vstack([X[:2], rng.uniform(-1, 1, (6, 2))])
    mu = new_measure(2, X, weights(rng, 8))
    nu = new_measure(2, Y, weights(rng, 8))
    cost = OT_COSTS[kind]
    _, value = ot.kr_dual(mu, nu, cost)
    Z, mass = union_mass(mu, nu)
    u = len(Z)
    rows, rhs = [], []
    for i in range(u):
        for j in range(u):
            if i != j:
                row = np.zeros(u)
                row[i], row[j] = 1.0, -1.0
                rows.append(row)
                rhs.append(cost(Z[i], Z[j]))
    res = linprog(-mass, A_ub=rows, b_ub=rhs, bounds=(None, None),
                  method="highs")
    assert res.status == 0, res.message
    assert value == pytest.approx(-res.fun, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["euclidean", "sq_euclidean"])
def test_mot_dual_matches_highs(kind, seed):
    mu, nu = spread_pair(np.random.default_rng([18, 6, seed]), 6)
    cost = OT_COSTS[kind]
    _, value = mot_dual(mu, nu, cost)
    A, b = convex_order._martingale_rows(mu, nu)
    C = cost.pairwise(mu.points, nu.points)
    assert value == pytest.approx(highs_dual_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_multimarginal_primal_matches_highs(seed):
    rng = np.random.default_rng([18, 2, seed])
    measures = [new_measure(1, rng.uniform(-1, 1, (5, 1)), weights(rng, 5))
                for _ in range(3)]
    cost = MultiCost.pairwise_sum(CostSpec.euclidean())
    _, value = ot.multimarginal_primal(measures, cost)
    A, b = ot._marginal_rows(measures)
    C = cost.tensor([m.points for m in measures])
    assert value == pytest.approx(highs_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_multimarginal_dual_matches_highs(seed):
    rng = np.random.default_rng([18, 7, seed])
    measures = [new_measure(1, rng.uniform(-1, 1, (5, 1)), weights(rng, 5))
                for _ in range(3)]
    cost = MultiCost.pairwise_sum(CostSpec.euclidean())
    _, value = ot.multimarginal_dual(measures, cost)
    A, b = ot._marginal_rows(measures)
    C = cost.tensor([m.points for m in measures])
    assert value == pytest.approx(highs_dual_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", sorted(OT_COSTS))
def test_mot_dual_symmetric_flow_lp_matches_highs(kind, seed):
    # the symmetric dual's primal twin on the support union Z: flows
    # pi_ij >= 0 (i != j) with sum_j pi_kj - sum_i pi_ik = (mu - nu)_k and
    # sum_j pi_kj (z_j - z_k) = 0 for every k, at least cost
    mu, nu = spread_pair(np.random.default_rng([18, 8, seed]), 2 + seed)
    cost = OT_COSTS[kind]
    _, value = mot_dual_symmetric(mu, nu, cost)
    Z, mass = union_mass(mu, nu)
    u, d = Z.shape
    pairs = [(i, j) for i in range(u) for j in range(u) if i != j]
    A = np.zeros((u * (1 + d), len(pairs)))
    for col, (i, j) in enumerate(pairs):
        A[i, col] += 1.0
        A[j, col] -= 1.0
        A[u + i * d:u + (i + 1) * d, col] = Z[j] - Z[i]
    C = [cost(Z[i], Z[j]) for i, j in pairs]
    b = np.concatenate([mass, np.zeros(u * d)])
    assert value == pytest.approx(highs_value(C, A, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", sorted(OT_COSTS))
def test_mot_dual_symmetric_matches_highs(kind, seed):
    # the symmetric dual LP solved directly on the support union Z:
    # max sum_i f_i (mu - nu)_i  s.t.  for every pair i != j,
    # f_i - f_j + <gamma_i, z_j - z_i> <= c(z_i, z_j), f and gamma free
    mu, nu = spread_pair(np.random.default_rng([18, 3, seed]), 2 + seed)
    cost = OT_COSTS[kind]
    _, value = mot_dual_symmetric(mu, nu, cost)
    Z, mass = union_mass(mu, nu)
    u, d = Z.shape
    rows, rhs = [], []
    for i in range(u):
        for j in range(u):
            if i != j:
                row = np.zeros(u * (1 + d))
                row[i] += 1.0
                row[j] -= 1.0
                row[u + i * d:u + (i + 1) * d] = Z[j] - Z[i]
                rows.append(row)
                rhs.append(cost(Z[i], Z[j]))
    res = linprog(-np.concatenate([mass, np.zeros(u * d)]), A_ub=rows,
                  b_ub=rhs, bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    assert value == pytest.approx(-res.fun, abs=1e-9)
