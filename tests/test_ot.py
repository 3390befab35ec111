import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    kr_certificate_errors,
    random_measure,
    traced_refusal_peak,
    transport_value_by_vertex_enumeration,
)
from transportkit import lp, measures as ms, ot
from transportkit.errors import (
    DimensionMismatch,
    InfeasibleInput,
    MissingValue,
    NotAFixedPoint,
    NotAMetric,
    ProductTooLarge,
)


def two_by_two():
    mu = ms.new_measure(1, [[0.0], [2.0]], [0.5, 0.5])
    nu = ms.new_measure(1, [[1.0], [3.0]], [0.5, 0.5])
    return mu, nu


# --- Kantorovich primal / dual -------------------------------------------

def test_primal_dirac_pair():
    coupling, value = ot.kantorovich_primal(
        ms.dirac([0.0]), ms.dirac([1.0]), ms.CostSpec.euclidean())
    assert value == pytest.approx(1.0)
    assert coupling.mass[0, 0] == pytest.approx(1.0)


def test_primal_matches_vertex_enumeration():
    mu, nu = two_by_two()
    cost = ms.CostSpec.euclidean()
    C = cost.pairwise(mu.points, nu.points)
    oracle = transport_value_by_vertex_enumeration(
        mu.weights, nu.weights, C)
    _, value = ot.kantorovich_primal(mu, nu, cost)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(1.0)


def test_primal_zero_cost():
    mu = random_measure(np.random.default_rng(1), 2, 5)
    nu = random_measure(np.random.default_rng(2), 2, 4)
    _, value = ot.kantorovich_primal(mu, nu, ms.CostSpec.zero(2))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_dual_examples():
    _, v = ot.kantorovich_dual(ms.dirac([0.0]), ms.dirac([1.0]),
                               ms.CostSpec.euclidean())
    assert v == pytest.approx(1.0)

    mu = random_measure(np.random.default_rng(3), 1, 5)
    _, v2 = ot.kantorovich_dual(mu, mu, ms.CostSpec.euclidean())
    assert v2 == pytest.approx(0.0, abs=1e-10)

    mu, nu = two_by_two()
    _, v3 = ot.kantorovich_dual(mu, nu, ms.CostSpec.euclidean())
    assert v3 == pytest.approx(1.0)


def test_duality_on_random_instances():
    rng = np.random.default_rng(42)
    costs = [ms.CostSpec.euclidean(), ms.CostSpec.sq_euclidean(),
             ms.CostSpec.manhattan()]
    for k in range(50):
        dim = int(rng.integers(1, 4))
        mu = random_measure(rng, dim, 12)
        nu = random_measure(rng, dim, 12)
        cost = costs[k % 3]
        _, primal = ot.kantorovich_primal(mu, nu, cost)
        pots, dual = ot.kantorovich_dual(mu, nu, cost)
        assert abs(primal - dual) <= 1e-7 * (1 + abs(primal))
        assert pots.max_violation(cost) <= 1e-9


# --- c-transform -----------------------------------------------------------

def test_c_transform_examples():
    cost = ms.CostSpec.euclidean()
    p = ot.c_transform({(1.0,): 0.0}, cost, [[0.0], [2.0]], [[1.0]])
    assert np.allclose(p.phi, [1.0, 1.0])
    assert p.psi[0] == pytest.approx(0.0)

    # constant shift moves phi by the same constant, objective unchanged
    K = 4.25
    base = ot.c_transform({(1.0,): 0.0}, cost, [[0.0], [2.0]], [[1.0]])
    shifted = ot.c_transform({(1.0,): K}, cost, [[0.0], [2.0]], [[1.0]])
    assert np.allclose(shifted.phi, base.phi + K)
    assert np.allclose(shifted.psi, base.psi + K)
    mu = ms.new_measure(1, [[0.0], [2.0]], [0.5, 0.5])
    nu = ms.dirac([1.0])
    assert shifted.objective(mu, nu) == pytest.approx(base.objective(mu, nu))


def test_c_transform_random_feasible_and_improving():
    rng = np.random.default_rng(11)
    for _ in range(20):
        L = rng.uniform(-1, 1, (3, 1))
        R = rng.uniform(-1, 1, (3, 1))
        C = ms.CostSpec.matrix(
            np.vstack([L, R]),
            rng.uniform(0, 2, (6, 6)))
        psi0 = rng.uniform(-1, 1, 3)
        pots = ot.c_transform(psi0, C, L, R)
        # feasibility by enumeration
        M = C.pairwise(L, R)
        assert np.max(pots.phi[:, None] - pots.psi[None, :] - M) <= 1e-12
        # psi decreases pointwise, so any feasible phi paired with psi0
        # cannot beat the transformed pair
        assert np.all(pots.psi <= psi0 + 1e-12)
        phi0 = np.min(M + psi0[None, :], axis=1)  # best phi for psi0
        mu = ms.new_measure(1, L, np.full(3, 1 / 3))
        nu = ms.new_measure(1, R, np.full(3, 1 / 3))
        before = float(mu.weights @ phi0 - nu.weights @ psi0)
        after = pots.objective(mu, nu)
        assert after >= before - 1e-12


# --- tight support ----------------------------------------------------------

def test_tight_support_examples():
    cost = ms.CostSpec.euclidean()
    mu, nu = ms.dirac([0.0]), ms.dirac([1.0])
    coupling, _ = ot.kantorovich_primal(mu, nu, cost)
    pots, _ = ot.kantorovich_dual(mu, nu, cost)
    _, ok = ot.tight_support_report(pots, coupling, cost, 1e-7)
    assert ok

    lazy = ot.Potentials(mu.points, nu.points, np.zeros(1), np.zeros(1))
    _, bad = ot.tight_support_report(lazy, coupling, cost, 1e-7)
    assert not bad

    mu2, nu2 = two_by_two()
    c2, _ = ot.kantorovich_primal(mu2, nu2, cost)
    p2, _ = ot.kantorovich_dual(mu2, nu2, cost)
    _, ok2 = ot.tight_support_report(p2, c2, cost, 1e-7)
    assert ok2


def test_every_optimal_pair_is_tight():
    rng = np.random.default_rng(13)
    for _ in range(10):
        mu = random_measure(rng, 2, 8)
        nu = random_measure(rng, 2, 8)
        cost = ms.CostSpec.sq_euclidean()
        coupling, _ = ot.kantorovich_primal(mu, nu, cost)
        pots, _ = ot.kantorovich_dual(mu, nu, cost)
        _, ok = ot.tight_support_report(pots, coupling, cost, 1e-7)
        assert ok


# --- Kantorovich-Rubinstein --------------------------------------------------

def _assert_kr_certificate(f, value, mu, nu, cost):
    lipschitz, value_err = kr_certificate_errors(f, value, mu, nu, cost)
    assert lipschitz <= 1e-9
    assert value_err <= 1e-12


def test_kr_examples():
    cost = ms.CostSpec.euclidean()
    mu1, nu1 = ms.dirac([0.0]), ms.dirac([1.0])
    f, v = ot.kr_dual(mu1, nu1, cost)
    assert v == pytest.approx(1.0)
    assert f.value_at([0.0]) - f.value_at([1.0]) == pytest.approx(1.0)
    _assert_kr_certificate(f, v, mu1, nu1, cost)

    mu = random_measure(np.random.default_rng(21), 1, 6)
    f2, v2 = ot.kr_dual(mu, mu, cost)
    assert v2 == pytest.approx(0.0, abs=1e-10)
    _assert_kr_certificate(f2, v2, mu, mu, cost)

    mu3, nu3 = two_by_two()
    f3, v3 = ot.kr_dual(mu3, nu3, cost)
    assert v3 == pytest.approx(1.0)
    _assert_kr_certificate(f3, v3, mu3, nu3, cost)


def test_kr_rejects_non_metric():
    # squared distance violates the triangle inequality on {0, 1, 2}
    mu = ms.new_measure(1, [[0.0], [2.0]], [0.5, 0.5])
    nu = ms.new_measure(1, [[1.0]], [1.0])
    with pytest.raises(NotAMetric) as info:
        ot.kr_dual(mu, nu, ms.CostSpec.sq_euclidean())
    assert info.value.witness is not None
    # on the union {0, 1}: c(0, 1) = 1.5 against c(1, 0) = 1, and then a
    # symmetric cost with c(z, z) = 1
    a, b = ms.dirac([0.0]), ms.dirac([1.0])
    asym = ms.CostSpec.custom(
        lambda x, y: float(abs(x[0] - y[0]) + 0.5 * (x[0] < y[0])))
    with pytest.raises(NotAMetric,
                       match=r"asymmetry 5\.000e-01 at pair \(0, 1\)") as info:
        ot.kr_dual(a, b, asym)
    assert np.array_equal(np.array(info.value.witness), [[0.0], [1.0]])
    shifted = ms.CostSpec.custom(lambda x, y: float(abs(x[0] - y[0]) + 1.0))
    with pytest.raises(NotAMetric,
                       match=r"nonzero diagonal 1\.000e\+00 at point 0") \
            as info:
        ot.kr_dual(a, b, shifted)
    assert np.array_equal(np.array(info.value.witness), [[0.0]])


def _full_tensor_triangle(D):
    """Reference: worst triangle excess over all ordered triples from one
    u x u x u tensor, with the first worst triple in C order."""
    viol = D[:, None, :] - (D[:, :, None] + D[None, :, :])
    return float(np.max(viol)), np.unravel_index(np.argmax(viol), viol.shape)


def test_verify_metric_matches_full_tensor():
    rng = np.random.default_rng(29)
    raised = 0
    for trial in range(40):
        u = int(rng.integers(3, 10))
        # small integer entries tie often, so the witness order is tested
        D = rng.integers(0, 4, size=(u, u)).astype(float) if trial % 2 \
            else rng.uniform(0.0, 1.0, size=(u, u))
        D = D + D.T
        np.fill_diagonal(D, 0.0)
        points = np.arange(u, dtype=float)[:, None]
        worst, (i, j, k) = _full_tensor_triangle(D)
        if worst <= 1e-9:
            ot._verify_metric(D, points)
            continue
        with pytest.raises(NotAMetric) as info:
            ot._verify_metric(D, points)
        raised += 1
        assert str(info.value).endswith(
            f"triangle violation {worst:.3e} on triple ({i}, {j}, {k})")
        assert np.array_equal(np.array(info.value.witness),
                              points[[i, j, k]])
    assert raised >= 30


def test_kr_equals_two_potential_dual_on_metrics():
    rng = np.random.default_rng(23)
    costs = [ms.CostSpec.euclidean(), ms.CostSpec.manhattan(),
             ms.CostSpec.truncated_euclidean(1.0)]
    for k in range(9):
        dim = int(rng.integers(1, 3))
        mu = random_measure(rng, dim, 7)
        nu = random_measure(rng, dim, 7)
        cost = costs[k % 3]
        f, v_kr = ot.kr_dual(mu, nu, cost)
        _, v_two = ot.kantorovich_dual(mu, nu, cost)
        assert abs(v_kr - v_two) <= 1e-7
        _assert_kr_certificate(f, v_kr, mu, nu, cost)


def test_kr_tight_check():
    cost = ms.CostSpec.euclidean()
    mu, nu = ms.dirac([0.0]), ms.dirac([1.0])
    f, _ = ot.kr_dual(mu, nu, cost)
    coupling, _ = ot.kantorovich_primal(mu, nu, cost)
    assert ot.kr_tight_check(f, coupling, cost, 1e-7)

    flat = ot.KrPotential(f.points, np.zeros_like(f.values))
    assert not ot.kr_tight_check(flat, coupling, cost, 1e-7)

    mu2, nu2 = two_by_two()
    f2, _ = ot.kr_dual(mu2, nu2, cost)
    c2, _ = ot.kantorovich_primal(mu2, nu2, cost)
    assert ot.kr_tight_check(f2, c2, cost, 1e-7)


def test_kr_lookups_off_support_raise_missing_value():
    # the potential lives on the union {0, 1}; 2 is off it, both for a
    # point lookup and for a coupling whose right support holds it
    cost = ms.CostSpec.euclidean()
    f, _ = ot.kr_dual(ms.dirac([0.0]), ms.dirac([1.0]), cost)
    assert f.on([[1.0], [0.0]]).tolist() == [f.value_at([1.0]),
                                             f.value_at([0.0])]
    with pytest.raises(MissingValue, match=r"\(2\.0,\)"):
        f.value_at([2.0])
    coupling, _ = ot.kantorovich_primal(ms.dirac([0.0]), ms.dirac([2.0]),
                                        cost)
    with pytest.raises(MissingValue):
        ot.kr_tight_check(f, coupling, cost)


# --- multimarginal -----------------------------------------------------------

def test_multimarginal_diracs():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
    measures = [ms.dirac(p) for p in pts]
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    _, v = ot.multimarginal_primal(measures, cost)
    assert v == pytest.approx(cost([np.array(p) for p in pts]))
    pots, vd = ot.multimarginal_dual(measures, cost)
    assert vd == pytest.approx(v, abs=1e-9)
    assert pots.max_violation(cost) <= 1e-9


def test_multimarginal_uniform_diagonal():
    m01 = ms.new_measure(1, [[0.0], [1.0]], [0.5, 0.5])
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    _, v = ot.multimarginal_primal([m01] * 3, cost)
    assert v == pytest.approx(0.0, abs=1e-12)
    pots, vd = ot.multimarginal_dual([m01] * 3, cost)
    assert vd == pytest.approx(0.0, abs=1e-9)
    assert pots.max_violation(cost) <= 1e-9


def test_multimarginal_forced_instance():
    m01 = ms.new_measure(1, [[0.0], [1.0]], [0.5, 0.5])
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    measures = [m01, ms.dirac([0.0]), ms.dirac([1.0])]
    _, v = ot.multimarginal_primal(measures, cost)
    assert v == pytest.approx(2.0)
    pots, vd = ot.multimarginal_dual(measures, cost)
    assert vd == pytest.approx(2.0, abs=1e-9)
    assert pots.max_violation(cost) <= 1e-9


def test_custom_multicost_matches_pairwise_sum():
    # the k-ary sum of euclidean distances, wrapped as a custom cost, is
    # pairwise_sum(euclidean): the same tensor and the same optimal value
    rng = np.random.default_rng(37)
    measures = [random_measure(rng, 2, 4) for _ in range(3)]
    custom = ms.MultiCost.custom(lambda xs: sum(
        float(np.linalg.norm(xs[i] - xs[j]))
        for i in range(len(xs)) for j in range(i + 1, len(xs))))
    summed = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    supports = [m.points for m in measures]
    tensor = custom.tensor(supports)
    assert tensor.shape == tuple(len(m) for m in measures)
    assert np.allclose(tensor, summed.tensor(supports), rtol=0, atol=1e-12)
    _, value = ot.multimarginal_primal(measures, custom)
    assert value == pytest.approx(
        ot.multimarginal_primal(measures, summed)[1], abs=1e-12)


def test_multimarginal_k2_agrees_with_two_marginal():
    rng = np.random.default_rng(31)
    mu = random_measure(rng, 2, 6)
    nu = random_measure(rng, 2, 6)
    base = ms.CostSpec.euclidean()
    _, v2 = ot.kantorovich_primal(mu, nu, base)
    _, vk = ot.multimarginal_primal([mu, nu],
                                    ms.MultiCost.pairwise_sum(base))
    assert abs(v2 - vk) <= 1e-8


def test_coupling_lp_size_budget():
    # 6000 rows over 9e6 couplings: refused before the 72 MB cost matrix
    m = ms.new_measure(1, np.arange(3000.0)[:, None], np.full(3000, 1 / 3000))
    eu = ms.CostSpec.euclidean()
    for solve in (ot.kantorovich_primal, ot.kantorovich_dual, ot.kr_dual):
        assert traced_refusal_peak(ProductTooLarge,
                                   lambda: solve(m, m, eu)) < 20e6


def test_multimarginal_guard():
    # the dense tableau would take ~2.4 GB; the refusal comes from the
    # sizes, before the cost tensor is built
    m = ms.new_measure(1, [[float(i)] for i in range(101)],
                       np.full(101, 1 / 101))
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    peak = traced_refusal_peak(
        ProductTooLarge, lambda: ot.multimarginal_primal([m, m, m], cost))
    assert peak < 20e6


# --- least-cost starting basis ----------------------------------------------

@st.composite
def staircase_cases(draw):
    """k = 2..4 marginals of 1 to 4 atoms with integer weights, some zero,
    and an integer cost tensor with many ties."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    measures = []
    for n in sizes:
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n)), dtype=float)
        w[draw(st.integers(0, n - 1))] += 1.0
        measures.append(ms.new_measure(1, np.arange(n, dtype=float)[:, None],
                                       w / w.sum()))
    cells = int(np.prod(sizes))
    C = np.array(draw(st.lists(st.integers(0, 3), min_size=cells,
                               max_size=cells)), dtype=float)
    return measures, C.reshape(sizes)


@given(staircase_cases())
def test_least_cost_basis_is_a_feasible_start(case):
    measures, C = case
    A, b = ot._marginal_rows(measures)
    basis = ot._least_cost_basis(C, [m.weights for m in measures])
    named = basis >= 0
    # an artificial on row i is the unit column e_i
    B = np.eye(b.size)
    B[:, named] = A[:, basis[named]]
    assert np.linalg.matrix_rank(B) == b.size
    x = np.linalg.solve(B, b)
    assert x.min() >= -1e-15
    assert np.abs(x[~named]).max() <= 1e-15
    prog = lp.LinearProgram(C.ravel(), A, b)
    warm, cold = lp.solve(prog, basis=basis), lp.solve(prog)
    assert abs(warm.value - cold.value) <= 1e-12
    for sol in (warm, cold):
        res = lp.residual_report(prog, sol)
        assert max(res.values()) <= 1e-9, res


def test_coupling_lps_run_no_phase_one(monkeypatch):
    real, phases = lp._pivot_loop, []
    params = inspect.signature(real)

    def recorded(*args, **kwargs):
        phases.append(params.bind(*args, **kwargs).arguments["phase"])
        return real(*args, **kwargs)
    monkeypatch.setattr(lp, "_pivot_loop", recorded)
    rng = np.random.default_rng(17)
    mu, nu = random_measure(rng, 2, 10), random_measure(rng, 2, 10)
    eu = ms.CostSpec.euclidean()
    ot.kantorovich_primal(mu, nu, ms.CostSpec.sq_euclidean())
    ot.kr_dual(mu, nu, eu)
    margs = [random_measure(rng, 1, 5) for _ in range(3)]
    ot.multimarginal_dual(margs, ms.MultiCost.pairwise_sum(eu))
    assert phases and set(phases) == {2}


def test_marginal_refusals_come_before_any_cost():
    # fewer than two marginals and unequal dimensions are refused from the
    # measures alone: neither cost is ever evaluated
    calls = []
    pair_cost = ms.CostSpec.custom(lambda x, y: calls.append(1) or 0.0)
    multi_cost = ms.MultiCost.custom(lambda pts: calls.append(1) or 0.0)
    line = ms.new_measure(1, [[0.0], [1.0]], [0.5, 0.5])
    plane = ms.dirac([0.0, 0.0])
    for solve in (ot.multimarginal_primal, ot.multimarginal_dual):
        with pytest.raises(DimensionMismatch,
                           match="need at least two marginals"):
            solve([line], multi_cost)
        with pytest.raises(DimensionMismatch,
                           match="marginal dims 1 vs 1 vs 2"):
            solve([line, line, plane], multi_cost)
    for solve in (ot.kantorovich_primal, ot.kantorovich_dual, ot.kr_dual):
        with pytest.raises(DimensionMismatch, match="marginal dims 1 vs 2"):
            solve(line, plane, pair_cost)
    assert calls == []


# --- c-convexification -------------------------------------------------------

def test_convexify_worked_example():
    sup = [np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])]
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    pots = ot.multi_c_convexify([{(0.0,): 1.0}, {(1.0,): 0.0}], cost, sup)
    assert np.allclose(pots.values[0], [1.0, 0.0])
    assert np.allclose(pots.values[1], [-1.0, 0.0])
    assert pots.values[0][0] + pots.values[1][1] == pytest.approx(1.0)
    assert pots.max_violation(cost) <= 1e-12


def test_convexify_seeded_sums_to_cost_at_seed():
    rng = np.random.default_rng(37)
    sup = [rng.uniform(-1, 1, (4, 2)) for _ in range(3)]
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    seed_idx = (1, 2, 0)
    seed_pts = [sup[i][seed_idx[i]] for i in range(3)]
    seed_val = cost(seed_pts)
    partial = [{tuple(seed_pts[0]): seed_val},
               {tuple(seed_pts[1]): 0.0},
               {tuple(seed_pts[2]): 0.0}]
    pots = ot.multi_c_convexify(partial, cost, sup)
    assert pots.max_violation(cost) <= 1e-9
    total = sum(pots.values[i][seed_idx[i]] for i in range(3))
    assert total == pytest.approx(seed_val, abs=1e-9)
    # dominates the inputs on the seed sets
    assert pots.values[0][seed_idx[0]] >= seed_val - 1e-12
    # infimum fixed-point identity holds on every axis
    C = cost.tensor(sup)
    assert ot._fixed_point_residual(list(pots.values), C) <= 1e-9


def test_convexify_full_support_inputs():
    sup = [np.array([[0.0], [1.0]])] * 2
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    const = -0.5  # -||c||_inf / k
    partial = [{(0.0,): const, (1.0,): const} for _ in range(2)]
    pots = ot.multi_c_convexify(partial, cost, sup)
    assert pots.max_violation(cost) <= 1e-12
    for i in range(2):
        assert np.all(pots.values[i] >= const - 1e-12)


def test_convexify_rejects_infeasible_seed():
    sup = [np.array([[0.0], [1.0]])] * 2
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    with pytest.raises(InfeasibleInput):
        ot.multi_c_convexify([{(0.0,): 2.0}, {(1.0,): 0.0}], cost, sup)
    with pytest.raises(DimensionMismatch, match="1 tables for 2 supports"):
        ot.multi_c_convexify([{(0.0,): 0.0}], cost, sup)


# --- boundedness normalization ----------------------------------------------

def _seeded_pots(rng, k=3, npts=4, dim=2):
    sup = [rng.uniform(-1, 1, (npts, dim)) for _ in range(k)]
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    seed_pts = [s[0] for s in sup]
    partial = [{tuple(seed_pts[0]): cost(seed_pts)}] + \
        [{tuple(seed_pts[i]): 0.0} for i in range(1, k)]
    return ot.multi_c_convexify(partial, cost, sup), cost


def test_normalize_bound_and_objective():
    rng = np.random.default_rng(41)
    pots, cost = _seeded_pots(rng)
    k = len(pots.values)
    M = float(np.max(np.abs(cost.tensor(pots.supports))))
    out = ot.normalize_potentials(pots, cost)
    bound = max(k, 3) * M + 1e-9
    for v in out.values:
        assert np.max(np.abs(v)) <= bound
    # shifts sum to zero, so the objective is unchanged for probabilities
    weights = [np.full(len(s), 1.0 / len(s)) for s in pots.supports]
    before = sum(w @ v for w, v in zip(weights, pots.values))
    after = sum(w @ v for w, v in zip(weights, out.values))
    assert abs(before - after) <= 1e-12
    shifts = [float(o[0] - p[0])
              for o, p in zip(out.values, pots.values)]
    assert abs(sum(shifts)) <= 1e-12


def test_normalize_accepts_already_normalized():
    rng = np.random.default_rng(43)
    pots, cost = _seeded_pots(rng)
    once = ot.normalize_potentials(pots, cost)
    twice = ot.normalize_potentials(once, cost)
    k = len(once.values)
    M = float(np.max(np.abs(cost.tensor(pots.supports))))
    for v in twice.values:
        assert np.max(np.abs(v)) <= max(k, 3) * M + 1e-9


def test_normalize_restores_offset_potentials():
    rng = np.random.default_rng(47)
    pots, cost = _seeded_pots(rng, k=2)
    offset = ot.MultiPotentials(pots.supports,
                                (pots.values[0] + 100.0,
                                 pots.values[1] - 100.0))
    out = ot.normalize_potentials(offset, cost)
    M = float(np.max(np.abs(cost.tensor(pots.supports))))
    for v in out.values:
        assert np.max(np.abs(v)) <= max(2, 3) * M + 1e-9


def test_normalize_rejects_non_fixed_point():
    rng = np.random.default_rng(53)
    pots, cost = _seeded_pots(rng, k=2)
    broken = ot.MultiPotentials(pots.supports,
                                (pots.values[0] + 1.0, pots.values[1]))
    with pytest.raises(NotAFixedPoint):
        ot.normalize_potentials(broken, cost)


def test_multimarginal_duality_gap_small_instances():
    rng = np.random.default_rng(59)
    for k in (3, 4):
        measures = [random_measure(rng, 1, 4) for _ in range(k)]
        cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
        _, vp = ot.multimarginal_primal(measures, cost)
        pots, vd = ot.multimarginal_dual(measures, cost)
        assert abs(vp - vd) <= 1e-7 * (1 + abs(vp))
        assert pots.max_violation(cost) <= 1e-9
