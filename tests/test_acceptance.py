"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see every line.
"""

import time

import numpy as np
import pytest

from conftest import (
    kr_certificate_errors,
    lp_value_by_vertex_enumeration,
    random_bounded_lp,
    random_convex_order_pair,
    random_measure,
)
from transportkit import convex_order as co, lp, measures as ms, mot, ot
from transportkit.functions import Box, FunctionEvaluator, Grid, ModulusSpec
from transportkit.measures import DiscreteMeasure


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} - {name}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {name} {detail}"


def _pm1():
    return ms.new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])


def _nu3():
    return ms.new_measure(1, [[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25])


_COSTS3 = (ms.CostSpec.euclidean(), ms.CostSpec.sq_euclidean(),
           ms.CostSpec.manhattan())

_OT_CACHE = []


def _ot_instances():
    if not _OT_CACHE:
        rng = np.random.default_rng(20250801)
        for k in range(50):
            dim = int(rng.integers(1, 4))
            mu = random_measure(rng, dim, 12)
            nu = random_measure(rng, dim, 12)
            cost = _COSTS3[k % 3]
            coupling, primal = ot.kantorovich_primal(mu, nu, cost)
            pots, dual = ot.kantorovich_dual(mu, nu, cost)
            _OT_CACHE.append((mu, nu, cost, coupling, primal, pots, dual))
    return _OT_CACHE


def test_criterion_01_ot_strong_duality():
    worst = 0.0
    violation = 0.0
    for mu, nu, cost, coupling, primal, pots, dual in _ot_instances():
        rel = abs(primal - dual) / (1.0 + abs(primal))
        worst = max(worst, rel)
        violation = max(violation, pots.max_violation(cost))
    ok = worst <= 1e-7 and violation <= 1e-9
    _report(1, "OT strong duality on 50 random instances", ok,
            f"max relative gap {worst:.2e}, "
            f"max dual violation {violation:.2e}")


def test_criterion_01_runtime():
    # fresh clock on a fresh cache so the 5 s budget is measured honestly
    _OT_CACHE.clear()
    t0 = time.perf_counter()
    _ot_instances()
    elapsed = time.perf_counter() - t0
    _report(1, "OT duality runtime budget", elapsed < 5.0,
            f"{elapsed:.2f}s for 50 primal+dual solves, budget 5s")


def test_criterion_02_tight_support():
    ok = True
    for mu, nu, cost, coupling, primal, pots, dual in _ot_instances():
        _, tight = ot.tight_support_report(pots, coupling, cost, 1e-7)
        ok = ok and tight
    _report(2, "optimal couplings tight against optimal potentials", ok,
            "tol 1e-7, 50 instances")


def test_criterion_03_kantorovich_rubinstein():
    rng = np.random.default_rng(20250803)
    metrics = (ms.CostSpec.euclidean(), ms.CostSpec.manhattan(),
               ms.CostSpec.truncated_euclidean(1.0))
    worst = 0.0
    lipschitz = 0.0
    value_err = 0.0
    tight_ok = True
    for k in range(20):
        dim = int(rng.integers(1, 3))
        mu = random_measure(rng, dim, 8)
        nu = random_measure(rng, dim, 8)
        cost = metrics[k % 3]
        f, v_single = ot.kr_dual(mu, nu, cost)
        _, v_two = ot.kantorovich_dual(mu, nu, cost)
        worst = max(worst, abs(v_single - v_two))
        lip, err = kr_certificate_errors(f, v_single, mu, nu, cost)
        lipschitz, value_err = max(lipschitz, lip), max(value_err, err)
        coupling, _ = ot.kantorovich_primal(mu, nu, cost)
        tight_ok = tight_ok and ot.kr_tight_check(f, coupling, cost, 1e-7)
    ok = worst <= 1e-7 and tight_ok and lipschitz <= 1e-9 \
        and value_err <= 1e-12
    _report(3, "Kantorovich-Rubinstein single potential", ok,
            f"max |single - two| = {worst:.2e}, Lipschitz excess "
            f"{lipschitz:.2e}, value error {value_err:.2e}, tight checks "
            f"{'pass' if tight_ok else 'fail'}")


def test_criterion_04_multimarginal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250804)
    base = ms.CostSpec.euclidean()
    cost = ms.MultiCost.pairwise_sum(base)
    worst = 0.0
    violation = 0.0
    for k, cap in ((3, 6), (4, 4)):
        measures = [random_measure(rng, 1, cap) for _ in range(k)]
        _, vp = ot.multimarginal_primal(measures, cost)
        pots, vd = ot.multimarginal_dual(measures, cost)
        worst = max(worst, abs(vp - vd) / (1.0 + abs(vp)))
        violation = max(violation, pots.max_violation(cost))
    mu = random_measure(rng, 2, 6)
    nu = random_measure(rng, 2, 6)
    _, v2 = ot.kantorovich_primal(mu, nu, base)
    _, vk2 = ot.multimarginal_primal([mu, nu], cost)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and violation <= 1e-9 and abs(v2 - vk2) <= 1e-8 \
        and elapsed < 20.0
    _report(4, "multimarginal duality (k=3,4) and k=2 agreement", ok,
            f"max gap {worst:.2e}, max dual violation {violation:.2e}, "
            f"|k2 - two-marginal| = "
            f"{abs(v2 - vk2):.2e}, {elapsed:.2f}s of 20s")


def test_criterion_05_c_convexification():
    rng = np.random.default_rng(20250805)
    k = 3
    supports = [rng.uniform(-1, 1, (4, 2)) for _ in range(k)]
    cost = ms.MultiCost.pairwise_sum(ms.CostSpec.euclidean())
    seed_idx = (0, 1, 2)
    seed_pts = [supports[i][seed_idx[i]] for i in range(k)]
    seed_val = cost(seed_pts)
    partial = [{tuple(seed_pts[0]): seed_val}] + \
        [{tuple(seed_pts[i]): 0.0} for i in range(1, k)]
    pots = ot.multi_c_convexify(partial, cost, supports)
    feasible = pots.max_violation(cost) <= 1e-9
    at_seed = sum(pots.values[i][seed_idx[i]] for i in range(k))
    seeded = abs(at_seed - seed_val) <= 1e-9
    normalized = ot.normalize_potentials(pots, cost)
    M = float(np.max(np.abs(cost.tensor(supports))))
    bound = max(k, 3) * M + 1e-9
    bounded = all(np.max(np.abs(v)) <= bound for v in normalized.values)
    ok = feasible and seeded and bounded
    _report(5, "seeded c-convexification and boundedness normalization",
            ok, f"seed sum error {abs(at_seed - seed_val):.2e}, "
            f"norm bound {bound:.3f}")


_ORDER_CACHE = []


def _order_instances():
    if not _ORDER_CACHE:
        rng = np.random.default_rng(20250806)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            mu, nu = random_convex_order_pair(rng, dim, 10, max_spreads=5)
            _ORDER_CACHE.append((mu, nu))
    return _ORDER_CACHE


def test_criterion_06_convex_order_and_strassen():
    rng = np.random.default_rng(20250816)
    worst_resid = 0.0
    for mu, nu in _order_instances():
        cert = co.convex_order_check(mu, nu)
        assert cert.in_order
        drift = cert.coupling.mass @ nu.points \
            - cert.coupling.mass.sum(axis=1)[:, None] * mu.points
        worst_resid = max(worst_resid,
                          float(np.max(np.linalg.norm(drift, axis=1))))
    in_order_ok = worst_resid <= 1e-9

    rejections = 0
    witnesses_ok = True
    for i, (mu, nu) in enumerate(_order_instances()):
        if i % 2 == 0:
            shift = rng.uniform(0.2, 0.6, mu.dim)
            bad = DiscreteMeasure(nu.dim, nu.points + shift, nu.weights)
            pair = (mu, bad)
        else:
            pair = (nu, mu)  # reversed strict spread
        cert = co.convex_order_check(*pair)
        if cert.in_order:
            witnesses_ok = False
            continue
        rejections += 1
        witnesses_ok = witnesses_ok and \
            cert.witness.integral_gap(*pair) > 1e-10
    ok = in_order_ok and rejections == 30 and witnesses_ok
    _report(6, "convex order: 30 accepts with martingale couplings, "
               "30 certified rejections", ok,
            f"max barycenter residual {worst_resid:.2e}")


def test_criterion_07_fan_decomposition():
    cost = ms.CostSpec.euclidean()
    worst_tv = 0.0
    worst_costgap = 0.0
    extreme_ok = True
    for mu, nu in _order_instances():
        rep = co.choquet_represent(mu, nu)
        worst_tv = max(worst_tv, max(rep.recomposition_error(mu, nu)))
        for _, fan in rep.entries:
            extreme_ok = extreme_ok and \
                co.is_extreme_pair(fan.center, fan.measure()).ok
        coupling = co.strassen_coupling(mu, nu)
        direct = float(np.sum(coupling.mass
                              * cost.pairwise(mu.points, nu.points)))
        worst_costgap = max(worst_costgap,
                            abs(co.representation_cost(rep, cost) - direct))
    ok = worst_tv <= 1e-9 and extreme_ok and worst_costgap <= 1e-9
    _report(7, "fan decomposition round trip on the 30 accepted pairs", ok,
            f"max TV {worst_tv:.2e}, max cost identity gap "
            f"{worst_costgap:.2e}")


def test_criterion_08_mot_duality():
    rng = np.random.default_rng(20250808)
    costs = (ms.CostSpec.euclidean(), ms.CostSpec.sq_euclidean())
    worst = 0.0
    for k in range(30):
        dim = int(rng.integers(1, 3))
        mu, nu = random_convex_order_pair(rng, dim, 8)
        cost = costs[k % 2]
        _, vp = mot.mot_primal(mu, nu, cost)
        _, vd = mot.mot_dual(mu, nu, cost)
        worst = max(worst, abs(vp - vd) / (1.0 + abs(vp)))
    _, v_hand = mot.mot_primal(_pm1(), _nu3(), ms.CostSpec.euclidean())
    ok = worst <= 1e-7 and abs(v_hand - 1.0) <= 1e-9
    _report(8, "MOT strong duality, 30 instances plus hand-derived value",
            ok, f"max relative gap {worst:.2e}, hand instance "
            f"{v_hand:.12f}")


def test_criterion_09_symmetric_dual_grid_refinement():
    cost = ms.CostSpec.euclidean()

    def padded(table, grid):
        pts = [[g] for g in grid]
        w = [table.get(g, 0.0) for g in grid]
        return DiscreteMeasure(1, np.array(pts), np.array(w))

    gaps = []
    for step in (0.5, 0.25, 0.125):
        grid = np.round(np.arange(-1.0, 1.0 + step / 2, step), 12)
        mu = padded({-0.5: 0.5, 0.5: 0.5}, grid)
        nu = padded({-1.0: 0.25, 0.0: 0.5, 1.0: 0.25}, grid)
        _, v_gen = mot.mot_dual(mu, nu, cost)
        sym, v_sym = mot.mot_dual_symmetric(mu, nu, cost)
        assert v_sym <= v_gen + 1e-9, "symmetric dual exceeded the general"
        assert sym.max_violation(cost) <= 1e-9
        gaps.append(v_gen - v_sym)
    non_increasing = all(gaps[i + 1] <= gaps[i] + 1e-9
                         for i in range(len(gaps) - 1))
    _report(9, "single-potential dual under grid refinement",
            non_increasing,
            "gaps at steps 1/2, 1/4, 1/8: "
            + ", ".join(f"{g:.3e}" for g in gaps))


def test_criterion_10_bclass_equivalence():
    # certified direction: gamma field implies zero simplex violations on
    # tuples whose barycenter stays in the certified set
    rng = np.random.default_rng(20250810)
    X = np.linspace(-1, 1, 41).reshape(-1, 1)
    cost = ms.CostSpec.euclidean()
    f = mot.bclass_generate(
        [([0.2], [0.6], 0.0), ([-0.5], [-0.3], 0.1), ([0.8], [1.0], -0.2)],
        cost)
    cert = mot.gamma_certify(f, f, X, X, cost)
    assert cert.ok
    worst = -np.inf
    for _ in range(10 ** 4):
        xbar = X[int(rng.integers(len(X)))]
        lo = X[X[:, 0] <= xbar[0]]
        hi = X[X[:, 0] >= xbar[0]]
        a = lo[int(rng.integers(len(lo)))]
        b = hi[int(rng.integers(len(hi)))]
        if a[0] == b[0]:
            atoms, lam = a.reshape(1, -1), np.array([1.0])
        else:
            t = (xbar[0] - a[0]) / (b[0] - a[0])
            atoms, lam = np.vstack([a, b]), np.array([1.0 - t, t])
        worst = max(worst, mot.simplex_violation(f, f, cost, atoms, lam))
    certified_ok = worst <= 1e-8

    neg = FunctionEvaluator.neg_quadratic()
    res = mot.simplex_inequality_check(neg, neg, ms.CostSpec.zero(1),
                                       Box([-1.0], [1.0]), 10 ** 3, seed=4)
    witness_ok = (not res.ok) and res.samples <= 10 ** 3
    ok = certified_ok and witness_ok
    _report(10, "gamma certificates imply simplex inequalities; concave "
                "counterexample found", ok,
            f"max violation on certified tuples {worst:.2e}, witness after "
            f"{res.samples} samples")


def test_criterion_11_extension():
    K = np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)
    g = (K ** 2).ravel()
    gamma = -2.0 * K
    zero = ms.CostSpec.zero(1)
    res = mot.extend(K, g, zero, gamma, [[2.0]])
    value_ok = abs(res.values[0] - 3.0) <= 1e-5
    restrict_ok = res.restriction_error <= 1e-9

    lb = FunctionEvaluator.quadratic([[1.0]], [0.0], -0.5)
    targets = [[2.0], [0.25], [-1.5]]
    joined = mot.extend(K, g, zero, gamma, targets, lower_bound=lb)
    dominate_ok = all(v >= lb(p) for p, v in zip(targets, joined.values))
    ok = value_ok and restrict_ok and dominate_ok
    _report(11, "class extension: value at 2, restriction identity, "
                "lower-bound join", ok,
            f"extension(2) = {res.values[0]:.6f}, restriction error "
            f"{res.restriction_error:.2e}")


def test_criterion_12_uniform_convexity():
    t2 = ModulusSpec.power(2)
    certified = True
    for dim in (1, 2, 3):
        grid = Grid(Box([-1.0] * dim, [1.0] * dim), (5,) * dim).points()
        f = FunctionEvaluator.quadratic(np.eye(dim), np.zeros(dim))
        certified = certified and mot.uniform_convexity_certify(f, t2,
                                                                grid).ok
    grid1 = np.linspace(-1, 1, 21).reshape(-1, 1)
    res = mot.uniform_convexity_certify(FunctionEvaluator.abs_norm(), t2,
                                        grid1)
    x = None if res.ok else res.counterexample.point[0]
    failed_ok = (not res.ok) and -1.0 < x < 1.0 \
        and len(res.counterexample.binding) >= 2
    ok = certified and failed_ok
    _report(12, "uniform convexity: quadratic certified in R1-R3, "
                "absolute value refuted", ok,
            f"counterexample at x = {x}, "
            f"{len(res.counterexample.binding)} binding rows")


def test_criterion_13_martingale_triangle_inequality():
    box = Box([-1.0], [1.0])
    eu_ok = mot.mti_check(ms.CostSpec.euclidean(), box, 10 ** 4, 13).ok
    tr_ok = mot.mti_check(ms.CostSpec.truncated_euclidean(1.0), box,
                          10 ** 4, 13).ok
    sq_res = mot.mti_check(ms.CostSpec.sq_euclidean(), box, 10 ** 4, 13)
    sq_ok = sq_res.ok and sq_res.max_violation <= 1e-9

    neg = ms.CostSpec.custom(lambda x, y: -float(np.linalg.norm(x - y)))
    quart = ms.CostSpec.custom(
        lambda x, y: float(np.sum((x - y) ** 2) + np.sum((x - y) ** 2) ** 2))
    neg_res = mot.mti_check(neg, Box([-2.0], [2.0]), 10 ** 4, 13)
    quart_res = mot.mti_check(quart, box, 10 ** 5, 13)
    witnesses_ok = (not neg_res.ok) and (not quart_res.ok)

    grid = Grid(Box([-1.0], [1.0]), (9,))
    hess_quart = mot.mti_second_order_check(quart, grid, 1e-4)
    hess_sq = mot.mti_second_order_check(ms.CostSpec.sq_euclidean(), grid,
                                         1e-4)
    hess_lin = mot.mti_second_order_check(ms.CostSpec.linear([0.7]), grid,
                                          1e-4)
    hessian_ok = (not hess_quart.ok) and hess_sq.ok and hess_lin.ok
    ok = eu_ok and tr_ok and sq_ok and witnesses_ok and hessian_ok
    _report(13, "martingale triangle inequality battery", ok,
            f"squared-distance max |gap| {sq_res.max_violation:.2e}, "
            f"negated metric witness after {neg_res.samples} samples, "
            f"quartic witness after {quart_res.samples} samples")


def test_criterion_14_lp_oracle():
    rng = np.random.default_rng(20250814)
    worst_val = 0.0
    worst_cs = 0.0
    for _ in range(100):
        prog = random_bounded_lp(rng, max_vars=6, max_rows=6)
        sol = lp.solve(prog)
        oracle = lp_value_by_vertex_enumeration(prog)
        worst_val = max(worst_val,
                        abs(sol.value - oracle) / (1.0 + abs(oracle)))
        worst_cs = max(worst_cs, lp.residual_report(
            prog, sol)["complementary_slackness"])
    ok = worst_val <= 1e-7 and worst_cs <= 1e-8
    _report(14, "LP oracle equivalence and complementary slackness", ok,
            f"max value gap {worst_val:.2e}, max CS residual "
            f"{worst_cs:.2e}")
