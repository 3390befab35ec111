import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import count_solves, kernel_pairs, mean_preserving_spread, \
    nu3, planar_spread_pair, pm1, random_convex_order_pair, random_measure
from transportkit import convex_order as co, lp, measures as ms, mot
from transportkit.errors import BarycenterMismatch, DimensionMismatch, \
    NotInConvexOrder


def spread_pair(seed, index):
    """A seeded 2-D pair in convex order: 8 atoms mu, each split along a
    random direction into two atoms that keep its barycenter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, index]))
    X = rng.uniform(-1, 1, (8, 2))
    w = rng.uniform(0.5, 1.5, size=8)
    w = w / w.sum()
    pts, wts = [], []
    for x, wx in zip(X, w):
        ang = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        s1, s2 = rng.uniform(0.1, 0.5, size=2)
        pts += [x + s1 * u, x - s2 * u]
        wts += [wx * s2 / (s1 + s2), wx * s1 / (s1 + s2)]
    wts = np.asarray(wts)
    return ms.new_measure(2, X, w), \
        ms.new_measure(2, np.asarray(pts), wts / wts.sum())


# --- convex_order_check -------------------------------------------------------

def test_jensen_pair_in_order():
    cert = co.convex_order_check(ms.dirac([0.0]), pm1())
    assert cert.in_order
    assert np.allclose(cert.coupling.mass, [[0.5, 0.5]])


def test_reversed_pair_not_in_order():
    cert = co.convex_order_check(pm1(), ms.dirac([0.0]))
    assert not cert.in_order
    # the witness behaves like x^2: separates by the variance
    gap = cert.witness.integral_gap(pm1(), ms.dirac([0.0]))
    assert gap > 1e-10


def test_mean_shift_not_in_order():
    cert = co.convex_order_check(ms.dirac([0.0]), ms.dirac([1.0]))
    assert not cert.in_order
    assert cert.witness.integral_gap(ms.dirac([0.0]),
                                     ms.dirac([1.0])) > 1e-10


def test_witnesses_verify_on_random_rejections():
    rng = np.random.default_rng(61)
    for _ in range(15):
        dim = int(rng.integers(1, 3))
        mu, nu = random_convex_order_pair(rng, dim, 6)
        shifted = ms.DiscreteMeasure(dim, nu.points + 0.5, nu.weights)
        cert = co.convex_order_check(mu, shifted)
        assert not cert.in_order
        assert cert.witness.integral_gap(mu, shifted) > 1e-10
        rev = co.convex_order_check(nu, mu)
        assert not rev.in_order
        assert rev.witness.integral_gap(nu, mu) > 1e-10


def test_in_order_implies_convex_integral_inequality():
    rng = np.random.default_rng(67)
    mu, nu = random_convex_order_pair(rng, 2, 6)
    cert = co.convex_order_check(mu, nu)
    assert cert.in_order
    for _ in range(100):
        pieces = rng.integers(1, 4)
        slopes = rng.uniform(-2, 2, (pieces, 2))
        intercepts = rng.uniform(-1, 1, pieces)
        f = co.ConvexWitness(slopes, intercepts)
        lhs = sum(w * f(p) for p, w in zip(mu.points, mu.weights))
        rhs = sum(w * f(p) for p, w in zip(nu.points, nu.weights))
        assert lhs <= rhs + 1e-9


def test_noise_farkas_ray_is_not_a_refusal():
    # phase 1 used to return a ray whose positive b.y was rounding noise of
    # multipliers near 1e15, refusing a pair that is in convex order
    mu, nu = spread_pair(109, 11)
    cert = co.convex_order_check(mu, nu)
    assert cert.in_order
    cost = ms.CostSpec.sq_euclidean()
    _, primal = mot.mot_primal(mu, nu, cost)
    _, dual = mot.mot_dual(mu, nu, cost)
    assert primal == pytest.approx(0.1076982756, abs=1e-9)
    assert abs(primal - dual) <= 1e-9


def test_unbounded_verdict_is_validated():
    # phase 2 used to declare the dual unbounded on a basis of condition
    # ~1e17 whose entering column showed no pivot above tolerance, though
    # the ray it implied does not improve the objective
    mu, nu = spread_pair(11, 53)
    cost = ms.CostSpec.sq_euclidean()
    _, primal = mot.mot_primal(mu, nu, cost)
    _, dual = mot.mot_dual(mu, nu, cost)
    assert primal == pytest.approx(0.0927369686, abs=1e-9)
    assert abs(primal - dual) <= 1e-9
    with pytest.raises(NotInConvexOrder):
        mot.mot_dual(nu, mu, cost)


SQUARE = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]


@pytest.mark.parametrize("mu, nu", [
    # 1-D, equal hulls: nu puts half of mu's mass on the shared barycenter
    (pm1(), ms.new_measure(1, [[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])),
    # the 2-D analogue on the corners of a square
    (ms.new_measure(2, SQUARE, [0.25] * 4),
     ms.new_measure(2, SQUARE + [[0.0, 0.0]], [0.125] * 4 + [0.5])),
    # a mean shift inside a shared hull
    (pm1(), ms.new_measure(1, [[-1.0], [1.0]], [0.75, 0.25])),
], ids=["equal-hulls-1d", "equal-hulls-2d", "mean-shift-in-hull"])
def test_refusals_inside_the_hull_come_from_the_lp(mu, nu, monkeypatch):
    # every atom of mu lies in the hull of nu's support, so the support
    # function refutes nothing: the LP runs and its Farkas ray separates
    assert co._hull_witness(mu, nu) is None
    calls = count_solves(monkeypatch)
    cert = co.convex_order_check(mu, nu)
    assert not cert.in_order and len(calls) == 1
    assert cert.witness.integral_gap(mu, nu) > 1e-10
    # mot_primal and mot_dual reach the same verdict from the same LP
    for solve in (mot.mot_primal, mot.mot_dual):
        calls.clear()
        with pytest.raises(NotInConvexOrder):
            solve(mu, nu, ms.CostSpec.euclidean())
        assert len(calls) == 1


def test_hull_refusals_solve_no_lp(monkeypatch):
    # the reversed 8 x 16 pair: each of nu's atoms lies outside the hull of
    # mu's, and the two-piece witness max(0, <s, z> - h) separates
    mu, nu = planar_spread_pair(7)
    calls = count_solves(monkeypatch)
    cert = co.convex_order_check(nu, mu)
    assert not cert.in_order
    assert cert.witness.slopes.shape == (2, 2)
    assert cert.witness.integral_gap(nu, mu) > 1e-10
    with pytest.raises(NotInConvexOrder):
        co.choquet_represent(nu, mu)
    with pytest.raises(NotInConvexOrder):
        mot.mot_dual(nu, mu, ms.CostSpec.euclidean())
    assert calls == []


@st.composite
def shifted_order_pairs(draw):
    """(mu, nu, shift): a pair in convex order, from ``kernel_pairs``
    (ties on the integer lattice) or ``random_convex_order_pair``, and a
    shift of nu's support in [-1, 1]^d."""
    if draw(st.booleans()):
        mu, nu, _ = draw(kernel_pairs())
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        mu, nu = random_convex_order_pair(rng, draw(st.sampled_from([1, 2])),
                                          6)
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=mu.dim,
                          max_size=mu.dim))
    return mu, nu, np.asarray(shift)


@given(shifted_order_pairs())
def test_hull_witness_never_contradicts_the_lp(case):
    mu, nu, shift = case
    assert co._hull_witness(mu, nu) is None
    shifted = ms.DiscreteMeasure(nu.dim, nu.points + shift, nu.weights)
    for a, b in ((nu, mu), (mu, shifted), (shifted, mu)):
        witness = co._hull_witness(a, b)
        if witness is None:
            continue
        assert witness.integral_gap(a, b) > 1e-10
        res = lp.check_feasibility(*co._martingale_rows(a, b),
                                   basis=co._martingale_start(a, b))
        assert res.status == lp.INFEASIBLE


# --- strassen_coupling / disintegrate ----------------------------------------

def test_strassen_unique_solution():
    coupling = co.strassen_coupling(pm1(), nu3())
    expected = np.array([[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]])
    assert np.allclose(coupling.mass, expected, atol=1e-10)


def test_strassen_trivial_cases():
    nu = pm1()
    c = co.strassen_coupling(ms.dirac([0.0]), nu)
    assert np.allclose(c.mass, nu.weights[None, :])
    mu = random_measure(np.random.default_rng(3), 1, 4)
    c2 = co.strassen_coupling(mu, mu)
    # any martingale self-coupling works; the diagonal is one of them and
    # every valid output must satisfy the barycenter identities
    drift = c2.mass @ mu.points - c2.mass.sum(axis=1)[:, None] * mu.points
    assert np.max(np.abs(drift)) <= 1e-9


def test_strassen_raises_when_not_in_order():
    with pytest.raises(NotInConvexOrder):
        co.strassen_coupling(pm1(), ms.dirac([0.0]))


def test_martingale_lp_refuses_unequal_dims():
    # from the sizes alone, before the hull witness or any row is built
    plane = ms.dirac([0.0, 0.0])
    with pytest.raises(DimensionMismatch, match="dims 1 vs 2"):
        co.convex_order_check(pm1(), plane)
    with pytest.raises(DimensionMismatch, match="dims 1 vs 2"):
        mot.mot_primal(pm1(), plane, ms.CostSpec.euclidean())


def test_zero_weight_source_is_skipped():
    # mu's middle atom has no mass: its row of the coupling is empty, so
    # disintegrate gives it no fiber, and the fans still recompose mu
    mu = ms.new_measure(1, [[-0.5], [0.0], [0.5]], [0.5, 0.0, 0.5])
    nu = nu3()
    fibers = co.disintegrate(co.strassen_coupling(mu, nu))
    assert [x.tolist() for x, _, _ in fibers] == [[-0.5], [0.5]]
    rep = co.choquet_represent(mu, nu)
    assert max(rep.recomposition_error(mu, nu)) <= co.TV_TOL
    assert {fan.center[0] for _, fan in rep.entries} == {-0.5, 0.5}


def test_strassen_barycenter_residual_scaled():
    rng = np.random.default_rng(71)
    for _ in range(10):
        mu, nu = random_convex_order_pair(rng, 2, 8)
        coupling = co.strassen_coupling(mu, nu)
        mass = coupling.mass.sum(axis=1)
        drift = coupling.mass @ nu.points - mass[:, None] * mu.points
        for i in range(len(mu)):
            assert np.linalg.norm(drift[i]) <= 1e-9 * max(mass[i], 1e-12)


def test_disintegrate_examples():
    nu = pm1()
    prod = ms.Coupling(ms.dirac([0.0]), nu, np.array([[0.5, 0.5]]))
    fibers = co.disintegrate(prod)
    assert len(fibers) == 1
    x, mass, cond = fibers[0]
    assert mass == pytest.approx(1.0)
    assert np.allclose(cond.weights, nu.weights)

    mu = ms.new_measure(1, [[0.0], [3.0]], [0.25, 0.75])
    diag = ms.Coupling(mu, mu, np.diag(mu.weights))
    for i, (x, mass, cond) in enumerate(co.disintegrate(diag)):
        assert mass == pytest.approx(mu.weights[i])
        assert cond.weights[i] == pytest.approx(1.0)

    strassen = co.strassen_coupling(pm1(), nu3())
    fibers = co.disintegrate(strassen)
    assert np.allclose(fibers[0][2].weights, [0.5, 0.5, 0.0], atol=1e-10)
    assert np.allclose(fibers[1][2].weights, [0.0, 0.5, 0.5], atol=1e-10)
    # mixture reproduces the right marginal
    mix = sum(mass * cond.weights for _, mass, cond in fibers)
    assert np.allclose(mix, nu3().weights, atol=1e-10)


# --- fan_decompose -------------------------------------------------------------

def test_fan_decompose_already_extreme():
    rep = co.fan_decompose([0.0], pm1())
    assert len(rep.entries) == 1
    w, fan = rep.entries[0]
    assert w == pytest.approx(1.0)
    assert co.is_extreme_pair([0.0], fan.measure())


def test_fan_decompose_dirac():
    rep = co.fan_decompose([2.0], ms.dirac([2.0]))
    assert len(rep.entries) == 1
    assert rep.entries[0][1].atoms.shape == (1, 1)


def test_fan_decompose_four_atoms_recomposes():
    nu = ms.new_measure(1, [[-2.0], [-1.0], [1.0], [2.0]], [0.25] * 4)
    rep = co.fan_decompose([0.0], nu)
    err = rep.recomposition_error(ms.dirac([0.0]), nu)
    assert err[1] <= 1e-9
    for w, fan in rep.entries:
        assert co.is_extreme_pair(fan.center, fan.measure())


def test_fan_decompose_rejects_wrong_center():
    with pytest.raises(BarycenterMismatch):
        co.fan_decompose([1.0], pm1())


def test_fan_decompose_terminates_with_valid_leaves():
    rng = np.random.default_rng(73)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        base = ms.dirac(rng.uniform(-1, 1, dim))
        nu = mean_preserving_spread(rng, base, int(rng.integers(2, 6)))
        rep = co.fan_decompose(base.points[0], nu)
        assert rep.recomposition_error(base, nu)[1] <= 1e-9
        for w, fan in rep.entries:
            assert fan.atoms.shape[0] <= dim + 1
            assert co.is_extreme_pair(fan.center, fan.measure())


def test_breakdown_pair_52_186_is_in_order():
    # an in-order pair on which convex_order_check and choquet_represent
    # raised NumericalBreakdown ("basis became singular during refresh")
    # before the simplex pivoted only on rows above a relative threshold
    mu, nu = spread_pair(52, 186)
    assert co.convex_order_check(mu, nu).in_order
    rep = co.choquet_represent(mu, nu)
    assert max(rep.recomposition_error(mu, nu)) <= co.TV_TOL
    _, value = mot.mot_primal(mu, nu, ms.CostSpec.euclidean())
    assert value == pytest.approx(0.2116263803, abs=1e-9)


def _cold_value(mu, nu, cost):
    """The martingale LP's value from the artificial identity."""
    A, b = co._martingale_rows(mu, nu)
    C = cost.pairwise(mu.points, nu.points).ravel()
    return lp.solve(lp.LinearProgram(C, A, b)).value


@pytest.mark.parametrize("seed, index", [(52, 168), (41, 272)])
def test_staircase_breakdown_pairs_recover_cold(seed, index):
    # from the martingale staircase, all four in-order calls on (52, 168)
    # once broke down ("basis became singular during refresh") and were
    # saved only by a cold restart at a looser pivot tolerance; they must
    # solve from the staircase and give the cold solve's value. (41, 272)
    # is a pair of the same kind that must stay solved.
    mu, nu = spread_pair(seed, index)
    eu = ms.CostSpec.euclidean()
    assert co.convex_order_check(mu, nu).in_order
    rep = co.choquet_represent(mu, nu)
    assert max(rep.recomposition_error(mu, nu)) <= co.TV_TOL
    cold = _cold_value(mu, nu, eu)
    _, primal = mot.mot_primal(mu, nu, eu)
    _, dual = mot.mot_dual(mu, nu, eu)
    assert abs(primal - cold) <= 1e-12
    assert abs(dual - cold) <= 1e-12


@pytest.mark.parametrize("seed, index, kind", [
    (1, 69, "euclidean"), (13, 12, "euclidean"), (13, 50, "euclidean"),
    (13, 50, "sq_euclidean")])
def test_symmetric_dual_breakdown_pairs_solve(seed, index, kind):
    # mot_dual_symmetric raised NumericalBreakdown ("basis became singular
    # during refresh") on these in-order pairs while pivots on a sliver of
    # their column were admitted
    mu, nu = spread_pair(seed, index)
    cost = getattr(ms.CostSpec, kind)()
    sym, value = mot.mot_dual_symmetric(mu, nu, cost)
    _, dual = mot.mot_dual(mu, nu, cost)
    assert abs(value - dual) <= 1e-9
    assert sym.max_violation(cost) <= 1e-9


@given(kernel_pairs())
def test_martingale_start_matches_cold_solve(case):
    # the staircase start is never refused and changes no verdict, no
    # value and no certificate, in order and reversed
    mu, nu, cost = case
    assert co.convex_order_check(mu, nu).in_order
    for p, q in ((mu, nu), (nu, mu)):
        A, b = co._martingale_rows(p, q)
        start = co._martingale_start(p, q)
        cold = lp.check_feasibility(A, b)
        cert = co.convex_order_check(p, q)
        assert cert.in_order == (cold.status == lp.OPTIMAL)
        if not cert.in_order:
            assert cert.witness.integral_gap(p, q) > 1e-10
            continue
        C = cost.pairwise(p.points, q.points).ravel()
        prog = lp.LinearProgram(C, A, b)
        sol = lp.solve(prog, basis=start)
        res = lp.residual_report(prog, sol)
        assert max(res.values()) <= 1e-9, res
        cold_value = _cold_value(p, q, cost)
        assert abs(sol.value - cold_value) <= 1e-12
        assert abs(mot.mot_primal(p, q, cost)[1] - cold_value) <= 1e-12
        rep = co.choquet_represent(p, q)
        assert max(rep.recomposition_error(p, q)) <= co.TV_TOL


# --- choquet_represent ---------------------------------------------------------

def test_choquet_single_fan():
    rep = co.choquet_represent(ms.dirac([0.0]), pm1())
    assert len(rep.entries) == 1


def test_choquet_diagonal_one_atom_fans():
    mu = random_measure(np.random.default_rng(79), 1, 4)
    rep = co.choquet_represent(mu, mu)
    assert all(fan.atoms.shape[0] == 1 for _, fan in rep.entries)
    assert rep.recomposition_error(mu, mu)[0] <= 1e-9


def test_choquet_two_fan_instance():
    rep = co.choquet_represent(pm1(), nu3())
    assert len(rep.entries) == 2
    centers = sorted(fan.center[0] for _, fan in rep.entries)
    assert centers == [-1.0, 1.0]
    for w, fan in rep.entries:
        assert w == pytest.approx(0.5)
        if fan.center[0] == -1.0:
            assert sorted(fan.atoms.ravel()) == [-2.0, 0.0]
        else:
            assert sorted(fan.atoms.ravel()) == [0.0, 2.0]


def test_choquet_round_trip_random():
    rng = np.random.default_rng(83)
    for _ in range(12):
        dim = int(rng.integers(1, 4))
        mu, nu = random_convex_order_pair(rng, dim, 10)
        rep = co.choquet_represent(mu, nu)
        err = rep.recomposition_error(mu, nu)
        assert max(err) <= 1e-9
        for _, fan in rep.entries:
            assert co.is_extreme_pair(fan.center, fan.measure())


def test_representation_cost_examples():
    cost = ms.CostSpec.euclidean()
    mu = random_measure(np.random.default_rng(89), 1, 4)
    diag = co.choquet_represent(mu, mu)
    assert co.representation_cost(diag, cost) == pytest.approx(0.0,
                                                               abs=1e-12)
    rep = co.choquet_represent(ms.dirac([0.0]), pm1())
    assert co.representation_cost(rep, cost) == pytest.approx(1.0)
    rep2 = co.choquet_represent(pm1(), nu3())
    assert co.representation_cost(rep2, cost) == pytest.approx(1.0)


def test_representation_cost_equals_coupling_cost():
    rng = np.random.default_rng(97)
    cost = ms.CostSpec.sq_euclidean()
    for _ in range(8):
        mu, nu = random_convex_order_pair(rng, 2, 7)
        coupling = co.strassen_coupling(mu, nu)
        rep = co.choquet_represent(mu, nu)
        direct = float(np.sum(coupling.mass
                              * cost.pairwise(mu.points, nu.points)))
        assert co.representation_cost(rep, cost) == pytest.approx(
            direct, abs=1e-9)


def test_choquet_drops_noise_branches():
    # a Strassen fiber carries an LP-noise atom of weight 1.3e-12; its split
    # branch used to end in a fan whose barycenter was off by 6.5e-6
    mu, nu = spread_pair(0, 37)
    rep = co.choquet_represent(mu, nu)
    assert max(rep.recomposition_error(mu, nu)) <= co.TV_TOL


# pairs 48 and 265 of the near-coincident construction (default_rng(0): each
# atom of mu split into a child 1e-10-1e-6 away and a far one): a fiber puts
# atoms of weight 1e-10-1e-9 beside one of weight ~1, and the split tree's
# weights on its leaves missed the center by 1.2e-8-1.6e-7
NEAR_COINCIDENT = {
    48: ([0.8705381226021487, 0.36962008619907083, -0.26539719549506247],
         [0.3446281879229789, 0.32431970092160606, 0.33105211115541516],
         [0.8705381211456324, 1.2865892436662296, 0.3696200860019086,
          0.7429264911881052, -0.2653971585912502, -0.5033345300650642],
         [0.3446281867165008, 1.2064780721410044e-09, 0.3243197007503162,
          1.712898509571269e-10, 0.33105205980961394,
          5.134580117468814e-08]),
    265: ([0.730175187096415, 0.39373220290062094, 0.42542076084214964,
           -0.2525653760556459],
          [0.26530980099559515, 0.2631127498647656, 0.17768569671261117,
           0.29389175242702786],
          [0.7301752361394848, 0.46971492540512694, 0.39373220312162927,
           0.1254686233975989, 0.42542098760020686, 0.1890621190953792,
           -0.2525653765288918, -0.03936698597605595],
          [0.26530975103939636, 4.995619880573234e-08, 0.26311274964800085,
           2.1676480943600717e-10, 0.1776855262444429,
           1.7046816831482437e-07, 0.2938917517746633,
           6.523645884161836e-10]),
}


@pytest.mark.parametrize("index", sorted(NEAR_COINCIDENT))
def test_near_coincident_fibers_decompose(index):
    # each leaf corrects its products of split factors by a least-squares
    # solve of its barycenter equations; without it choquet_represent
    # raised BarycenterMismatch ("not a fan: barycenter off center by ...")
    x, p, y, q = NEAR_COINCIDENT[index]
    mu = ms.DiscreteMeasure(1, np.array(x), np.array(p))
    nu = ms.DiscreteMeasure(1, np.array(y), np.array(q))
    rep = co.choquet_represent(mu, nu)
    assert max(rep.recomposition_error(mu, nu)) <= co.TV_TOL
    for _, fan in rep.entries:
        assert np.linalg.norm(fan.weights @ fan.atoms - fan.center) \
            <= co.BARYCENTER_TOL


# --- is_extreme_pair -----------------------------------------------------------

@pytest.mark.parametrize("center, atoms, weights, reason", [
    ([0.0], [[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25],
     "3 atoms exceed dim+1 = 2"),
    ([0.0], [[0.0], [1.0]], [1.0, 0.0], "a weight is not strictly positive"),
    ([0.0, 0.0], [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [0.25, 0.5, 0.25],
     "atoms are affinely dependent"),
    ([0.5], [[-1.0], [1.0]], [0.5, 0.5], "barycenter off center by 5.000e-01"),
], ids=["too-many-atoms", "zero-weight", "dependent", "off-center"])
def test_fan_refuses_what_is_extreme_pair_refuses(center, atoms, weights,
                                                  reason):
    # one clause list: the fan's refusal names the same clause
    with pytest.raises(BarycenterMismatch) as refusal:
        co.Fan(np.array(center), np.array(atoms), np.array(weights))
    assert str(refusal.value) == f"not a fan: {reason}"
    nu = ms.DiscreteMeasure(len(center), atoms, weights)
    assert co.is_extreme_pair(center, nu).reason == reason


def test_fan_refuses_bad_shapes_and_mass():
    with pytest.raises(DimensionMismatch, match="inconsistent shapes"):
        co.Fan(np.array([0.0]), np.array([[-1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(DimensionMismatch, match="inconsistent shapes"):
        co.Fan(np.array([0.0]), np.array([[-1.0], [1.0]]), np.array([1.0]))
    with pytest.raises(BarycenterMismatch, match="must sum to one"):
        co.Fan(np.array([0.0]), np.array([[-1.0], [1.0]]),
               np.array([0.5, 0.6]))


def test_is_extreme_examples():
    assert co.is_extreme_pair([0.0], pm1()).ok
    nu = ms.new_measure(1, [[-2.0], [-1.0], [1.0], [2.0]], [0.25] * 4)
    res = co.is_extreme_pair([0.0], nu)
    assert not res.ok and "exceed" in res.reason
    res2 = co.is_extreme_pair([0.0], ms.dirac([1.0]))
    assert not res2.ok and "barycenter" in res2.reason


def test_is_extreme_affine_dependence():
    nu = ms.new_measure(2, [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                        [0.25, 0.25, 0.5])
    res = co.is_extreme_pair([0.0, 0.0], nu)
    assert not res.ok and "depend" in res.reason


def test_fan_representation_json_roundtrip():
    rep = co.choquet_represent(pm1(), nu3())
    obj = co.fan_representation_to_json(rep)
    back = co.fan_representation_from_json(obj)
    assert back.recomposition_error(pm1(), nu3())[1] <= 1e-9
