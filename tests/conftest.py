"""Shared instance generators and brute-force oracles.

Random convex-order pairs are produced by applying mean-preserving spreads
to a base measure: a spread replaces an atom x of weight w by the pair
x - delta, x + delta with weight w/2 each, which preserves the barycenter
and moves the measure up in convex order. Instances are reproducible from
the seed alone.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from transportkit import lp
from transportkit.measures import CostSpec, DiscreteMeasure, new_measure, \
    point_key

# Property tests draw a fixed example sequence (no database, no clock), so
# a run is repeatable and a slow shared host cannot fail it on a deadline.
settings.register_profile("transportkit", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("transportkit")


def pm1():
    """Half at -1 and half at 1."""
    return new_measure(1, [[-1.0], [1.0]], [0.5, 0.5])


def nu3():
    """A quarter at -2 and 2 and half at 0: a spread of pm1()."""
    return new_measure(1, [[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25])


def random_measure(rng: np.random.Generator, dim: int,
                   max_support: int) -> DiscreteMeasure:
    m = int(rng.integers(2, max_support + 1))
    points = rng.uniform(-1.0, 1.0, size=(m, dim))
    weights = rng.uniform(0.1, 1.0, size=m)
    return DiscreteMeasure(dim, points, weights / weights.sum())


def mean_preserving_spread(rng: np.random.Generator, m: DiscreteMeasure,
                           n_spreads: int) -> DiscreteMeasure:
    """Apply n_spreads atom splits; the output dominates m in convex order."""
    table = {point_key(p): w for p, w in zip(m.points, m.weights)}
    for _ in range(n_spreads):
        keys = sorted(table)
        k = keys[int(rng.integers(len(keys)))]
        w = table.pop(k)
        x = np.asarray(k)
        delta = rng.uniform(0.05, 0.4, size=m.dim) * rng.choice([-1.0, 1.0],
                                                                size=m.dim)
        for sgn in (-1.0, 1.0):
            nk = point_key(x + sgn * delta)
            table[nk] = table.get(nk, 0.0) + 0.5 * w
    pts = np.array(sorted(table))
    w = np.array([table[point_key(p)] for p in pts])
    return DiscreteMeasure(m.dim, pts, w / w.sum())


def planar_spread_pair(seed):
    """8 atoms in [-1, 1]^2, each split along a random direction into two
    atoms with the same barycenter: an 8 x 16 pair in convex order."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (8, 2))
    w = rng.uniform(0.5, 1.5, 8)
    pts, wts = [], []
    for x, wx in zip(X, w / w.sum()):
        ang = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        s1, s2 = rng.uniform(0.1, 0.5, size=2)
        pts += [x + s1 * u, x - s2 * u]
        wts += [wx * s2 / (s1 + s2), wx * s1 / (s1 + s2)]
    wts = np.asarray(wts)
    return (new_measure(2, X, w / w.sum()),
            new_measure(2, np.asarray(pts), wts / wts.sum()))


def kernel_pair(rng: np.random.Generator, m: int, n: int):
    """A 1-D m x n pair in convex order: nu has n standard normal atoms
    with weights U(0.5, 1.5), normalised; K = U(0, 1)^4 is m x n with its
    columns scaled to nu's weights, and mu puts the row sums of K on the
    row barycenters."""
    Y = rng.standard_normal((n, 1))
    b = rng.uniform(0.5, 1.5, n)
    b /= b.sum()
    K = rng.uniform(0.0, 1.0, (m, n)) ** 4
    K *= b / K.sum(axis=0)
    a = K.sum(axis=1)
    return (new_measure(1, (K @ Y) / a[:, None], a / a.sum()),
            new_measure(1, Y, b))


def random_convex_order_pair(rng: np.random.Generator, dim: int,
                             max_support: int, max_spreads: int = 5):
    mu = random_measure(rng, dim, max_support)
    nu = mean_preserving_spread(rng, mu,
                                int(rng.integers(1, max_spreads + 1)))
    return mu, nu


def traced_refusal_peak(error, call) -> int:
    """Peak bytes traced while ``call()`` raises ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_solves(monkeypatch) -> list:
    """Patch ``lp.solve`` to count its calls; the returned list gets one
    entry per call (``check_feasibility`` goes through ``solve`` too)."""
    calls, real = [], lp.solve

    def solve(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(lp, "solve", solve)
    return calls


def with_slacks(objective, A, senses, b):
    """The LP  min objective.x  s.t.  (A x)_i senses[i] b_i  and x >= 0,
    each sense "<=", "==" or ">=", in the solver's form A' x' = b: one
    slack column per inequality row, in row order after A's columns, +1
    on "<=" rows and -1 on ">=" rows, at zero cost. A None objective is
    zero. x is the primal's first A.shape[1] entries.

    Returns the LinearProgram and its slack start: the slack of each row
    where that column is a unit column at b_i >= 0 once rows with b_i < 0
    are negated (a "<=" row with b_i >= 0, a ">=" row with b_i < 0), and
    -1 for an artificial on every other row."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    senses = np.asarray(senses, dtype=str)
    rows = np.flatnonzero(senses != "==")
    sign = np.where(senses[rows] == "<=", 1.0, -1.0)
    slacks = np.zeros((b.size, rows.size))
    slacks[rows, np.arange(rows.size)] = sign
    c = np.zeros(A.shape[1]) if objective is None else objective
    start = np.full(b.size, -1)
    unit = sign * np.where(b[rows] < 0, -1.0, 1.0) > 0
    start[rows[unit]] = A.shape[1] + np.flatnonzero(unit)
    return lp.LinearProgram(np.concatenate([c, np.zeros(rows.size)]),
                            np.hstack([A, slacks]), b), start


def random_bounded_lp(rng: np.random.Generator, max_vars: int,
                      max_rows: int) -> lp.LinearProgram:
    """Feasible bounded LP: random <= rows through a nonnegative point,
    entries in [-1, 1], plus a simplex cap guaranteeing boundedness, each
    row with its slack column, so A is [rows | I]. The objective is
    min -c, so its value is minus the maximum of c.x."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows))
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    x0 = rng.uniform(0.0, 1.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    prog, _ = with_slacks(-c, np.vstack([A, np.ones(n)]), ["<="] * (m + 1),
                          np.append(b, n + 1.0))
    return prog


def split_free(A, free):
    """Free variables as differences of nonnegative ones: every column j of
    A with free[j] is followed at once by its negation. Returns the wider
    matrix and, per column, the user variable it stands for and its sign,
    so objective[var] * sign is the matching objective."""
    var = np.repeat(np.arange(A.shape[1]), np.where(free, 2, 1))
    sign = np.ones(var.size)
    sign[1:][var[1:] == var[:-1]] = -1.0
    return A[:, var] * sign, var, sign


def lp_value_by_vertex_enumeration(prog: lp.LinearProgram) -> float:
    """Independent oracle: the least objective over all feasible basic
    solutions of A x = b, whose A must have full row rank."""
    A, b = prog.A, prog.b
    m, n = A.shape
    best = np.inf
    for basis in itertools.combinations(range(n), m):
        B = A[:, basis]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(xb < -1e-9):
            continue
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        val = float(prog.objective[list(basis)] @ xb)
        best = min(best, val)
    return best


def transport_value_by_vertex_enumeration(mu, nu, cost_matrix) -> float:
    """Brute-force transport value over basic solutions of the marginal
    system (independent of the simplex code path)."""
    m, n = cost_matrix.shape
    rows = []
    rhs = []
    for i in range(m):
        r = np.zeros((m, n))
        r[i] = 1.0
        rows.append(r.ravel())
        rhs.append(mu[i])
    for j in range(n):
        r = np.zeros((m, n))
        r[:, j] = 1.0
        rows.append(r.ravel())
        rhs.append(nu[j])
    A = np.array(rows)
    b = np.array(rhs)
    nv = m * n
    rank = np.linalg.matrix_rank(A)
    best = np.inf
    for basis in itertools.combinations(range(nv), rank):
        cols = A[:, basis]
        sol, res, rk, _ = np.linalg.lstsq(cols, b, rcond=None)
        if rk < len(basis):
            continue
        if np.linalg.norm(cols @ sol - b) > 1e-9 or np.any(sol < -1e-9):
            continue
        x = np.zeros(nv)
        x[list(basis)] = sol
        best = min(best, float(cost_matrix.ravel() @ x))
    return best


def kr_certificate_errors(f, value, mu, nu, cost):
    """Independent check of a single-potential dual: the largest excess of
    f(z_i) - f(z_j) over d(z_i, z_j) on the potential's support, and the
    distance of the reported value from integral(f d(mu - nu))."""
    D = cost.pairwise(f.points, f.points)
    lipschitz = float(np.max(f.values[:, None] - f.values[None, :] - D))
    signed = sum(w * f.value_at(p) for p, w in zip(mu.points, mu.weights)) \
        - sum(w * f.value_at(p) for p, w in zip(nu.points, nu.weights))
    return lipschitz, abs(value - signed)


@st.composite
def kernel_pairs(draw):
    """(mu, nu, cost): nu on at most 12 distinct points (d = 1, 2),
    either of the integer lattice {-2..2}^d, where distances tie, or of
    the grid of eighths in [-1, 1]^d; each of 1-6 sources is the
    barycenter of a kernel row of integer weights over those points, so
    mu precedes nu in convex order, and points no row reaches are
    dropped. The weighted sums K @ Y are exact, so rows with one
    barycenter give one point, and such atoms of mu are merged."""
    d = draw(st.sampled_from([1, 2]))
    lattice = draw(st.booleans())
    coord = st.integers(-2, 2) if lattice else \
        st.integers(-8, 8).map(lambda k: k / 8)
    ys = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=12,
                       unique=True))
    n = len(ys)
    m = draw(st.integers(1, 6))
    K = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
        min_size=m, max_size=m)), dtype=float)
    a = np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)),
                 dtype=float)
    Y = np.array(ys, dtype=float)
    X = (K @ Y) / K.sum(axis=1)[:, None]
    a /= a.sum()
    b = a @ (K / K.sum(axis=1)[:, None])
    table = {}
    for x, w in zip(X, a):
        table[point_key(x)] = table.get(point_key(x), 0.0) + w
    xs = sorted(table)
    mu = new_measure(d, np.array(xs), np.array([table[x] for x in xs]))
    keep = b > 0
    nu = new_measure(d, Y[keep], b[keep] / b[keep].sum())
    cost = draw(st.sampled_from([CostSpec.euclidean(),
                                 CostSpec.sq_euclidean()]))
    return mu, nu, cost
