"""Shared instance generators and brute-force oracles.

Random convex-order pairs are produced by applying mean-preserving spreads
to a base measure: a spread replaces an atom x of weight w by the pair
x - delta, x + delta with weight w/2 each, which preserves the barycenter
and moves the measure up in convex order. Instances are reproducible from
the seed alone.
"""

import itertools

import numpy as np

from transportkit import lp
from transportkit.measures import DiscreteMeasure, point_key


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


def random_convex_order_pair(rng: np.random.Generator, dim: int,
                             max_support: int, max_spreads: int = 5):
    mu = random_measure(rng, dim, max_support)
    nu = mean_preserving_spread(rng, mu,
                                int(rng.integers(1, max_spreads + 1)))
    return mu, nu


def random_bounded_lp(rng: np.random.Generator, max_vars: int,
                      max_rows: int) -> lp.LinearProgram:
    """Feasible bounded LP: random <= rows through a nonnegative point,
    entries in [-1, 1], plus a simplex cap guaranteeing boundedness."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows))
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    x0 = rng.uniform(0.0, 1.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    return lp.LinearProgram(c, "max", np.vstack([A, np.ones(n)]),
                            (lp.LE,) * (m + 1), np.append(b, n + 1.0))


def lp_value_by_vertex_enumeration(prog: lp.LinearProgram) -> float:
    """Independent oracle: convert to standard equality form with slacks
    and take the best objective over all feasible basic solutions."""
    A, rels, b = prog.A, prog.rels, prog.b
    m, n = A.shape
    assert all(r == lp.LE for r in rels) and not prog.free.any(), \
        "oracle handles <= rows with nonnegative variables"
    M = np.hstack([A, np.eye(m)])
    best = -np.inf if prog.sense == "max" else np.inf
    cost = np.concatenate([prog.objective, np.zeros(m)])
    for basis in itertools.combinations(range(n + m), m):
        B = M[:, basis]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(xb < -1e-9):
            continue
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        val = float(cost[list(basis)] @ xb)
        best = max(best, val) if prog.sense == "max" else min(best, val)
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
