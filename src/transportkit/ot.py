"""Two-marginal and multimarginal transport: primal LPs, dual potentials,
c-transforms, single-potential duality for metric costs, and the inductive
c-convexification with its boundedness normalization.

Each problem is one LP over couplings. The dual potentials are the
multipliers of its marginal rows, and the single 1-Lipschitz potential of
a metric cost is the c-transform of the right Kantorovich potential.

Orientation convention: duals maximize integral(phi dmu) - integral(psi dnu)
under phi(x) - psi(y) <= c(x, y); the single-potential dual maximizes
integral(f d(mu - nu)) and tightness on a coupling support reads
f(x) - f(y) = d(x, y) with x from the first marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (
    DimensionMismatch,
    InfeasibleInput,
    NotAFixedPoint,
    NotAMetric,
    NumericalBreakdown,
)
from .measures import (
    Coupling,
    CostSpec,
    DiscreteMeasure,
    MultiCost,
    MultiCoupling,
    point_key,
    union_points,
    values_on,
)

FEAS_MARGIN = 1e-9


@dataclass(frozen=True)
class Potentials:
    """Dual pair (phi, psi) aligned with two support arrays."""

    left_points: np.ndarray
    right_points: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def objective(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return float(mu.weights @ self.phi - nu.weights @ self.psi)

    def max_violation(self, cost: CostSpec) -> float:
        """Largest amount by which phi(x) - psi(y) exceeds c(x, y)."""
        C = cost.pairwise(self.left_points, self.right_points)
        return float(np.max(self.phi[:, None] - self.psi[None, :] - C))


@dataclass(frozen=True)
class MultiPotentials:
    """One potential per marginal, aligned with the stored supports."""

    supports: tuple  # k arrays (m_i, d)
    values: tuple    # k arrays (m_i,)

    def objective(self, measures) -> float:
        return float(sum(m.weights @ f
                         for m, f in zip(measures, self.values)))

    def stacked_sum(self) -> np.ndarray:
        """Tensor of sums f_1(x_1) + ... + f_k(x_k) over the product."""
        k = len(self.values)
        total = 0.0
        for i, f in enumerate(self.values):
            shape = [1] * k
            shape[i] = f.size
            total = total + f.reshape(shape)
        return total

    def max_violation(self, cost: MultiCost) -> float:
        C = cost.tensor(self.supports)
        return float(np.max(self.stacked_sum() - C))


@dataclass(frozen=True)
class KrPotential:
    """Single 1-Lipschitz potential on the union of two supports."""

    points: np.ndarray
    values: np.ndarray

    def on(self, points) -> np.ndarray:
        """Values on an (n, d) point array; MissingValue off the support."""
        return values_on(points, dict(zip(map(point_key, self.points),
                                          self.values)))

    def value_at(self, p) -> float:
        return float(self.on(p)[0])


@dataclass(frozen=True)
class TightSet:
    """Support pairs on which the dual constraint is tight."""

    pairs: tuple          # ((left_index, right_index), ...)
    left_points: np.ndarray
    right_points: np.ndarray


def _check_marginals(measures) -> tuple:
    """The measures as a tuple, after refusing fewer than two, unequal
    dimensions, and a coupling LP over ``lp.check_size``'s budget, from
    the sizes alone: before any cost is built."""
    measures = tuple(measures)
    if len(measures) < 2:
        raise DimensionMismatch("need at least two marginals")
    if len({m.dim for m in measures}) > 1:
        raise DimensionMismatch("marginal dims "
                                + " vs ".join(str(m.dim) for m in measures))
    sizes = [len(m) for m in measures]
    lp.check_size(sum(sizes), math.prod(sizes))
    return measures


# ---------------------------------------------------------------------------
# Two-marginal Kantorovich problem
# ---------------------------------------------------------------------------

def _marginal_rows(measures):
    """Equality rows (A, b) fixing every marginal of a coupling on the
    product of the supports (flattened in C order): for each measure in
    turn, one row per atom. Callers check the sizes first."""
    sizes = tuple(len(m) for m in measures)
    N = math.prod(sizes)
    cols = np.arange(N)
    offsets = np.cumsum((0,) + sizes[:-1])
    A = np.zeros((sum(sizes), N))
    for off, idx in zip(offsets, np.unravel_index(cols, sizes)):
        A[off + idx, cols] = 1.0
    return A, np.concatenate([m.weights for m in measures])


def _least_cost_basis(C, masses) -> np.ndarray:
    """Feasible starting basis of the coupling LP with cost tensor C and
    marginal masses, in the row order of ``_marginal_rows``: the
    least-cost staircase.

    Each of the sum(n_i) - k + 1 steps takes the cheapest cell whose
    indices are all live (the first in C order on a tie) and ships the
    smallest remaining mass among its k indices. Every step but the last
    then retires one of its indices: the one with the least remaining mass
    among the coordinates that keep more than one live index. Each cell is
    the last to use the index it retires, so the cells are independent and
    B^-1 b is their shipment, which is >= 0. The k - 1 redundant rows, the
    first atom row of marginals 2..k, carry an artificial (-1)."""
    sizes = C.shape
    k = len(sizes)
    rest = [np.asarray(w, dtype=float).tolist() for w in masses]
    live = list(sizes)
    cost = np.array(C, dtype=float)  # a retired index's slice becomes inf
    steps = sum(sizes) - k + 1
    cells = []
    for step in range(steps):
        flat = int(cost.argmin())
        cell = np.unravel_index(flat, sizes)
        cells.append(flat)
        q = min(r[t] for r, t in zip(rest, cell))
        for r, t in zip(rest, cell):
            r[t] -= q
        if step < steps - 1:
            i = min((i for i in range(k) if live[i] > 1),
                    key=lambda i: rest[i][cell[i]])
            live[i] -= 1
            cost[(slice(None),) * i + (cell[i],)] = np.inf
    basis = np.full(sum(sizes), -1)
    placed = np.ones(basis.size, dtype=bool)
    placed[np.cumsum(sizes)[:-1]] = False
    basis[placed] = cells
    return basis


def _solve_couplings(measures, C, what) -> lp.LpSolution:
    """The primal LP over couplings with cost tensor C, started from its
    least-cost staircase (``_least_cost_basis``), so phase 1 has nothing
    to pivot; its marginal-row multipliers are the dual potentials."""
    A, b = _marginal_rows(measures)
    prog = lp.LinearProgram(C.ravel(), A, b)
    start = _least_cost_basis(C, [m.weights for m in measures])
    sol = lp.solve(prog, basis=start)
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(f"{what}: LP terminated {sol.status}")
    return sol


def kantorovich_primal(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       cost: CostSpec):
    """Minimal-cost coupling of (mu, nu); returns (Coupling, value)."""
    _check_marginals((mu, nu))
    sol = _solve_couplings((mu, nu), cost.pairwise(mu.points, nu.points),
                           "kantorovich_primal")
    mass = sol.primal.reshape(len(mu), len(nu))
    return Coupling(mu, nu, mass / mass.sum()), float(sol.value)


def kantorovich_dual(mu: DiscreteMeasure, nu: DiscreteMeasure,
                     cost: CostSpec):
    """Optimal feasible potentials; returns (Potentials, value).

    phi and -psi are the multipliers of the row and column sums of the
    primal LP."""
    _check_marginals((mu, nu))
    sol = _solve_couplings((mu, nu), cost.pairwise(mu.points, nu.points),
                           "kantorovich_dual")
    m = len(mu)
    pots = Potentials(mu.points, nu.points, sol.dual[:m], -sol.dual[m:])
    return pots, pots.objective(mu, nu)


def c_transform(psi, cost: CostSpec, left_support, right_support) \
        -> Potentials:
    """Infimal-convolution update of a right potential.

    phi'(x) = min_y c(x, y) + psi(y), then psi'(y) = max_x phi'(x) - c(x, y).
    The output pair is feasible, psi' <= psi pointwise, and the dual
    objective never decreases.
    """
    L = np.atleast_2d(np.asarray(left_support, dtype=float))
    R = np.atleast_2d(np.asarray(right_support, dtype=float))
    psi_vals = values_on(R, psi)
    C = cost.pairwise(L, R)
    phi_new = np.min(C + psi_vals[None, :], axis=1)
    psi_new = np.max(phi_new[:, None] - C, axis=0)
    return Potentials(L, R, phi_new, psi_new)


def tight_support_report(potentials: Potentials, coupling: Coupling,
                         cost: CostSpec, tol: float = 1e-7):
    """Pairs where the dual constraint is tight, plus a verdict.

    True iff all coupling mass beyond tol * (total mass) sits on pairs
    with phi(x) - psi(y) >= c(x, y) - tol.
    """
    C = cost.pairwise(potentials.left_points, potentials.right_points)
    slack = C - (potentials.phi[:, None] - potentials.psi[None, :])
    tight = slack <= tol
    pairs = tuple((int(i), int(j)) for i, j in np.argwhere(tight))
    offending = float(coupling.mass[~tight].sum())
    ok = offending <= tol * coupling.mass.sum()
    return TightSet(pairs, potentials.left_points,
                    potentials.right_points), bool(ok)


# ---------------------------------------------------------------------------
# Kantorovich-Rubinstein: single 1-Lipschitz potential for metric costs
# ---------------------------------------------------------------------------

def _verify_metric(D: np.ndarray, points: np.ndarray, tol: float = 1e-9):
    asym = np.max(np.abs(D - D.T))
    if asym > tol:
        i, j = np.unravel_index(np.argmax(np.abs(D - D.T)), D.shape)
        raise NotAMetric(f"asymmetry {asym:.3e} at pair ({i}, {j})",
                         witness=(points[i], points[j]))
    diag = np.max(np.abs(np.diag(D)))
    if diag > tol:
        i = int(np.argmax(np.abs(np.diag(D))))
        raise NotAMetric(f"nonzero diagonal {diag:.3e} at point {i}",
                         witness=(points[i],))
    # triangle inequality over all ordered triples (i, j, k), one first
    # index at a time so memory stays O(u^2); the witness is the first
    # worst triple in C order
    worst, triple = -np.inf, None
    for i in range(D.shape[0]):
        viol = D[i][None, :] - (D[i][:, None] + D)
        flat = int(np.argmax(viol))
        if viol.flat[flat] > worst:
            worst = viol.flat[flat]
            triple = (i,) + np.unravel_index(flat, viol.shape)
    if worst > tol:
        i, j, k = triple
        raise NotAMetric(
            f"triangle violation {worst:.3e} on triple ({i}, {j}, {k})",
            witness=(points[i], points[j], points[k]))


def kr_dual(mu: DiscreteMeasure, nu: DiscreteMeasure, metric_cost: CostSpec):
    """Single-potential dual sup integral(f d(mu - nu)) over 1-Lipschitz f.

    The cost must be a metric on the union of supports (symmetry, zero
    diagonal and triangle inequality are checked on all support triples).
    f is the c-transform f(z) = min_j d(z, y_j) + psi_j of the right
    Kantorovich potential: 1-Lipschitz for a metric, f >= phi on the left
    support and f <= psi on the right one, so it reaches the Kantorovich
    value, which no 1-Lipschitz potential exceeds.
    Returns (KrPotential, value).
    """
    _check_marginals((mu, nu))
    U = union_points(mu.points, nu.points)
    D = metric_cost.pairwise(U, U)
    _verify_metric(D, U)
    index = {point_key(p): t for t, p in enumerate(U)}
    left = np.array([index[point_key(p)] for p in mu.points])
    right = np.array([index[point_key(p)] for p in nu.points])
    sol = _solve_couplings((mu, nu), D[np.ix_(left, right)], "kr_dual")
    psi = -sol.dual[len(mu):]
    f = np.min(D[:, right] + psi[None, :], axis=1)
    return KrPotential(U, f), \
        float(mu.weights @ f[left] - nu.weights @ f[right])


def kr_tight_check(f: KrPotential, coupling: Coupling,
                   metric_cost: CostSpec, tol: float = 1e-7) -> bool:
    """True iff coupling mass concentrates (beyond tol * total) on pairs
    with f(x) - f(y) = d(x, y) within tol, x from the left marginal."""
    D = metric_cost.pairwise(coupling.left.points, coupling.right.points)
    gap = np.abs(f.on(coupling.left.points)[:, None]
                 - f.on(coupling.right.points)[None, :] - D)
    offending = float(coupling.mass[gap > tol].sum())
    return bool(offending <= tol * coupling.mass.sum())


# ---------------------------------------------------------------------------
# Multimarginal transport
# ---------------------------------------------------------------------------

def multimarginal_primal(measures, cost: MultiCost):
    """Minimal-cost coupling of k marginals; returns (MultiCoupling, value)."""
    measures = _check_marginals(measures)
    sol = _solve_couplings(measures,
                           cost.tensor([m.points for m in measures]),
                           "multimarginal_primal")
    mass = sol.primal.reshape(tuple(len(m) for m in measures))
    return MultiCoupling(measures, mass / mass.sum()), float(sol.value)


def multimarginal_dual(measures, cost: MultiCost):
    """Optimal potentials f_i with sum_i f_i(x_i) <= c on the product: the
    multipliers of the primal LP's marginal rows, one slice per measure."""
    measures = _check_marginals(measures)
    supports = tuple(m.points for m in measures)
    sol = _solve_couplings(measures, cost.tensor(supports),
                           "multimarginal_dual")
    cuts = np.cumsum([len(m) for m in measures])[:-1]
    pots = MultiPotentials(supports, tuple(np.split(sol.dual, cuts)))
    return pots, pots.objective(measures)


# ---------------------------------------------------------------------------
# c-convexification and boundedness normalization
# ---------------------------------------------------------------------------

def _infimum_over_others(C, values, i) -> np.ndarray:
    """min over the axes j != i of C - sum_{j != i} values[j], a function
    on axis i; ``values[i]`` is not read."""
    k = C.ndim
    other = C
    for j in range(k):
        if j == i:
            continue
        shape = [1] * k
        shape[j] = values[j].size
        other = other - values[j].reshape(shape)
    return other.min(axis=tuple(j for j in range(k) if j != i))


def _fixed_point_residual(values, C) -> float:
    """Max deviation from f_i(x) = min over others (c - sum_{j != i} f_j)."""
    worst = 0.0
    for i in range(len(values)):
        inf_i = _infimum_over_others(C, values, i)
        worst = max(worst, float(np.max(np.abs(values[i] - inf_i))))
    return worst


def multi_c_convexify(partial, cost: MultiCost, supports) -> MultiPotentials:
    """Extend partial potentials on subsets A_i to feasible potentials on
    the full supports via the inductive infimum, then sweep to the
    fixed point.

    ``partial`` is a list of k exact-point tables {point: value}; each table's
    keys must be support points. Output dominates the inputs on the A_i and
    satisfies the infimum fixed-point identity within 1e-9.
    """
    supports = [np.atleast_2d(np.asarray(s, dtype=float)) for s in supports]
    k = len(supports)
    if len(partial) != k:
        raise DimensionMismatch(f"{len(partial)} tables for {k} supports")
    sizes = [s.shape[0] for s in supports]
    # the budget of the multimarginal LP over the same supports
    lp.check_size(sum(sizes), math.prod(sizes))

    index_of = [{point_key(p): t for t, p in enumerate(s)} for s in supports]
    A_idx = []
    A_val = []
    for i, table in enumerate(partial):
        if not table:
            raise InfeasibleInput(f"A_{i} is empty")
        ids = []
        vals = []
        for p, v in table.items():
            key = point_key(np.atleast_1d(np.asarray(p, dtype=float)))
            if key not in index_of[i]:
                raise DimensionMismatch(
                    f"A_{i} point {key} is not a support point")
            ids.append(index_of[i][key])
            vals.append(float(v))
        A_idx.append(np.asarray(ids))
        A_val.append(np.asarray(vals))

    C = cost.tensor(supports)

    # input feasibility on the product of the A_i
    sub = C[np.ix_(*A_idx)]
    for i in range(k):
        shape = [1] * k
        shape[i] = A_val[i].size
        sub = sub - A_val[i].reshape(shape)
    if float(sub.min()) < -FEAS_MARGIN:
        raise InfeasibleInput(
            f"inputs exceed the cost by {-float(sub.min()):.3e} "
            "on the seed product")

    # forward pass: axis i free, axes j < i already extended, axes j > i
    # restricted to A_j
    values = [None] * k
    for i in range(k):
        selector = []
        for j in range(k):
            if j < i or j == i:
                selector.append(np.arange(sizes[j]))
            else:
                selector.append(A_idx[j])
        values[i] = _infimum_over_others(
            C[np.ix_(*selector)],
            [values[j] if j < i else A_val[j] for j in range(k)], i)

    # tightening sweeps; the forward pass already satisfies the identity in
    # exact arithmetic, so this converges immediately in practice
    for _ in range(100):
        if _fixed_point_residual(values, C) <= 1e-9:
            break
        for i in range(k):
            values[i] = _infimum_over_others(C, values, i)

    return MultiPotentials(tuple(supports), tuple(values))


def normalize_potentials(pots: MultiPotentials, cost: MultiCost) \
        -> MultiPotentials:
    """Shift fixed-point potentials by constants summing to zero so that
    every sup-norm is at most max(k, 3) times the sup-norm of the cost."""
    C = cost.tensor(pots.supports)
    if _fixed_point_residual(list(pots.values), C) > 1e-8:
        raise NotAFixedPoint(
            "potentials do not satisfy the infimum identity within 1e-8")
    M = float(np.max(np.abs(C)))
    k = len(pots.values)
    shifts = np.zeros(k)
    for i in range(1, k):
        shifts[i] = M - float(np.max(pots.values[i]))
    shifts[0] = -shifts[1:].sum()
    shifted = tuple(v + h for v, h in zip(pots.values, shifts))
    return MultiPotentials(pots.supports, shifted)
