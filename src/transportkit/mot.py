"""Martingale optimal transport and the function classes of its dual.

Primal/dual LPs over martingale couplings, the symmetric (single-potential)
dual for diagonal-vanishing costs, certification of the simplex inequality
through per-point gamma fields, generation and extension of the associated
function class, uniform convexity and smoothness certificates, and the
martingale triangle inequality checks (sampled and second-order).

Gamma convention: a certificate for (f1, f2) satisfies
f1(x) - f2(y) <= c(x, y) + <gamma(x), y - x> on the checked sets. Uniform
convexity certificates use the classical orientation
f(x) + sigma(||y - x||) + <gamma(x), y - x> <= f(y).

Every gamma certifier checks a point x through the Farkas alternative of
its rows <g, y_j - x> <= r_j: one LP with d + 1 rows,
min sum_j lam_j r_j  s.t.  sum_j lam_j (y_j - x) = 0, sum_j lam_j <= 1,
lam >= 0. Optimum zero: the barycenter-row multipliers are g. Negative
optimum: the basic lam has at most d + 1 nonzeros and its support is an
irreducible infeasible core (Gleeson & Ryan, ORSA J. Comput. 1990),
reported with the weights lam normalised to sum 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .convex_order import _martingale_rows
from .errors import (
    DimensionMismatch,
    GammaMissing,
    GridTooCoarse,
    LowerBoundViolation,
    NonVanishingDiagonal,
    NotInConvexOrder,
    NumericalBreakdown,
)
from .functions import Box, FunctionEvaluator, Grid, ModulusSpec
from .measures import (
    Coupling,
    CostSpec,
    DiscreteMeasure,
    point_key,
    union_points,
    values_on,
)

VIOLATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Dual certificates and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaDual:
    """(u, v, gamma) with u(x) - v(y) + <gamma(x), y-x> <= c(x, y)."""

    left_points: np.ndarray
    right_points: np.ndarray
    u: np.ndarray
    v: np.ndarray
    gamma: np.ndarray  # (m, d)

    def objective(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return float(mu.weights @ self.u - nu.weights @ self.v)

    def max_violation(self, cost: CostSpec) -> float:
        C = cost.pairwise(self.left_points, self.right_points)
        drift = self.gamma @ self.right_points.T \
            - np.sum(self.gamma * self.left_points, axis=1)[:, None]
        return float(np.max(self.u[:, None] - self.v[None, :] + drift - C))


@dataclass(frozen=True)
class SymmetricDual:
    """Single potential f with gamma field on the support union."""

    points: np.ndarray
    f: np.ndarray
    gamma: np.ndarray

    def objective_against(self, mu: DiscreteMeasure,
                          nu: DiscreteMeasure) -> float:
        mu_d, nu_d = mu.as_dict(), nu.as_dict()
        signed = np.array([mu_d.get(point_key(p), 0.0)
                           - nu_d.get(point_key(p), 0.0)
                           for p in self.points])
        return float(signed @ self.f)


@dataclass(frozen=True)
class SimplexWitness:
    """Violating tuple of a simplex or martingale-triangle inequality."""

    atoms: np.ndarray
    lambdas: np.ndarray
    violation: float
    base: np.ndarray | None = None

    def to_json(self) -> dict:
        return {"base": None if self.base is None else self.base.tolist(),
                "atoms": self.atoms.tolist(),
                "lambdas": self.lambdas.tolist(),
                "violation": self.violation}


@dataclass(frozen=True)
class CounterexamplePoint:
    """Point with no feasible gamma; ``binding`` lists the constraint
    points entering the infeasibility certificate with their weights."""

    point: np.ndarray
    index: int
    binding: tuple = ()  # ((y point, coefficient), ...)


@dataclass(frozen=True)
class GammaResult:
    ok: bool
    points: np.ndarray
    gammas: np.ndarray | None = None
    counterexample: CounterexamplePoint | None = None


@dataclass(frozen=True)
class SampledCheck:
    ok: bool
    witness: SimplexWitness | None
    samples: int
    max_violation: float


@dataclass(frozen=True)
class HessianCheck:
    ok: bool
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    eigenvalue_gap: float | None = None


@dataclass(frozen=True)
class ExtendResult:
    targets: np.ndarray
    values: np.ndarray
    restriction_error: float


# ---------------------------------------------------------------------------
# Martingale transport LPs
# ---------------------------------------------------------------------------

def mot_primal(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
               config: lp.SolverConfig = lp.DEFAULT_CONFIG):
    """Cheapest martingale coupling; returns (Coupling, value)."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    C = cost.pairwise(mu.points, nu.points)
    sol = lp.solve(lp.LinearProgram(C.ravel(), "min",
                                    *_martingale_rows(mu, nu)), config)
    if sol.status == lp.INFEASIBLE:
        raise NotInConvexOrder("no martingale coupling exists")
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(f"mot_primal: LP terminated {sol.status}")
    mass = sol.primal.reshape(len(mu), len(nu))
    return Coupling(mu, nu, mass / mass.sum(), marginal_consistent=True), \
        float(sol.value)


def _gamma_dual_rows(nvar, plus, minus, gamma_at, diffs):
    """Rows of the gamma duals, one per entry k:  x[plus_k] - x[minus_k]
    + <x[gamma_at_k : gamma_at_k + d], diffs_k>  (diffs has d columns)."""
    k, d = diffs.shape
    rows = np.arange(k)
    A = np.zeros((k, nvar))
    A[rows, plus] = 1.0
    A[rows, minus] = -1.0
    A[rows[:, None], gamma_at[:, None] + np.arange(d)] = diffs
    return A


def mot_dual(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
             config: lp.SolverConfig = lp.DEFAULT_CONFIG):
    """Optimal (u, v, gamma); value matches mot_primal by LP duality."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    m, n, d = len(mu), len(nu), mu.dim
    C = cost.pairwise(mu.points, nu.points)
    nvar = m + n + m * d
    I, J = np.divmod(np.arange(m * n), n)
    A = _gamma_dual_rows(nvar, I, m + J, m + n + I * d,
                         nu.points[J] - mu.points[I])
    objective = np.concatenate([mu.weights, -nu.weights, np.zeros(m * d)])
    sol = lp.solve(lp.LinearProgram(objective, "max", A, (lp.LE,) * len(A),
                                    C.ravel(), np.ones(nvar, dtype=bool)),
                   config)
    if sol.status == lp.UNBOUNDED:
        raise NotInConvexOrder(
            "dual is unbounded: the pair is not in convex order")
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(f"mot_dual: LP terminated {sol.status}")
    dual = GammaDual(mu.points, nu.points,
                     sol.primal[:m].copy(), sol.primal[m:m + n].copy(),
                     sol.primal[m + n:].reshape(m, d).copy())
    return dual, float(sol.value)


def mot_dual_symmetric(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       cost: CostSpec,
                       config: lp.SolverConfig = lp.DEFAULT_CONFIG):
    """Single-potential dual on the support union.

    Requires the cost to vanish on the diagonal of the union. The value
    never exceeds the two-potential dual (the feasible set restricts).
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    Z = union_points(mu.points, nu.points)
    u, d = Z.shape
    diag = np.array([cost(p, p) for p in Z])
    if np.max(np.abs(diag)) > 1e-12:
        raise NonVanishingDiagonal(
            f"|c(z, z)| reaches {np.max(np.abs(diag)):.3e} on the union")
    C = cost.pairwise(Z, Z)
    nvar = u + u * d
    I, J = np.nonzero(~np.eye(u, dtype=bool))
    A = _gamma_dual_rows(nvar, I, J, u + I * d, Z[J] - Z[I])
    mu_d, nu_d = mu.as_dict(), nu.as_dict()
    signed = np.array([mu_d.get(point_key(p), 0.0)
                       - nu_d.get(point_key(p), 0.0) for p in Z])
    objective = np.concatenate([signed, np.zeros(u * d)])
    sol = lp.solve(lp.LinearProgram(objective, "max", A, (lp.LE,) * len(A),
                                    C[I, J], np.ones(nvar, dtype=bool)),
                   config)
    if sol.status == lp.UNBOUNDED:
        raise NotInConvexOrder(
            "symmetric dual is unbounded: the pair is not in convex order")
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(
            f"mot_dual_symmetric: LP terminated {sol.status}")
    sym = SymmetricDual(Z, sol.primal[:u].copy(),
                        sol.primal[u:].reshape(u, d).copy())
    return sym, float(sol.value)


# ---------------------------------------------------------------------------
# Simplex inequalities and gamma certification
# ---------------------------------------------------------------------------

def simplex_violation(f1, f2, cost: CostSpec, atoms, lambdas) -> float:
    """f1(bary) - sum_i lam_i f2(x_i) - sum_i lam_i c(bary, x_i)."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    lam = np.asarray(lambdas, dtype=float)
    bary = lam @ atoms
    costs = cost.pairwise(bary.reshape(1, -1), atoms)[0]
    f2_vals = np.array([float(f2(a)) for a in atoms])
    return float(f1(bary) - lam @ f2_vals - lam @ costs)


def mti_violation(cost: CostSpec, base, atoms, lambdas) -> float:
    """sum lam_i c(x, x_i) - c(x, bary) - sum lam_i c(bary, x_i)."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    lam = np.asarray(lambdas, dtype=float)
    base = np.atleast_1d(np.asarray(base, dtype=float))
    bary = lam @ atoms
    from_base = cost.pairwise(base.reshape(1, -1), atoms)[0]
    from_bary = cost.pairwise(bary.reshape(1, -1), atoms)[0]
    return float(lam @ from_base - cost(base, bary) - lam @ from_bary)


def _sample_tuple(box: Box, seed: int, index: int, with_base: bool):
    # per-sample generator so serial and parallel runs agree; the pair
    # (seed, index) is hashed whole so distinct pairs draw distinct tuples
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    atoms = box.sample(rng, box.dim + 1)
    lam = rng.dirichlet(np.ones(box.dim + 1))
    base = box.sample(rng, 1)[0] if with_base else None
    return atoms, lam, base


def simplex_inequality_check(f1, f2, cost: CostSpec, domain: Box,
                             n_samples: int, seed: int,
                             tol: float = VIOLATION_TOL) -> SampledCheck:
    """Sample simplex tuples (atoms uniform in the box, flat Dirichlet
    weights); report the first violation above tol, or Ok with the largest
    violation seen."""
    worst = -np.inf
    for i in range(n_samples):
        atoms, lam, _ = _sample_tuple(domain, seed, i, with_base=False)
        v = simplex_violation(f1, f2, cost, atoms, lam)
        worst = max(worst, v)
        if v > tol:
            return SampledCheck(False, SimplexWitness(atoms, lam, v),
                                i + 1, worst)
    return SampledCheck(True, None, n_samples, worst)


def mti_check(cost: CostSpec, domain: Box, n_samples: int, seed: int,
              tol: float = VIOLATION_TOL) -> SampledCheck:
    """Sampled martingale triangle inequality with an independent base
    point per tuple."""
    worst = -np.inf
    for i in range(n_samples):
        atoms, lam, base = _sample_tuple(domain, seed, i, with_base=True)
        v = mti_violation(cost, base, atoms, lam)
        worst = max(worst, abs(v))
        if v > tol:
            return SampledCheck(False,
                                SimplexWitness(atoms, lam, v, base=base),
                                i + 1, worst)
    return SampledCheck(True, None, n_samples, worst)


def gamma_certify(f1, f2, X, Y, cost: CostSpec,
                  config: lp.SolverConfig = lp.DEFAULT_CONFIG) \
        -> GammaResult:
    """Per-point feasibility of f1(x) - f2(y) <= c(x, y) + <gamma(x), y-x>.

    f1, f2 may be callables, exact-point dicts, or arrays aligned with
    X, Y. Returns the full gamma map or the first uncertifiable point.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    R = values_on(X, f1)[:, None] - values_on(Y, f2)[None, :] \
        - cost.pairwise(X, Y)
    return _certify_points(X, Y, R, -1.0, config)


def _certify_points(X, Y, R, orient, config, skip_self=False) \
        -> GammaResult:
    """Gamma fields with orient * <gamma(x_i), y_j - x_i> <= orient * R[i, j]
    for every row j (j != i when ``skip_self``), point by point, or the
    first point where none exists with its binding core."""
    gammas = np.zeros(X.shape)
    for i, x in enumerate(X):
        keep = np.arange(len(Y)) != i if skip_self else slice(None)
        Yi = Y[keep]
        g, core = _farkas_point(Yi - x, orient * R[i, keep], config)
        if core is not None:
            binding = tuple((Yi[k].copy(), float(w)) for k, w in zip(*core))
            return GammaResult(False, X, counterexample=CounterexamplePoint(
                x.copy(), i, binding))
        gammas[i] = orient * g
    return GammaResult(True, X, gammas=gammas)


def _farkas_point(D, r, config):
    """A vector g with D @ g <= r, or an irreducible core proving none.

    Solves the Farkas alternative  min r.lam  s.t.  D' lam = 0,
    sum(lam) <= 1, lam >= 0  (d + 1 rows; lam = 0 is feasible and the
    simplex bounds it). At optimum 0 the multipliers of the d barycenter
    rows are g. A negative optimum proves the system empty; its basic lam
    has at most d + 1 nonzeros on linearly independent columns, so no
    proper subset of its support is infeasible. Returns (g, None) or
    (None, (support, weights summing to 1)); both are re-verified on the
    rows before they are returned.
    """
    n, d = D.shape
    A = np.vstack([D.T, np.ones(n)])
    sol = lp.solve(lp.LinearProgram(r, "min", A, (lp.EQ,) * d + (lp.LE,),
                                    np.append(np.zeros(d), 1.0)), config)
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(f"gamma certificate: LP terminated "
                                 f"{sol.status}")
    scale = 1.0 + np.abs(r).max(initial=0.0)
    if sol.value >= -config.feas_tol * scale:
        g = sol.dual[:d]
        if np.max(D @ g - r, initial=0.0) > 1e-8 * scale:
            raise NumericalBreakdown("gamma certificate violates its rows")
        return g, None
    support = np.flatnonzero(sol.primal > 1e-12)
    lam = sol.primal[support] / sol.primal[support].sum()
    drift = np.abs(lam @ D[support]).max(initial=0.0)
    if drift > 1e-8 * (1.0 + np.abs(D).max()) or not lam @ r[support] < 0:
        raise NumericalBreakdown("infeasibility core failed validation")
    return None, (support, lam)


def bclass_generate(atoms, cost: CostSpec) -> FunctionEvaluator:
    """Supremum of cost-affine atoms:
    f(x) = max_j b_j - c(y_j, x) + <a_j, x - y_j> (gamma(y_j) = -a_j).

    When the cost satisfies the martingale triangle inequality, the result
    certifies under gamma_certify on any finite set.
    """
    return FunctionEvaluator.bclass_sup(atoms, cost)


# ---------------------------------------------------------------------------
# Extension operator
# ---------------------------------------------------------------------------

def extend(grid_points, g, cost: CostSpec, gamma, targets,
           lower_bound=None) -> ExtendResult:
    """Extend g beyond its grid via the certified envelope
    g0(z) = max_y g(y) - c(y, z) - <gamma(y), z - y>, joined with an
    optional lower bound that g dominates on the grid.

    Requires growth metadata |c(x, y)| <= Lambda ||x - y|| on the cost and
    a gamma value for every grid point. The restriction of g0 to the grid
    reproduces g; its largest deviation is reported.
    """
    K = np.atleast_2d(np.asarray(grid_points, dtype=float))
    Z = np.atleast_2d(np.asarray(targets, dtype=float))
    gv = values_on(K, g)
    if cost.growth is None:
        raise ValueError(
            "extension requires growth metadata |c| <= Lambda ||x-y||")
    if isinstance(gamma, dict):
        gm = np.empty((K.shape[0], K.shape[1]))
        table = {point_key(k): np.atleast_1d(np.asarray(v, dtype=float))
                 for k, v in gamma.items()}
        for i, p in enumerate(K):
            key = point_key(p)
            if key not in table:
                raise GammaMissing(f"no gamma at grid point {key}")
            gm[i] = table[key]
    else:
        gm = np.atleast_2d(np.asarray(gamma, dtype=float))
        if gm.shape != K.shape:
            raise GammaMissing(
                f"gamma array has shape {gm.shape}, expected {K.shape}")

    lb_on_K = None
    if lower_bound is not None:
        lb_on_K = np.array([float(lower_bound(p)) for p in K])
        worst = float(np.max(lb_on_K - gv))
        if worst > 1e-9:
            raise LowerBoundViolation(
                f"lower bound exceeds g by {worst:.3e} on the grid")

    def envelope(points):
        C = cost.pairwise(K, points)
        lin = gm @ points.T - np.sum(gm * K, axis=1)[:, None]
        return np.max(gv[:, None] - C - lin, axis=0)

    restriction_error = float(np.max(np.abs(envelope(K) - gv)))
    if restriction_error > 1e-9:
        raise ValueError(
            f"gamma does not certify g on the grid: restriction deviates "
            f"by {restriction_error:.3e}")
    out = envelope(Z)
    if lower_bound is not None:
        out = np.maximum(out,
                         np.array([float(lower_bound(p)) for p in Z]))
    return ExtendResult(Z, out, restriction_error)


# ---------------------------------------------------------------------------
# Uniform convexity / smoothness
# ---------------------------------------------------------------------------

def _grid_points(grid):
    if isinstance(grid, Grid):
        return grid.points()
    return np.atleast_2d(np.asarray(grid, dtype=float))


def _modulus_rows(f, sigma: ModulusSpec, grid):
    """Grid points and R[i, j] = f(y_j) - f(x_i) - sigma(||y_j - x_i||)."""
    pts = _grid_points(grid)
    if abs(sigma(0.0)) > 0.0:
        raise ValueError("modulus must vanish at zero")
    fvals = np.array([float(f(p)) for p in pts])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    sig = np.array([[sigma(t) for t in row] for row in dist])
    return pts, fvals[None, :] - fvals[:, None] - sig


def uniform_convexity_certify(f, sigma: ModulusSpec, grid,
                              config: lp.SolverConfig = lp.DEFAULT_CONFIG) \
        -> GammaResult:
    """Per-point gamma with f(x) + sigma(||y-x||) + <gamma(x), y-x> <= f(y)
    over the grid, or the first point where none exists."""
    pts, R = _modulus_rows(f, sigma, grid)
    return _certify_points(pts, pts, R, 1.0, config, skip_self=True)


def uniform_smoothness_certify(f, sigma: ModulusSpec, grid,
                               config: lp.SolverConfig = lp.DEFAULT_CONFIG) \
        -> GammaResult:
    """Mirror of uniform_convexity_certify:
    f(x) + sigma(||y-x||) + <gamma(x), y-x> >= f(y) over the grid."""
    pts, R = _modulus_rows(f, sigma, grid)
    return _certify_points(pts, pts, R, -1.0, config, skip_self=True)


# ---------------------------------------------------------------------------
# Second-order martingale triangle check
# ---------------------------------------------------------------------------

def _hessian_in_second(cost: CostSpec, x, y, h: float) -> np.ndarray:
    d = y.size
    H = np.empty((d, d))
    base = cost(x, y)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        H[i, i] = (cost(x, y + ei) - 2.0 * base + cost(x, y - ei)) / h ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = (cost(x, y + ei + ej) - cost(x, y + ei - ej)
                       - cost(x, y - ei + ej) + cost(x, y - ei - ej)) \
                / (4.0 * h ** 2)
            H[j, i] = H[i, j]
    return H


def mti_second_order_check(cost: CostSpec, grid: Grid, h: float) \
        -> HessianCheck:
    """Necessary second-order condition on the grid interior: the
    second-argument Hessian at (y, y) dominates the one at (x, y).

    Central differences with step h; the tolerance 10 h^2 dominates their
    truncation error. Raises GridTooCoarse below 3 interior nodes per axis.
    """
    if any(c - 2 < 3 for c in grid.counts):
        raise GridTooCoarse(
            "need at least 3 interior lattice nodes per axis")
    pts = grid.points()
    interior = pts[grid.interior_mask()]
    tol = 10.0 * h ** 2
    H_diag = [_hessian_in_second(cost, y, y, h) for y in interior]
    for xi, x in enumerate(pts):
        for yi, y in enumerate(interior):
            gap = H_diag[yi] - _hessian_in_second(cost, x, y, h)
            lam_min = float(np.linalg.eigvalsh(gap)[0])
            if lam_min < -tol:
                return HessianCheck(False, x.copy(), y.copy(), lam_min)
    return HessianCheck(True)
