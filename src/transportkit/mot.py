"""Martingale optimal transport and the function classes of its dual.

Primal/dual LPs over martingale couplings, the symmetric (single-potential)
dual for diagonal-vanishing costs, certification of the simplex inequality
through per-point gamma fields, generation and extension of the associated
function class, uniform convexity and smoothness certificates, and the
martingale triangle inequality checks (sampled and second-order).

``mot_primal`` and ``mot_dual`` solve the martingale LP of
``convex_order._martingale_lp`` (m + n + m d rows) with their cost, and
the dual is read off its row multipliers; the symmetric dual (f, gamma)
on a support union of u points is read off a flow-and-barycenter primal
with u (1 + d) rows.

Gamma convention: a certificate for (f1, f2) satisfies
f1(x) - f2(y) <= c(x, y) + <gamma(x), y - x> on the checked sets. Uniform
convexity certificates use the classical orientation
f(x) + sigma(||y - x||) + <gamma(x), y - x> <= f(y).

Every gamma certifier checks a point x on its rows <g, y_j - x> <= r_j,
in three stages. (1) Each point's candidate g, accepted where it meets
every row, all points in one array pass: in one dimension the rows are
exactly an interval of slopes and g is its midpoint; in more, g is the
linear part of a local quadratic fit, the fits solved in one batch.
(2) In more than one dimension, the points it misses are refitted in
one batch, each without its near row of largest leave-one-out residual.
(3) Each point still missed, in order, solves one LP with d + 1 rows,
which decides the Farkas alternative (in one dimension, only for a
refuted point or one inside the tolerance band),
min sum_j lam_j r_j  s.t.  sum_j lam_j (y_j - x) = 0,
sum_j lam_j + s = 1, lam >= 0, s >= 0, its slack s a column of its own.
Optimum zero: the barycenter-row multipliers are g. Negative optimum:
the basic lam has at most d + 1 nonzeros and its support is an
irreducible infeasible core (Gleeson & Ryan, ORSA J. Comput. 1990),
reported with the weights lam normalised to sum 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .convex_order import _hull_witness, _martingale_lp
from .errors import (
    BadCheckParameter,
    DimensionMismatch,
    GammaMissing,
    GridTooCoarse,
    LowerBoundViolation,
    MissingGrowth,
    NonSmoothDiagonal,
    NonVanishingDiagonal,
    NotInConvexOrder,
    NumericalBreakdown,
    RestrictionDeviates,
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
        return float(_signed_mass(mu, nu, self.points) @ self.f)

    def max_violation(self, cost: CostSpec) -> float:
        """Largest f_i - f_j + <gamma_i, z_j - z_i> - c(z_i, z_j) over
        i != j; 0.0 on a one-point union, which has no such pair, so the
        margin is always finite."""
        Z = self.points
        if len(Z) < 2:
            return 0.0
        excess = self.f[:, None] - self.f[None, :] - cost.pairwise(Z, Z) \
            + self.gamma @ Z.T - np.sum(self.gamma * Z, axis=1)[:, None]
        np.fill_diagonal(excess, -np.inf)
        return float(np.max(excess))


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

def _solve_martingale(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      cost: CostSpec) -> lp.LpSolution:
    """``_martingale_lp`` with a cost; a refuted pair raises."""
    sol = _martingale_lp(mu, nu, cost)
    if not isinstance(sol, lp.LpSolution):
        raise NotInConvexOrder("no martingale coupling exists")
    return sol


def mot_primal(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """Cheapest martingale coupling; returns (Coupling, value). A pair out
    of convex order raises NotInConvexOrder, as in ``mot_dual``."""
    sol = _solve_martingale(mu, nu, cost)
    mass = sol.primal.reshape(len(mu), len(nu))
    return Coupling(mu, nu, mass / mass.sum()), float(sol.value)


def mot_dual(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """Optimal (u, v, gamma); value matches mot_primal by LP duality.

    u, -v and gamma are the multipliers of the martingale primal's source,
    target and barycenter rows; they meet one row per pair (i, j):
    u_i - v_j + <gamma_i, y_j - x_i> <= c(x_i, y_j). A pair out of convex
    order raises NotInConvexOrder, refused by the support-function
    witness when an atom of mu lies outside the hull of nu's support, and
    otherwise by the LP's Farkas ray.
    """
    sol = _solve_martingale(mu, nu, cost)
    m, n, y = len(mu), len(nu), sol.dual
    dual = GammaDual(mu.points, nu.points, y[:m], -y[m:m + n],
                     y[m + n:].reshape(m, mu.dim))
    return dual, dual.objective(mu, nu)


def _signed_mass(mu: DiscreteMeasure, nu: DiscreteMeasure, points) \
        -> np.ndarray:
    """(mu - nu) at each of ``points``; a point off a support has zero
    mass there."""
    mu_d, nu_d = mu.as_dict(), nu.as_dict()
    return np.array([mu_d.get(point_key(p), 0.0) - nu_d.get(point_key(p), 0.0)
                     for p in points])


def mot_dual_symmetric(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       cost: CostSpec):
    """Single-potential dual on the support union Z, read off its primal.

    Requires the cost to vanish on the diagonal of the union. The dual
    rows are f_i - f_j + <gamma_i, z_j - z_i> <= c(z_i, z_j) for i != j;
    its primal twin is the flow-and-barycenter LP over pi_ij >= 0 (i != j)
    min sum c(z_i, z_j) pi_ij  s.t.  sum_j pi_kj - sum_i pi_ik = (mu - nu)_k
    and sum_j pi_ij (z_j - z_i) = 0, with u (1 + d) rows. Its row duals are
    (f, gamma). The primal is feasible exactly when mu precedes nu in
    convex order. The value never exceeds the two-potential dual (the
    feasible set restricts). A pair out of convex order raises
    NotInConvexOrder: before the flow LP is built when the
    support-function witness of ``convex_order._hull_witness`` refutes
    it, and otherwise when the flow LP is infeasible (its Farkas ray).
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    Z = union_points(mu.points, nu.points)
    u, d = Z.shape
    lp.check_size(u * (1 + d), u * (u - 1))
    C = cost.pairwise(Z, Z)
    diag = np.max(np.abs(np.diag(C)))
    if diag > 1e-12:
        raise NonVanishingDiagonal(
            f"|c(z, z)| reaches {diag:.3e} on the union")
    if _hull_witness(mu, nu) is not None:
        raise NotInConvexOrder(
            "no flow-and-barycenter plan: the pair is not in convex order")
    I, J = np.nonzero(~np.eye(u, dtype=bool))
    cols = np.arange(I.size)
    A = np.zeros((u * (1 + d), I.size))
    A[I, cols] = 1.0
    A[J, cols] = -1.0
    A[u + I[:, None] * d + np.arange(d), cols[:, None]] = Z[J] - Z[I]
    b = np.concatenate([_signed_mass(mu, nu, Z), np.zeros(u * d)])
    sol = lp.solve(lp.LinearProgram(C[I, J], A, b))
    if sol.status == lp.INFEASIBLE:
        raise NotInConvexOrder(
            "no flow-and-barycenter plan: the pair is not in convex order")
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(
            f"mot_dual_symmetric: LP terminated {sol.status}")
    sym = SymmetricDual(Z, sol.dual[:u].copy(),
                        sol.dual[u:].reshape(u, d).copy())
    return sym, sym.objective_against(mu, nu)


# ---------------------------------------------------------------------------
# Simplex inequalities and gamma certification
# ---------------------------------------------------------------------------

def simplex_violation(f1, f2, cost: CostSpec, atoms, lambdas) -> float:
    """f1(bary) - sum_i lam_i f2(x_i) - sum_i lam_i c(bary, x_i)."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    lam = np.asarray(lambdas, dtype=float)
    bary = lam @ atoms
    costs = cost.pairwise(bary.reshape(1, -1), atoms)[0]
    return float(f1(bary) - lam @ values_on(atoms, f2) - lam @ costs)


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
    # one generator per sample, seeded by the pair (seed, index) hashed
    # whole, so distinct pairs draw distinct tuples
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    atoms = box.sample(rng, box.dim + 1)
    lam = rng.dirichlet(np.ones(box.dim + 1))
    base = box.sample(rng, 1)[0] if with_base else None
    return atoms, lam, base


def _sampled_check(violation, domain: Box, n_samples: int, seed: int,
                   tol: float, with_base: bool,
                   magnitude=float) -> SampledCheck:
    """Draw ``_sample_tuple`` i = 0, 1, ... and stop at the first whose
    ``violation(atoms, lam, base)`` exceeds tol; ``max_violation`` is the
    largest ``magnitude`` of a violation seen."""
    if n_samples < 1:
        raise BadCheckParameter(f"need at least one sample, got "
                                f"{n_samples}")
    worst = -np.inf
    for i in range(n_samples):
        atoms, lam, base = _sample_tuple(domain, seed, i, with_base)
        v = violation(atoms, lam, base)
        worst = max(worst, magnitude(v))
        if v > tol:
            return SampledCheck(False,
                                SimplexWitness(atoms, lam, v, base=base),
                                i + 1, worst)
    return SampledCheck(True, None, n_samples, worst)


def simplex_inequality_check(f1, f2, cost: CostSpec, domain: Box,
                             n_samples: int, seed: int,
                             tol: float = VIOLATION_TOL) -> SampledCheck:
    """Sample simplex tuples (atoms uniform in the box, flat Dirichlet
    weights); report the first violation above tol, or Ok with the largest
    violation seen. Fewer than one sample raises BadCheckParameter."""
    return _sampled_check(
        lambda atoms, lam, _: simplex_violation(f1, f2, cost, atoms, lam),
        domain, n_samples, seed, tol, with_base=False)


def mti_check(cost: CostSpec, domain: Box, n_samples: int, seed: int,
              tol: float = VIOLATION_TOL) -> SampledCheck:
    """Sampled martingale triangle inequality with an independent base
    point per tuple; ``max_violation`` is the largest |gap| seen. Fewer
    than one sample raises BadCheckParameter."""
    return _sampled_check(
        lambda atoms, lam, base: mti_violation(cost, base, atoms, lam),
        domain, n_samples, seed, tol, with_base=True, magnitude=abs)


def gamma_certify(f1, f2, X, Y, cost: CostSpec) -> GammaResult:
    """Per-point feasibility of f1(x) - f2(y) <= c(x, y) + <gamma(x), y-x>.

    f1, f2 may be callables, exact-point dicts, or arrays aligned with
    X, Y. Returns the full gamma map or the first uncertifiable point,
    through ``_certify_points``: a gamma is some certificate of its point
    (a checked candidate or the LP's), not a particular vertex, and every
    refutation and its binding core come from the LP.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    R = values_on(X, f1)[:, None] - values_on(Y, f2)[None, :] \
        - cost.pairwise(X, Y)
    return _certify_points(X, Y, R, -1.0)


def _certify_points(X, Y, R, orient, skip_self=False, D=None) \
        -> GammaResult:
    """Gamma fields with orient * <gamma(x_i), y_j - x_i> <= orient * R[i, j]
    for every row j (j != i when ``skip_self``), or the first point where
    none exists with its binding core.

    The module's three stages: (1) every point's candidate, from
    ``_interval_slopes`` in one dimension (an LP runs there only for a
    refuted point or one inside the tolerance band) and
    ``_fitted_gradients`` in more; (2) one batched refit of the fitted
    points it misses, each without its near row of largest leave-one-out
    residual e_j / (1 - h_jj) (Allen's PRESS residual, Technometrics
    1974), which names a single outlier row, such as a raised point in
    the window, where the plain residual may peak on a row it pulled;
    (3) ``_farkas_lp`` for each point still missed, in order. A
    candidate is accepted when it meets every row within FEAS_TOL
    (1 + max|r|) (``_meets_rows``), the LP's own verdict threshold, so
    no point the LP would refute is accepted and every refutation and its
    binding core come from the LP. ``D``, if given, is the array
    y_j - x_i that ``_point_rows`` would build.
    """
    D, r = _point_rows(X, Y, R, orient, skip_self, D)
    if D.shape[2] == 1:
        g, fitted = _interval_slopes(D, r)
    else:
        g, fitted, loo = _fitted_gradients(D, r)
    met = fitted & _meets_rows(D, r, g, lp.FEAS_TOL)
    redo = np.flatnonzero(fitted & ~met)
    if D.shape[2] > 1 and redo.size:
        # a refit the rows refuse is overwritten by the LP's gamma
        use = np.arange(D.shape[1]) != loo[redo].argmax(axis=1)[:, None]
        Dr, rr = D[redo], r[redo]
        g[redo], refit, _ = _fitted_gradients(Dr, rr, use)
        met[redo] = refit & _meets_rows(Dr, rr, g[redo], lp.FEAS_TOL)
    for i in np.flatnonzero(~met):
        keep = np.arange(len(Y)) != i if skip_self else slice(None)
        gi, core = _farkas_lp(D[i, keep], r[i, keep])
        if core is not None:
            Yi = Y[keep]
            binding = tuple((Yi[k].copy(), float(w)) for k, w in zip(*core))
            return GammaResult(False, X, counterexample=(
                CounterexamplePoint(X[i].copy(), int(i), binding)))
        g[i] = gi
    return GammaResult(True, X, gammas=orient * g)


def _point_rows(X, Y, R, orient, skip_self, D=None):
    """Every point's rows <g, y_j - x_i> <= r_ij: D = y_j - x_i, shape
    (n, m, d), built here unless given, and r = orient * R. Under
    ``skip_self`` the row j = i is zeroed in both, which leaves the fit
    and the acceptance test as if it were dropped."""
    if D is None:
        D = Y[None, :, :] - X[:, None, :]
    r = orient * R
    if skip_self:
        diag = np.arange(len(X))
        D[diag, diag] = 0.0
        r[diag, diag] = 0.0
    return D, r


def _meets_rows(D, r, g, tol):
    """D g <= r within tol (1 + max|r|), for every point's rows (D of
    shape (n, m, d), g of shape (n, d)) or one point's (D of shape
    (m, d)): the one acceptance test of a gamma, whether a candidate or
    a refit (tol = FEAS_TOL) or read off the LP (tol = 1e-8)."""
    scale = 1.0 + np.abs(r).max(axis=-1, initial=0.0)
    excess = (D @ g[..., None])[..., 0] - r
    return excess.max(axis=-1, initial=0.0) <= tol * scale


def _interval_slopes(D, r):
    """Every point's candidate slope in one dimension, for D of shape
    (n, m, 1) and r of shape (n, m): a point's rows D_j g <= r_j are
    exactly the interval lo <= g <= hi, with lo the largest r_j / D_j
    over D_j < 0 and hi the smallest over D_j > 0. Zero rows (-0.0 and
    the zeroed self row of ``skip_self`` among them) bound nothing. The
    candidate is the midpoint when both bounds exist, the one bound when
    one does, and 0 when neither does. Returns (g, finite), g of shape
    (n, 1); a point whose g is not finite (a quotient overflowed) is not
    a candidate, and its row of g is 0."""
    Dv = D[..., 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = r / Dv
        lo = np.where(Dv < 0.0, q, -np.inf).max(axis=1, initial=-np.inf)
        hi = np.where(Dv > 0.0, q, np.inf).min(axis=1, initial=np.inf)
        g = np.where(lo > -np.inf,
                     np.where(hi < np.inf, 0.5 * lo + 0.5 * hi, lo),
                     np.where(hi < np.inf, hi, 0.0))
    finite = np.isfinite(g)
    return np.where(finite, g, 0.0)[:, None], finite


def _fitted_gradients(D, r, use=None):
    """The linear part g_i of the least-squares quadratic model
    r_i ~ D_i g + sum_{k <= l} q_kl D_ik D_il of every point i, for D of
    shape (n, m, d) and r of shape (n, m).

    Each model is fitted on its point's near rows: the nonzero rows with
    |D_j|^2 <= 4.5 min |D_j|^2 (the factor stays above 4, so a lattice's
    rows at twice the nearest step survive rounding and one-sided fits
    stay determined), with D scaled by the nearest distance. ``use``, if
    given, is an (n, m) mask that leaves a point's unmasked rows out of
    its fit; the near rows and the scale are still chosen among all its
    nonzero rows (the refit of ``_certify_points``). The near rows are
    padded with zero rows to the largest near count, and the n normal
    equations are solved in one batch. Returns (g, fitted, loo), loo of
    shape (n, m) each near row's leave-one-out |residual|, its miss under
    the fit without it: |e_j| / (1 - h_jj), h_jj = M_j (M'M)^-1 M_j'; 0
    on other rows and where 1 - h_jj is within rounding (K p eps times
    the condition number), as no fit without that row is determined. A
    point is not fitted, and its rows of g and loo mean nothing, when
    its normal matrix is singular to working precision: its reciprocal
    1-norm condition number is at most K p eps, for K near rows and p
    features (as when its rows are all zero, fewer than p, or on one
    line).
    """
    d = D.shape[2]
    sq = np.einsum("ijk,ijk->ij", D, D)
    nonzero = sq > 0.0
    nearest = np.where(nonzero, sq, np.inf).min(axis=1, initial=np.inf)
    near = nonzero & (sq <= 4.5 * nearest[:, None])
    if use is not None:
        near &= use
    count = near.sum(axis=1)
    point = np.arange(len(D))[:, None]
    rows = np.argsort(~near, axis=1, kind="stable")[:, :count.max(initial=0)]
    live = near[point, rows]
    h = np.sqrt(nearest)[:, None]
    U = D[point, rows] * (live / h)[..., None]
    k, l = np.triu_indices(d)
    M = np.concatenate([U, U[..., k] * U[..., l]], axis=2)
    Mt = M.transpose(0, 2, 1)
    normal = Mt @ M
    rcond = 1.0 / np.linalg.cond(normal, 1)
    tiny = count * M.shape[2] * np.finfo(float).eps
    fitted = rcond > tiny
    normal[~fitted] = np.eye(M.shape[2])
    target = np.where(live, r[point, rows], 0.0)
    coef = np.linalg.solve(normal, Mt @ target[..., None])
    spare = 1.0 - np.einsum("ikp,ipk->ik", M, np.linalg.solve(normal, Mt))
    loo = np.zeros(near.shape)
    loo[point, rows] = np.divide(  # spare = 1 - h, h the hat diagonal
        np.abs((M @ coef)[..., 0] - target), spare,
        out=np.zeros(spare.shape), where=spare * rcond[:, None] > tiny[:, None])
    return coef[:, :d, 0] / h, fitted, loo


def _farkas_lp(D, r):
    """A vector g with D @ g <= r, or an irreducible core proving none:
    the LP step of ``_certify_points``.

    Solves the Farkas alternative  min r.lam  s.t.  D' lam = 0,
    sum(lam) + s = 1, lam >= 0, s >= 0  (d + 1 rows; the simplex bounds
    it). The slack s is column n; lam = 0, s = 1 starts the solve, an
    identity basis with artificials at zero on the barycenter rows, so
    phase 1 solves no basis and runs no pivot loop. At optimum 0 the
    multipliers of the d barycenter rows are g. A negative optimum proves
    the system empty; its basic lam has at most d + 1 nonzeros on
    linearly independent columns, so no proper subset of its support is
    infeasible. Returns (g, None) or (None, (support, weights summing to
    1)); both are re-verified on the rows before they are returned.
    """
    n, d = D.shape
    A = np.block([[D.T, np.zeros((d, 1))], [np.ones((1, n + 1))]])
    sol = lp.solve(lp.LinearProgram(np.append(r, 0.0), A,
                                    np.append(np.zeros(d), 1.0)),
                   basis=[-1] * d + [n])
    if sol.status != lp.OPTIMAL:
        raise NumericalBreakdown(f"gamma certificate: LP terminated "
                                 f"{sol.status}")
    if sol.value >= -lp.FEAS_TOL * (1.0 + np.abs(r).max(initial=0.0)):
        g = sol.dual[:d]
        if not _meets_rows(D, r, g, 1e-8):
            raise NumericalBreakdown("gamma certificate violates its rows")
        return g, None
    support = np.flatnonzero(sol.primal[:n] > 1e-12)
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
    optional lower bound that g dominates on the grid. g0 is the
    ``bclass_sup`` evaluator with one atom (y, -gamma(y), g(y)) per grid
    point.

    Requires growth metadata |c(x, y)| <= Lambda ||x - y|| on the cost
    (else MissingGrowth) and a gamma value for every grid point. The
    restriction of g0 to the grid reproduces g within 1e-9 (else
    RestrictionDeviates); its largest deviation is reported.
    """
    K = np.atleast_2d(np.asarray(grid_points, dtype=float))
    Z = np.atleast_2d(np.asarray(targets, dtype=float))
    gv = values_on(K, g)
    if cost.growth is None:
        raise MissingGrowth(
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

    if lower_bound is not None:
        worst = float(np.max(values_on(K, lower_bound) - gv))
        if worst > 1e-9:
            raise LowerBoundViolation(
                f"lower bound exceeds g by {worst:.3e} on the grid")

    envelope = FunctionEvaluator.bclass_sup(zip(K, -gm, gv), cost).on
    restriction_error = float(np.max(np.abs(envelope(K) - gv)))
    if restriction_error > 1e-9:
        raise RestrictionDeviates(
            f"gamma does not certify g on the grid: restriction deviates "
            f"by {restriction_error:.3e}")
    out = envelope(Z)
    if lower_bound is not None:
        out = np.maximum(out, values_on(Z, lower_bound))
    return ExtendResult(Z, out, restriction_error)


# ---------------------------------------------------------------------------
# Uniform convexity / smoothness
# ---------------------------------------------------------------------------

def _grid_points(grid):
    if isinstance(grid, Grid):
        return grid.points()
    return np.atleast_2d(np.asarray(grid, dtype=float))


def _modulus_rows(f, sigma: ModulusSpec, grid):
    """Grid points, their differences D[i, j] = y_j - x_i (the rows of
    ``_point_rows``, built once) and R[i, j] = f(y_j) - f(x_i) -
    sigma(||y_j - x_i||)."""
    pts = _grid_points(grid)
    if abs(sigma(0.0)) > 0.0:
        raise ValueError("modulus must vanish at zero")
    fvals = values_on(pts, f)
    D = pts[None, :, :] - pts[:, None, :]
    return pts, D, fvals[None, :] - fvals[:, None] \
        - sigma(np.linalg.norm(D, axis=2))


def uniform_convexity_certify(f, sigma: ModulusSpec, grid) -> GammaResult:
    """Per-point gamma with f(x) + sigma(||y-x||) + <gamma(x), y-x> <= f(y)
    over the grid, or the first point where none exists."""
    pts, D, R = _modulus_rows(f, sigma, grid)
    return _certify_points(pts, pts, R, 1.0, skip_self=True, D=D)


def uniform_smoothness_certify(f, sigma: ModulusSpec, grid) \
        -> GammaResult:
    """Mirror of uniform_convexity_certify:
    f(x) + sigma(||y-x||) + <gamma(x), y-x> >= f(y) over the grid."""
    pts, D, R = _modulus_rows(f, sigma, grid)
    return _certify_points(pts, pts, R, -1.0, skip_self=True, D=D)


# ---------------------------------------------------------------------------
# Second-order martingale triangle check
# ---------------------------------------------------------------------------

def _hessians_in_second(cost: CostSpec, x, Y, h: float):
    """Central-difference Hessians of c(x, .) at each row of Y, shape
    (len(Y), d, d), and the largest |c| among the values they difference.
    The stencil is y, y +- h e_i, and y + h (+-e_i +-e_j) for i < j."""
    n, d = Y.shape
    E = h * np.eye(d)
    I, J = np.triu_indices(d, 1)
    offsets = np.vstack([np.zeros((1, d)), E, -E, E[I] + E[J],
                         E[I] - E[J], -E[I] + E[J], -E[I] - E[J]])
    c = cost.pairwise(x[None], (Y[:, None, :] + offsets).reshape(-1, d))
    c = c.reshape(n, -1)
    base, plus, minus = c[:, :1], c[:, 1:1 + d], c[:, 1 + d:1 + 2 * d]
    pp, pm, mp, mm = np.split(c[:, 1 + 2 * d:], 4, axis=1)
    H = np.empty((n, d, d))
    H[:, range(d), range(d)] = (plus - 2.0 * base + minus) / h ** 2
    H[:, I, J] = H[:, J, I] = (pp - pm - mp + mm) / (4.0 * h ** 2)
    return H, float(np.abs(c).max())


def mti_second_order_check(cost: CostSpec, grid: Grid, h: float) \
        -> HessianCheck:
    """Necessary second-order condition on the grid interior: the
    second-argument Hessian at (y, y) dominates the one at (x, y).

    Central differences with step h. The tolerance is 10 h^2, which
    dominates their truncation error, plus 32 d eps M / h^2 for the
    rounding of the cost values of size up to M that they difference (at
    h = 1e-4 and M of order 1 that rounding is already comparable to
    10 h^2). Raises GridTooCoarse below 3 interior nodes per axis, and
    NonSmoothDiagonal when the Hessian at some (y, y) moves by more than
    that tolerance from step 2h to step h and by more than it moved from
    4h to 2h: a kink on the diagonal (as in the euclidean cost) reads as
    a Hessian of order 1/h there, whose moves double as the step halves
    and which would dominate every gap and pass any cost. The truncation
    error of a smooth cost moves a quarter as much at each halving,
    whatever the cost's scale. A step h that is not finite and positive
    raises BadCheckParameter.
    """
    if not (np.isfinite(h) and h > 0):
        raise BadCheckParameter(f"step h must be finite and positive, got "
                                f"{h}")
    if any(c - 2 < 3 for c in grid.counts):
        raise GridTooCoarse(
            "need at least 3 interior lattice nodes per axis")
    pts = grid.points()
    interior = pts[grid.interior_mask()]
    rounding = 32.0 * pts.shape[1] * np.finfo(float).eps / h ** 2

    def at_diagonal(step):
        at = [_hessians_in_second(cost, y, y[None], step) for y in interior]
        return np.concatenate([H for H, _ in at]), max(m for _, m in at)

    (H_diag, diag_scale), (H_2h, scale_2h), (H_4h, _) = (
        at_diagonal(s * h) for s in (1.0, 2.0, 4.0))
    moves = np.abs(H_diag - H_2h).max(axis=(1, 2))
    kinks = np.flatnonzero(
        (moves > 10.0 * h ** 2 + rounding * max(diag_scale, scale_2h))
        & (moves > np.abs(H_2h - H_4h).max(axis=(1, 2))))
    if kinks.size:
        y = interior[kinks[0]]
        raise NonSmoothDiagonal(
            f"cost is not twice differentiable across the diagonal at "
            f"y = {y.tolist()}: its Hessian there moves by "
            f"{moves[kinks[0]]:.3e} from step 2h to h")
    for x in pts:
        H, scale = _hessians_in_second(cost, x, interior, h)
        tol = 10.0 * h ** 2 + rounding * max(scale, diag_scale)
        gaps = np.linalg.eigvalsh(H_diag - H)[:, 0]
        bad = np.flatnonzero(gaps < -tol)
        if bad.size:
            return HessianCheck(False, x.copy(), interior[bad[0]].copy(),
                                float(gaps[bad[0]]))
    return HessianCheck(True)
