"""Convex-order testing with certificates, martingale (Strassen) couplings,
and the constructive decomposition of a convex-order pair into extreme
fan martingales.

A fan is a pair (delta_x, sum_i lambda_i delta_{x_i}) whose atoms are
affinely independent, at most dim+1 of them, with barycenter x. Every
convex-order pair is a mixture of fans; the decomposition here repeatedly
splits a fiber measure along a kernel direction of the lifted weighted
atom matrix, removing at least one atom per branch. A leaf's weights are
its products of split factors plus the least-squares solution of their
residual in [atoms^T; 1] lambda = [center; 1], unless that sum is not
positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (
    BarycenterMismatch,
    DimensionMismatch,
    NotInConvexOrder,
    NumericalBreakdown,
)
from .measures import (
    Coupling,
    CostSpec,
    DiscreteMeasure,
    barycenter,
    locate,
    union_points,
)
from .ot import _least_cost_basis, _marginal_rows

INDEPENDENCE_TOL = 1e-9
BARYCENTER_TOL = 1e-9
TV_TOL = 1e-9
WEIGHT_FLOOR = 1e-12


def affinely_independent(atoms: np.ndarray, tol: float = INDEPENDENCE_TOL) \
        -> bool:
    """Smallest singular value of the centered atom columns exceeds tol.

    A single atom is trivially independent; more than dim+1 atoms never are.
    """
    atoms = np.atleast_2d(atoms)
    m, d = atoms.shape
    if m == 1:
        return True
    if m > d + 1:
        return False
    M = (atoms[1:] - atoms[0]).T
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s.min() > tol)


def _extreme_failure(center: np.ndarray, atoms: np.ndarray,
                     weights: np.ndarray) -> str | None:
    """The first failed clause of an extreme convex-order pair (delta_center,
    sum_i w_i delta_{x_i}), or None. Clauses in order: atom count <= dim+1,
    all weights positive, atoms affinely independent, barycenter within
    ``BARYCENTER_TOL`` of the center."""
    d = center.size
    if len(atoms) > d + 1:
        return f"{len(atoms)} atoms exceed dim+1 = {d + 1}"
    if np.any(weights <= 0):
        return "a weight is not strictly positive"
    if not affinely_independent(atoms):
        return "atoms are affinely dependent"
    gap = float(np.linalg.norm(weights @ atoms - center))
    if gap > BARYCENTER_TOL:
        return f"barycenter off center by {gap:.3e}"
    return None


@dataclass(frozen=True)
class Fan:
    """Extreme point of the convex-order pairs: center plus at most dim+1
    affinely independent atoms whose weighted barycenter is the center."""

    center: np.ndarray
    atoms: np.ndarray    # (m, d)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        a = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        d = c.size
        if a.shape[1] != d or w.shape != (a.shape[0],):
            raise DimensionMismatch("fan fields have inconsistent shapes")
        if abs(w.sum() - 1.0) > 1e-10:
            raise BarycenterMismatch("fan weights must sum to one")
        reason = _extreme_failure(c, a, w)
        if reason is not None:
            raise BarycenterMismatch(f"not a fan: {reason}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.center.size, self.atoms,
                               self.weights / self.weights.sum())


@dataclass(frozen=True)
class FanRepresentation:
    """Mixture of fans representing a convex-order pair."""

    entries: tuple  # ((weight, Fan), ...)

    def __post_init__(self):
        entries = tuple((float(w), f) for w, f in self.entries)
        total = sum(w for w, _ in entries)
        if any(w <= 0 for w, _ in entries) or abs(total - 1.0) > 1e-10:
            raise BarycenterMismatch(
                "representation weights must be positive and sum to one")
        object.__setattr__(self, "entries", entries)

    def recomposition_error(self, mu: DiscreteMeasure,
                            nu: DiscreteMeasure) -> tuple[float, float]:
        """Total-variation distances of the recomposed marginals."""
        ws = [w for w, _ in self.entries]
        centers = np.array([fan.center for _, fan in self.entries])
        atoms = np.vstack([fan.atoms for _, fan in self.entries])
        masses = np.concatenate([w * fan.weights for w, fan in self.entries])
        return _tv(mu, centers, ws), _tv(nu, atoms, masses)


def _tv(m: DiscreteMeasure, points, masses) -> float:
    """Total-variation distance from m of the masses at points."""
    U = union_points(m.points, points)  # m's atoms first, in order
    diff = np.bincount(locate(U, points), masses, minlength=len(U))
    diff[:len(m)] -= m.weights
    return 0.5 * float(np.abs(diff).sum())


@dataclass(frozen=True)
class ConvexWitness:
    """Piecewise-affine convex function max_i(<slope_i, x> + intercept_i)
    refuting convex order: its mu-integral exceeds its nu-integral."""

    slopes: np.ndarray      # (p, d)
    intercepts: np.ndarray  # (p,)

    def on(self, points) -> np.ndarray:
        """The witness at each row of an (n, d) array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.max(self.slopes @ points.T + self.intercepts[:, None],
                      axis=0)

    def __call__(self, x) -> float:
        return float(self.on(x)[0])

    def integral_gap(self, mu: DiscreteMeasure, nu: DiscreteMeasure) \
            -> float:
        return float(mu.weights @ self.on(mu.points)
                     - nu.weights @ self.on(nu.points))


@dataclass(frozen=True)
class OrderCertificate:
    in_order: bool
    coupling: Coupling | None = None
    witness: ConvexWitness | None = None


def _hull_witness(mu: DiscreteMeasure, nu: DiscreteMeasure) \
        -> ConvexWitness | None:
    """A two-piece witness max(0, <s, z> - h) when an atom of mu lies
    outside the convex hull of nu's support by more than the martingale
    LP's tolerance; None otherwise, and then the LP decides.

    Each atom x_k is held against nu's support function along s_k = x_k -
    bary(nu), in one (m, n) product: its excess is (<s_k, x_k> - max_j
    <s_k, y_j>) / |s_k|. The atom of largest excess gives the unit s and
    h = max_j <s, y_j>, so phi(z) = max(0, <s, z> - h) is convex, vanishes
    on nu and not on mu (Strassen 1965). phi is also a Farkas ray of
    ``_martingale_rows``: u_i = phi(x_i), v_j = phi(y_j), gamma_i in the
    subdifferential of phi at x_i. Its sup-norm is max(1, max_i phi(x_i)),
    so the integral gap divided by that norm bounds phase 1's least
    artificial level from below. The witness is returned only when that
    bound exceeds 1e3 ``lp.FEAS_TOL`` (1 + max nu weight): a pair refused
    here is one the LP refuses above its own tolerance too."""
    S = mu.points - barycenter(nu)
    norms = np.linalg.norm(S, axis=1)
    support = (S @ nu.points.T).max(axis=1)
    # an atom at nu's barycenter has S_k = 0 and no direction: excess 0
    excess = (np.einsum("id,id->i", S, mu.points) - support) \
        / np.where(norms > 0.0, norms, np.inf)
    k = int(np.argmax(excess))
    if excess[k] <= 0.0:
        return None
    s = S[k] / norms[k]
    h = float(np.max(nu.points @ s))
    witness = ConvexWitness(slopes=np.vstack([np.zeros_like(s), s]),
                            intercepts=np.array([0.0, -h]))
    norm = max(1.0, float(np.max(mu.points @ s)) - h)
    if witness.integral_gap(mu, nu) / norm \
            <= 1e3 * lp.FEAS_TOL * (1.0 + float(nu.weights.max())):
        return None
    return witness


def _martingale_rows(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Equality system (A, b) of the martingale transport polytope,
    in the fixed row order: m row sums, n column sums, then d barycenter
    rows per source point. Callers check the sizes first
    (``_martingale_lp``)."""
    m, n, d = len(mu), len(nu), mu.dim
    bary = np.zeros((m, d, m, n))
    # row (i, axis) holds y_j[axis] - x_i[axis] on the columns of source i
    bary[np.arange(m), :, np.arange(m), :] = \
        nu.points.T[None, :, :] - mu.points[:, :, None]
    A, b = _marginal_rows((mu, nu))
    b = np.concatenate([b, np.zeros(m * d)])
    return np.vstack([A, bary.reshape(m * d, m * n)]), b


def _martingale_start(mu: DiscreteMeasure, nu: DiscreteMeasure) \
        -> np.ndarray:
    """Starting basis of an LP on ``_martingale_rows(mu, nu)``: the
    least-cost staircase of squared distances |x_i - y_j|^2 on the m + n
    marginal rows (``ot._least_cost_basis``), and an artificial (-1) on
    each of the m d barycenter rows.

    The staircase ships mass without regard to barycenters, so the
    barycenter rows (b = 0) start at -sum_j pi_ij (y_j - x_i), of either
    sign: only an artificial can stand there, and ``lp.solve`` enters one
    that starts below zero with coefficient -1. Phase 1 pivots them out.
    The rows have rank at most m + n + m d - 1 - d: one marginal row is
    implied by the others, and so are d barycenter rows, whose sum over
    the sources is a combination of the marginal rows. So a feasible
    solve keeps at least 1 + d artificials basic at zero. Squared
    distances do not depend on the order of the atoms; on euclidean and
    squared costs they give the cost's own staircase."""
    C = np.square(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
    return np.concatenate([_least_cost_basis(C, [mu.weights, nu.weights]),
                           np.full(len(mu) * mu.dim, -1)])


def _farkas_witness(mu: DiscreteMeasure, nu: DiscreteMeasure,
                    farkas: np.ndarray) -> ConvexWitness:
    """The convex witness of a Farkas ray of ``_martingale_rows(mu, nu)``:
    the barycenter-row multipliers gamma_i become slopes, and the
    source-row multipliers u_i intercepts u_i - <gamma_i, x_i>."""
    m, n, d = len(mu), len(nu), mu.dim
    gamma = farkas[m + n:].reshape(m, d)
    return ConvexWitness(
        slopes=gamma.copy(),
        intercepts=farkas[:m] - np.einsum("id,id->i", gamma, mu.points))


def _martingale_lp(mu: DiscreteMeasure, nu: DiscreteMeasure,
                   cost: CostSpec | None = None) \
        -> tuple[Coupling, lp.LpSolution] | ConvexWitness:
    """The one martingale LP of (mu, nu), with cost c(x_i, y_j) on mu x nu
    or, without a cost, zero (a feasibility check). Returns its optimal
    coupling (mass one) and ``LpSolution``, whose row multipliers are
    (u, -v, gamma), or a ConvexWitness refuting convex order. In order:
    the sizes alone refuse unequal dimensions and an LP over
    ``lp.check_size``'s budget; ``_hull_witness`` refutes before any row
    is built; else one solve from ``_martingale_start`` decides, ending
    optimal or infeasible (the set is bounded), and a Farkas ray whose
    witness (``_farkas_witness``) separates by no more than 1e-10 raises
    NumericalBreakdown."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    m, n = len(mu), len(nu)
    lp.check_size(m + n + m * mu.dim, m * n)
    witness = _hull_witness(mu, nu)
    if witness is not None:
        return witness
    A, b = _martingale_rows(mu, nu)
    c = np.zeros(m * n) if cost is None \
        else cost.pairwise(mu.points, nu.points).ravel()
    sol = lp.solve(lp.LinearProgram(c, A, b),
                   basis=_martingale_start(mu, nu))
    if sol.status == lp.OPTIMAL:
        mass = sol.primal.reshape(m, n)
        return Coupling(mu, nu, mass / mass.sum()), sol
    witness = _farkas_witness(mu, nu, sol.farkas)
    gap = witness.integral_gap(mu, nu)
    if gap <= 1e-10:
        raise NumericalBreakdown(
            f"witness gap {gap:.3e} fails to separate the pair")
    return witness


def convex_order_check(mu: DiscreteMeasure, nu: DiscreteMeasure) \
        -> OrderCertificate:
    """Decide mu precedes nu in convex order.

    InOrder returns a martingale coupling. NotInOrder returns a convex
    piecewise-affine witness: the two-piece support-function witness of
    ``_hull_witness`` when an atom of mu lies outside the convex hull of
    nu's support (no LP is solved), and otherwise the one read off the
    Farkas ray of the feasibility LP (``_martingale_lp`` without a cost):
    dual values of the barycenter rows become slopes, those of the
    source-marginal rows intercepts.
    """
    res = _martingale_lp(mu, nu)
    if isinstance(res, ConvexWitness):
        return OrderCertificate(in_order=False, witness=res)
    return OrderCertificate(in_order=True, coupling=res[0])


def disintegrate(c: Coupling):
    """Kernel extraction: per source point x with positive mass, the
    conditional measure pi(x, .) / mu(x). Zero-mass sources are skipped."""
    out = []
    row_mass = c.mass.sum(axis=1)
    for i, p in enumerate(c.left.points):
        if row_mass[i] <= 0.0:
            continue
        fiber = DiscreteMeasure(c.right.dim, c.right.points,
                                c.mass[i] / row_mass[i])
        out.append((p.copy(), float(row_mass[i]), fiber))
    return out


def _split_direction(atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Kernel direction t with sum t_i w_i x_i = 0 and sum t_i w_i = 0,
    taken as the right-singular vector of the smallest singular value of
    the lifted weighted atom matrix."""
    lifted = np.vstack([atoms.T * weights, weights])  # (d+1, m)
    _, _, Vt = np.linalg.svd(lifted)
    return Vt[-1]


def fan_decompose(center, nu: DiscreteMeasure) -> FanRepresentation:
    """Write a measure with the given barycenter as a mixture of fans.

    While the lifted weighted atoms are linearly dependent, move along a
    kernel direction to the two extreme step sizes, each killing at least
    the first vanishing atom, and split the mass between the branches.
    Decompositions are not unique; validity is recomposition.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if np.linalg.norm(barycenter(nu) - center) > BARYCENTER_TOL:
        raise BarycenterMismatch(
            f"barycenter off center by "
            f"{np.linalg.norm(barycenter(nu) - center):.3e}")
    # solver-noise atoms blow up the split step sizes (s ~ 1/weight), so
    # drop them up front; the total mass lost stays far below the 1e-9
    # recomposition budget
    keep = nu.weights > WEIGHT_FLOOR
    atoms0 = nu.points[keep].copy()
    w0 = nu.weights[keep] / nu.weights[keep].sum()

    leaves = []
    stack = [(1.0, atoms0, w0)]
    while stack:
        mix, atoms, w = stack.pop()
        d = atoms.shape[1]
        if atoms.shape[0] <= d + 1 and affinely_independent(atoms):
            # w, a product of split factors, misses the center by more
            # than BARYCENTER_TOL beside atoms of weight ~1e-10
            lifted = np.vstack([atoms.T, np.ones(len(atoms))])
            lam = w + np.linalg.lstsq(
                lifted, np.append(center, 1.0) - lifted @ w, rcond=None)[0]
            leaves.append((mix, atoms, lam if np.all(lam > 0) else w))
            continue
        t = _split_direction(atoms, w)
        pos = t > 1e-14
        neg = t < -1e-14
        branches = []
        if pos.any():
            s_minus = float(np.min(1.0 / t[pos]))
            branches.append(w * (1.0 - s_minus * t))
        if neg.any():
            s_plus = float(np.min(-1.0 / t[neg]))
            branches.append(w * (1.0 + s_plus * t))
        if len(branches) == 2:
            alpha = s_plus / (s_plus + s_minus)
            mixes = [mix * alpha, mix * (1.0 - alpha)]
        else:
            # the direction is one-sided only when it isolates negligible
            # mass; the single branch carries everything
            mixes = [mix]
        for bmix, bw in zip(mixes, branches):
            sel = bw > WEIGHT_FLOOR
            # a branch of negligible weight is LP noise amplified by the
            # step s ~ 1/weight; the recomposition check in
            # choquet_represent still bounds the mass it drops
            if not sel.any() or bmix <= TV_TOL / 10:
                continue
            wn = bw[sel] / bw[sel].sum()
            stack.append((bmix, atoms[sel].copy(), wn))

    total = sum(mix for mix, _, _ in leaves)
    entries = []
    for mix, atoms, w in sorted(leaves, key=lambda e: -e[0]):
        entries.append((mix / total, Fan(center, atoms, w)))
    return FanRepresentation(tuple(entries))


def choquet_represent(mu: DiscreteMeasure, nu: DiscreteMeasure) \
        -> FanRepresentation:
    """Mixture of fans representing the pair: couple, disintegrate, and
    decompose every fiber. Entry weights are mu(x) times the fiber fan
    weights, ordered by source index. A pair out of convex order raises
    NotInConvexOrder."""
    cert = convex_order_check(mu, nu)
    if not cert.in_order:
        raise NotInConvexOrder("the pair admits no martingale coupling")
    entries = []
    for x, mass, fiber in disintegrate(cert.coupling):
        rep = fan_decompose(x, fiber)
        for w, fan in rep.entries:
            entries.append((mass * w, fan))
    rep = FanRepresentation(tuple(entries))
    err = rep.recomposition_error(mu, nu)
    if max(err) > TV_TOL:
        raise NumericalBreakdown(
            f"recomposition TV errors {err} exceed {TV_TOL}")
    return rep


def representation_cost(rep: FanRepresentation, cost: CostSpec) -> float:
    """Mixture cost sum_entries w * sum_i lambda_i c(center, atom_i)."""
    total = 0.0
    for w, fan in rep.entries:
        row = cost.pairwise(fan.center.reshape(1, -1), fan.atoms)[0]
        total += w * float(fan.weights @ row)
    return float(total)


@dataclass(frozen=True)
class ExtremeCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def is_extreme_pair(center, nu: DiscreteMeasure) -> ExtremeCheck:
    """Is (delta_center, nu) an extreme convex-order pair?

    The clauses of ``_extreme_failure``, which ``Fan`` holds too; the
    reason names the first failed one.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != nu.dim:
        raise DimensionMismatch(f"center dim {center.size} vs {nu.dim}")
    reason = _extreme_failure(center, nu.points, nu.weights)
    return ExtremeCheck(reason is None, reason)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def fan_representation_to_json(rep: FanRepresentation) -> dict:
    return {"entries": [{"weight": w,
                         "center": fan.center.tolist(),
                         "atoms": fan.atoms.tolist(),
                         "lambdas": fan.weights.tolist()}
                        for w, fan in rep.entries]}


def fan_representation_from_json(obj: dict) -> FanRepresentation:
    entries = tuple(
        (e["weight"], Fan(np.asarray(e["center"], dtype=float),
                          np.asarray(e["atoms"], dtype=float),
                          np.asarray(e["lambdas"], dtype=float)))
        for e in obj["entries"])
    return FanRepresentation(entries)
