"""Convex-order testing with certificates, martingale (Strassen) couplings,
and the constructive decomposition of a convex-order pair into extreme
fan martingales.

A fan is a pair (delta_x, sum_i lambda_i delta_{x_i}) whose atoms are
affinely independent, at most dim+1 of them, with barycenter x. Every
convex-order pair is a mixture of fans; the decomposition here repeatedly
splits a fiber measure along a kernel direction of the lifted weighted
atom matrix, removing at least one atom per branch.
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
    point_key,
)
from .ot import _marginal_rows

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
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-10:
            raise BarycenterMismatch(
                "fan weights must be positive and sum to one")
        if a.shape[0] > d + 1:
            raise BarycenterMismatch(
                f"{a.shape[0]} atoms exceed dim+1 = {d + 1}")
        if not affinely_independent(a):
            raise BarycenterMismatch("fan atoms are affinely dependent")
        if np.linalg.norm(w @ a - c) > BARYCENTER_TOL:
            raise BarycenterMismatch(
                f"fan barycenter off by {np.linalg.norm(w @ a - c):.3e}")
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

    def first_marginal(self) -> dict:
        out = {}
        for w, fan in self.entries:
            k = point_key(fan.center)
            out[k] = out.get(k, 0.0) + w
        return out

    def second_marginal(self) -> dict:
        out = {}
        for w, fan in self.entries:
            for atom, lam in zip(fan.atoms, fan.weights):
                k = point_key(atom)
                out[k] = out.get(k, 0.0) + w * lam
        return out

    def recomposition_error(self, mu: DiscreteMeasure,
                            nu: DiscreteMeasure) -> tuple[float, float]:
        """Total-variation distances of the recomposed marginals."""
        return (_tv(self.first_marginal(), mu.as_dict()),
                _tv(self.second_marginal(), nu.as_dict()))


def _tv(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class ConvexWitness:
    """Piecewise-affine convex function max_i(<slope_i, x> + intercept_i)
    refuting convex order: its mu-integral exceeds its nu-integral."""

    slopes: np.ndarray      # (p, d)
    intercepts: np.ndarray  # (p,)

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(np.max(self.slopes @ x + self.intercepts))

    def integral_gap(self, mu: DiscreteMeasure, nu: DiscreteMeasure) \
            -> float:
        vals_mu = np.max(self.slopes @ mu.points.T
                         + self.intercepts[:, None], axis=0)
        vals_nu = np.max(self.slopes @ nu.points.T
                         + self.intercepts[:, None], axis=0)
        return float(mu.weights @ vals_mu - nu.weights @ vals_nu)


@dataclass(frozen=True)
class OrderCertificate:
    in_order: bool
    coupling: Coupling | None = None
    witness: ConvexWitness | None = None


def _martingale_rows(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Equality system (A, rels, b) of the martingale transport polytope,
    in the fixed row order: m row sums, n column sums, then d barycenter
    rows per source point."""
    m, n, d = len(mu), len(nu), mu.dim
    bary = np.zeros((m, d, m, n))
    # row (i, axis) holds y_j[axis] - x_i[axis] on the columns of source i
    bary[np.arange(m), :, np.arange(m), :] = \
        nu.points.T[None, :, :] - mu.points[:, :, None]
    A, b = _marginal_rows((mu, nu))
    b = np.concatenate([b, np.zeros(m * d)])
    return np.vstack([A, bary.reshape(m * d, m * n)]), (lp.EQ,) * len(b), b


def convex_order_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       config: lp.SolverConfig = lp.DEFAULT_CONFIG) \
        -> OrderCertificate:
    """Decide mu precedes nu in convex order.

    InOrder returns a martingale coupling. NotInOrder returns a convex
    piecewise-affine witness assembled from the Farkas certificate of the
    infeasible coupling system: dual values of the barycenter rows become
    slopes, those of the source-marginal rows become intercepts.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    m, n, d = len(mu), len(nu), mu.dim
    res = lp.check_feasibility(*_martingale_rows(mu, nu), config=config)
    if res.feasible:
        mass = res.primal.reshape(m, n)
        coupling = Coupling(mu, nu, mass / mass.sum(),
                            marginal_consistent=True)
        return OrderCertificate(in_order=True, coupling=coupling)
    y = res.certificate
    u = y[:m]
    gamma = y[m + n:].reshape(m, d)
    witness = ConvexWitness(
        slopes=gamma.copy(),
        intercepts=u - np.einsum("id,id->i", gamma, mu.points))
    gap = witness.integral_gap(mu, nu)
    if gap <= 1e-10:
        raise NumericalBreakdown(
            f"witness gap {gap:.3e} fails to separate the pair")
    return OrderCertificate(in_order=False, witness=witness)


def strassen_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      config: lp.SolverConfig = lp.DEFAULT_CONFIG) \
        -> Coupling:
    """A coupling with marginals (mu, nu) and source-wise barycenter
    identities (a one-step martingale)."""
    cert = convex_order_check(mu, nu, config)
    if not cert.in_order:
        raise NotInConvexOrder("the pair admits no martingale coupling")
    return cert.coupling


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
            leaves.append((mix, atoms, w))
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


def choquet_represent(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      config: lp.SolverConfig = lp.DEFAULT_CONFIG) \
        -> FanRepresentation:
    """Mixture of fans representing the pair: couple, disintegrate, and
    decompose every fiber. Entry weights are mu(x) times the fiber fan
    weights, ordered by source index."""
    coupling = strassen_coupling(mu, nu, config)
    entries = []
    for x, mass, fiber in disintegrate(coupling):
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

    Clauses in order: atom count <= dim+1, all weights positive, atoms
    affinely independent, barycenter equals the center within 1e-9. The
    reason names the first failed clause.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != nu.dim:
        raise DimensionMismatch(f"center dim {center.size} vs {nu.dim}")
    d = nu.dim
    if len(nu) > d + 1:
        return ExtremeCheck(False, f"{len(nu)} atoms exceed dim+1 = {d + 1}")
    if np.any(nu.weights <= 0):
        return ExtremeCheck(False, "a weight is not strictly positive")
    if not affinely_independent(nu.points):
        return ExtremeCheck(False, "atoms are affinely dependent")
    gap = float(np.linalg.norm(barycenter(nu) - center))
    if gap > BARYCENTER_TOL:
        return ExtremeCheck(False, f"barycenter off center by {gap:.3e}")
    return ExtremeCheck(True)


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
