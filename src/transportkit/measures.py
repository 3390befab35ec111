"""Finitely supported measures, couplings and cost functions.

Points are plain 1-D float64 arrays; a measure stores its support as an
(m, dim) array plus a weight vector. Point identity is exact coordinate
equality throughout (-0.0 equals 0.0), decided in one place, ``locate``,
which finds a point's first occurrence in a table. Callers deduplicate or
snap beforehand: a measure's support, a matrix cost's grid and sample
points refuse a repeated point (``check_distinct``).

Mass tolerances: 1e-12 at construction, 1e-10 for every coupling's
marginals (couplings come from LP solutions, where round-off accumulates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    MassNotOne,
    MissingValue,
    NegativeWeight,
    NonFinite,
    OffGrid,
)

MASS_TOL = 1e-12          # construction
DERIVED_MASS_TOL = 1e-10  # every marginal of every coupling


def point_key(p) -> tuple:
    """Hashable exact-coordinate key for a point: its coordinates as
    Python floats, the sign of a zero kept."""
    return tuple(np.asarray(p, dtype=float).ravel().tolist())


def _keys(points) -> list:
    """``point_key`` of each row of an (n, d) array, from one ``tolist``
    call, or of each point of a sequence such as dict keys."""
    if not isinstance(points, np.ndarray):
        return [point_key(p) for p in points]
    return list(map(tuple, np.asarray(points, dtype=float).tolist()))


def locate(table, points) -> np.ndarray:
    """Index in ``table`` of the first point equal to each of ``points``
    (each an (n, d) array of rows or a sequence of points such as dict
    keys), or -1 where ``table`` has no such point. Keys are
    ``point_key``'s, so -0.0 equals 0.0."""
    keys = _keys(table)
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.array([first.get(k, -1) for k in _keys(points)], dtype=int)


def locate_all(table, points, error, message: str) -> np.ndarray:
    """``locate`` for points that must all be in ``table``: the first
    missing one raises ``error(message.format(its point_key))``."""
    idx = locate(table, points)
    if np.any(idx < 0):  # argmin finds the first -1
        raise error(message.format(point_key(points[np.argmin(idx)])))
    return idx


def values_at(table, values, points) -> np.ndarray:
    """``values``, given at the points of ``table``, at each of ``points``;
    MissingValue at a point that ``table`` lacks."""
    idx = locate_all(table, points, MissingValue, "no value at point {}")
    return np.asarray(values, dtype=float)[idx]


def check_distinct(points) -> None:
    """Refuse a table of points that repeats a point."""
    repeats = np.flatnonzero(locate(points, points) != np.arange(len(points)))
    if repeats.size:
        raise DuplicatePoint(
            f"point {point_key(points[repeats[0]])} appears twice")


def check_finite(error, what: str, *values) -> None:
    """Refuse NaN and infinities, which pass order checks; skip None."""
    if not all(np.isfinite(v).all() for v in values if v is not None):
        raise error(f"{what} contain non-finite values")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C")  # a copy, never the caller's
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finite support in R^dim."""

    dim: int
    points: np.ndarray   # (m, dim)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {self.dim}")
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points have shape {pts.shape}, expected (m, {self.dim})")
        if w.shape != (pts.shape[0],):
            raise DimensionMismatch(
                f"{pts.shape[0]} points but {w.size} weights")
        check_finite(DimensionMismatch, "points", pts)
        check_finite(MassNotOne, "weights", w)
        if np.any(w < 0):
            raise NegativeWeight(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise MassNotOne(f"weights sum to {w.sum()!r}")
        check_distinct(pts)
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    def __len__(self):
        return self.points.shape[0]

    def as_dict(self) -> dict:
        return {k: float(w) for k, w in zip(map(point_key, self.points),
                                            self.weights)}


def new_measure(dim: int, points, weights) -> DiscreteMeasure:
    """Build a DiscreteMeasure, renormalizing weights whose sum deviates
    from 1 by at most 1e-9; larger deviations raise MassNotOne, and
    DiscreteMeasure checks the rest.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise MassNotOne(f"weights sum to {total!r}, deviation exceeds 1e-9")
    return DiscreteMeasure(dim=int(dim), points=points, weights=w / total)


def dirac(point) -> DiscreteMeasure:
    """Unit mass at a single point."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    return DiscreteMeasure(dim=p.size, points=p.reshape(1, -1),
                           weights=np.array([1.0]))


def barycenter(m: DiscreteMeasure) -> np.ndarray:
    """Weighted mean of the support points."""
    return m.weights @ m.points


def integrate(values, m: DiscreteMeasure) -> float:
    """Integrate a function given as anything ``values_on`` takes."""
    return float(m.weights @ values_on(m.points, values))


@dataclass(frozen=True)
class MultiCoupling:
    """Joint mass tensor over the product of k measures' supports; the
    sums along each axis are its measure's weights within
    ``DERIVED_MASS_TOL``."""

    measures: tuple  # k DiscreteMeasures
    mass: np.ndarray  # k-dimensional tensor

    def __post_init__(self):
        measures = tuple(self.measures)
        t = np.asarray(self.mass, dtype=float)
        if t.shape != tuple(len(m) for m in measures):
            raise DimensionMismatch(
                f"tensor shape {t.shape} does not match the measures")
        if np.any(t < 0):
            raise NegativeWeight(f"negative mass entry {t.min()}")
        if abs(t.sum() - 1.0) > MASS_TOL:
            raise MassNotOne(f"total mass {t.sum()!r}")
        for i, m in enumerate(measures):
            others = tuple(k for k in range(t.ndim) if k != i)
            err = np.max(np.abs(t.sum(axis=others) - m.weights))
            if err > DERIVED_MASS_TOL:
                raise MassNotOne(f"marginal {i} residual {err:.3e} "
                                 f"exceeds {DERIVED_MASS_TOL}")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "mass", _freeze(t))


class Coupling(MultiCoupling):
    """The two-measure MultiCoupling: a (len(left), len(right)) mass
    matrix whose row and column sums are left's and right's weights."""

    def __init__(self, left: DiscreteMeasure, right: DiscreteMeasure,
                 mass):
        super().__init__((left, right), mass)

    @property
    def left(self) -> DiscreteMeasure:
        return self.measures[0]

    @property
    def right(self) -> DiscreteMeasure:
        return self.measures[1]


def marginals(c: Coupling) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Row-sum and column-sum measures over the stored supports."""
    row = c.mass.sum(axis=1)
    col = c.mass.sum(axis=0)
    left = DiscreteMeasure(c.left.dim, c.left.points, row / row.sum())
    right = DiscreteMeasure(c.right.dim, c.right.points, col / col.sum())
    return left, right


def union_points(*arrays) -> np.ndarray:
    """Stack point arrays, keeping the first occurrence of each point, in
    order."""
    rows = np.vstack([np.atleast_2d(np.asarray(a, dtype=float))
                      for a in arrays])
    first = locate(rows, rows)
    return rows[first == np.arange(first.size)]


def values_on(points: np.ndarray, values) -> np.ndarray:
    """Realize a function (an evaluator with ``.on``, a callable, an
    exact-point dict, or an aligned array) as an array over the points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if hasattr(values, "on"):
        return values.on(points)
    if callable(values):
        return np.array([float(values(p)) for p in points])
    if isinstance(values, Mapping):
        return values_at(values, [float(v) for v in values.values()], points)
    arr = np.asarray(values, dtype=float)
    if arr.shape != (points.shape[0],):
        raise DimensionMismatch(
            f"value array has shape {arr.shape}, expected "
            f"({points.shape[0]},)")
    return arr.copy()


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------

_BUILTIN_KINDS = ("euclidean", "sq_euclidean", "manhattan",
                  "truncated_euclidean", "linear", "matrix",
                  "conical_combination", "custom")


@dataclass(frozen=True)
class CostSpec:
    """Evaluatable two-point cost c(x, y).

    Builtin closed forms plus an explicit grid matrix; conical combinations
    take nonnegative weights. The ``custom`` kind wraps an arbitrary callable
    and is not JSON-serializable (library/test use only).

    ``lipschitz`` and ``growth`` are optional metadata: a Lipschitz constant
    L and a constant Λ with |c(x, y)| <= Λ * ||x - y||.
    """

    kind: str
    threshold: float | None = None
    a: np.ndarray | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    terms: tuple = ()
    fn: Callable | None = None
    lipschitz: float | None = None
    growth: float | None = None

    def __post_init__(self):
        if self.kind not in _BUILTIN_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        check_finite(NonFinite, f"{self.kind} cost parameters", self.a,
                     self.threshold, self.grid, self.values, self.lipschitz,
                     self.growth, *(w for w, _ in self.terms))
        if self.kind == "truncated_euclidean" and (
                self.threshold is None or self.threshold <= 0):
            raise ValueError("truncated_euclidean needs a positive threshold")
        if self.kind == "linear":
            object.__setattr__(self, "a",
                               _freeze(np.atleast_1d(self.a)))
        if self.kind == "matrix":
            g = np.atleast_2d(np.asarray(self.grid, dtype=float))
            v = np.asarray(self.values, dtype=float)
            if v.shape != (g.shape[0], g.shape[0]):
                raise DimensionMismatch(
                    f"matrix values shape {v.shape} for {g.shape[0]} nodes")
            check_distinct(g)
            object.__setattr__(self, "grid", _freeze(g))
            object.__setattr__(self, "values", _freeze(v))
        if self.kind == "conical_combination":
            for w, t in self.terms:
                if w < 0:
                    raise NegativeWeight(f"conical weight {w} is negative")
                if not isinstance(t, CostSpec):
                    raise ValueError("conical terms must be CostSpec")
            object.__setattr__(self, "terms", tuple(self.terms))
        if self.kind == "custom" and not callable(self.fn):
            raise ValueError("custom cost needs a callable")

    # -- constructors --

    @classmethod
    def euclidean(cls):
        return cls("euclidean", lipschitz=1.0, growth=1.0)

    @classmethod
    def sq_euclidean(cls, lipschitz=None):
        return cls("sq_euclidean", lipschitz=lipschitz)

    @classmethod
    def manhattan(cls, lipschitz=None, growth=None):
        return cls("manhattan", lipschitz=lipschitz, growth=growth)

    @classmethod
    def truncated_euclidean(cls, threshold: float):
        return cls("truncated_euclidean", threshold=float(threshold),
                   lipschitz=1.0, growth=1.0)

    @classmethod
    def linear(cls, a):
        norm = float(np.linalg.norm(np.atleast_1d(a)))
        return cls("linear", a=np.atleast_1d(np.asarray(a, dtype=float)),
                   lipschitz=norm, growth=norm)

    @classmethod
    def zero(cls, dim: int = 1):
        return cls.linear(np.zeros(dim))

    @classmethod
    def matrix(cls, grid, values):
        return cls("matrix", grid=np.asarray(grid, dtype=float),
                   values=np.asarray(values, dtype=float))

    @classmethod
    def conical(cls, terms):
        terms = tuple((float(w), t) for w, t in terms)
        lip = None
        grw = None
        if all(t.lipschitz is not None for _, t in terms):
            lip = sum(w * t.lipschitz for w, t in terms)
        if all(t.growth is not None for _, t in terms):
            grw = sum(w * t.growth for w, t in terms)
        return cls("conical_combination", terms=terms,
                   lipschitz=lip, growth=grw)

    @classmethod
    def custom(cls, fn: Callable, lipschitz=None, growth=None):
        return cls("custom", fn=fn, lipschitz=lipschitz, growth=growth)

    # -- evaluation --

    def __call__(self, x, y) -> float:
        return evaluate_cost(self, x, y)

    def pairwise(self, X, Y) -> np.ndarray:
        """Cost matrix over two point arrays, shape (len(X), len(Y)).

        Every cost kind is evaluated here and only here; ``c(x, y)`` is
        the one-pair case."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != Y.shape[1]:
            raise DimensionMismatch(
                f"point dims {X.shape[1]} vs {Y.shape[1]}")
        k = self.kind
        if k == "euclidean":
            d = X[:, None, :] - Y[None, :, :]
            return np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        if k == "sq_euclidean":
            d = X[:, None, :] - Y[None, :, :]
            return np.einsum("ijk,ijk->ij", d, d)
        if k == "manhattan":
            return np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
        if k == "truncated_euclidean":
            d = X[:, None, :] - Y[None, :, :]
            return np.minimum(np.sqrt(np.einsum("ijk,ijk->ij", d, d)),
                              self.threshold)
        if k == "linear":
            if self.a.size != X.shape[1]:
                raise DimensionMismatch(
                    f"linear cost vector has dim {self.a.size}")
            return (X @ self.a)[:, None] - (Y @ self.a)[None, :]
        if k == "matrix":
            idx = locate_all(self.grid, np.vstack([X, Y]), OffGrid,
                             "point {} is not a grid node")
            return self.values[np.ix_(idx[:len(X)], idx[len(X):])]
        if k == "conical_combination":
            out = np.zeros((X.shape[0], Y.shape[0]))
            for w, t in self.terms:
                out += w * t.pairwise(X, Y)
            return out
        # custom
        out = np.empty((X.shape[0], Y.shape[0]))
        for i, xi in enumerate(X):
            for j, yj in enumerate(Y):
                out[i, j] = float(self.fn(xi, yj))
        return out


def evaluate_cost(c: CostSpec, x, y) -> float:
    """c(x, y) for a single pair of points: the one-pair case of
    ``CostSpec.pairwise``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise DimensionMismatch(f"point dims {x.shape} vs {y.shape}")
    return float(c.pairwise(x[None], y[None])[0, 0])


# ---------------------------------------------------------------------------
# k-point costs for multimarginal transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiCost:
    """Cost on k-tuples of points.

    ``pairwise_sum`` interprets a two-point cost as sum over all pairs
    i < j of c(x_i, x_j); ``custom`` wraps a k-ary callable.
    """

    kind: str
    base: CostSpec | None = None
    fn: Callable | None = None

    @classmethod
    def pairwise_sum(cls, base: CostSpec):
        return cls("pairwise_sum", base=base)

    @classmethod
    def custom(cls, fn: Callable):
        return cls("custom", fn=fn)

    def __call__(self, points) -> float:
        """c(x_1, ..., x_k): ``tensor`` on one-point supports."""
        return self.tensor(points).item()

    def tensor(self, supports) -> np.ndarray:
        """Dense cost tensor over the product of supports."""
        sups = [np.atleast_2d(np.asarray(s, dtype=float)) for s in supports]
        shape = tuple(s.shape[0] for s in sups)
        if self.kind == "pairwise_sum":
            out = np.zeros(shape)
            k = len(sups)
            for i in range(k):
                for j in range(i + 1, k):
                    block = self.base.pairwise(sups[i], sups[j])
                    idx = [None] * k
                    idx[i] = slice(None)
                    idx[j] = slice(None)
                    out += block[tuple(idx)]
            return out
        out = np.empty(shape)
        for idx in itertools.product(*(range(n) for n in shape)):
            out[idx] = self.fn([sups[i][idx[i]] for i in range(len(sups))])
        return out


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------

def measure_to_json(m: DiscreteMeasure) -> dict:
    return {"dim": m.dim, "points": m.points.tolist(),
            "weights": m.weights.tolist()}


def cost_to_json(c: CostSpec) -> dict:
    if c.kind == "custom":
        raise ValueError("custom costs are not serializable")
    out = {"kind": c.kind}
    if c.kind == "truncated_euclidean":
        out["threshold"] = c.threshold
    if c.kind == "linear":
        out["a"] = c.a.tolist()
    if c.kind == "matrix":
        out["grid"] = c.grid.tolist()
        out["values"] = c.values.tolist()
    if c.kind == "conical_combination":
        out["terms"] = [{"weight": w, "cost": cost_to_json(t)}
                        for w, t in c.terms]
    if c.lipschitz is not None:
        out["lipschitz"] = c.lipschitz
    if c.growth is not None:
        out["growth"] = c.growth
    return out


def cost_from_json(obj: Mapping) -> CostSpec:
    kind = obj["kind"]
    lip = obj.get("lipschitz")
    grw = obj.get("growth")
    if kind == "euclidean":
        return CostSpec.euclidean()
    if kind == "sq_euclidean":
        return CostSpec.sq_euclidean(lipschitz=lip)
    if kind == "manhattan":
        return CostSpec.manhattan(lipschitz=lip, growth=grw)
    if kind == "truncated_euclidean":
        return CostSpec.truncated_euclidean(obj["threshold"])
    if kind == "linear":
        return CostSpec.linear(obj["a"])
    if kind == "matrix":
        return CostSpec.matrix(obj["grid"], obj["values"])
    if kind == "conical_combination":
        return CostSpec.conical(
            [(t["weight"], cost_from_json(t["cost"])) for t in obj["terms"]])
    raise ValueError(f"unknown cost kind {kind!r}")
