"""Function evaluators, convexity moduli and sampling domains used by the
martingale-transport function classes.

The evaluator registry (quadratic, abs_norm, neg_quadratic, max_affine,
bclass_sup, samples) is part of the CLI JSON contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyAtoms, GridTooCoarse, NonFinite
from .measures import (
    CostSpec,
    check_distinct,
    check_finite,
    cost_from_json,
    cost_to_json,
    values_at,
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain used for sampling and lattices."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        check_finite(NonFinite, "box bounds", lo, hi)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise DimensionMismatch("box needs lo < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def lattice(self, counts) -> np.ndarray:
        """Regular lattice points in C-order, shape (prod(counts), dim)."""
        counts = np.atleast_1d(np.asarray(counts, dtype=int))
        if counts.size == 1 and self.dim > 1:
            counts = np.full(self.dim, counts[0])
        if counts.size != self.dim:
            raise DimensionMismatch("one count per axis required")
        axes = [np.linspace(self.lo[i], self.hi[i], counts[i])
                for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class Grid:
    """Box lattice with per-axis counts; knows which nodes are interior."""

    box: Box
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if len(counts) == 1 and self.box.dim > 1:
            counts = counts * self.box.dim
        if len(counts) != self.box.dim:
            raise DimensionMismatch("one count per axis required")
        if any(c < 2 for c in counts):
            raise GridTooCoarse("need at least two nodes per axis")
        object.__setattr__(self, "counts", counts)

    def points(self) -> np.ndarray:
        return self.box.lattice(self.counts)

    def interior_mask(self) -> np.ndarray:
        idx = np.unravel_index(np.arange(int(np.prod(self.counts))),
                               self.counts)
        mask = np.ones(int(np.prod(self.counts)), dtype=bool)
        for axis, c in enumerate(self.counts):
            mask &= (idx[axis] > 0) & (idx[axis] < c - 1)
        return mask


_EVALUATOR_KINDS = ("quadratic", "abs_norm", "neg_quadratic", "max_affine",
                    "bclass_sup", "samples")


@dataclass(frozen=True)
class FunctionEvaluator:
    """Point function from the registry, or explicit samples on a finite
    set (exact-point lookup).

    ``on`` evaluates every kind on an (n, d) point array; a call f(x) is
    its one-point case. Every kind but abs_norm and neg_quadratic is
    defined in one dimension, that of its arrays (``dim``); points of
    another dimension raise DimensionMismatch."""

    kind: str
    Q: np.ndarray | None = None
    b: np.ndarray | None = None
    c: float = 0.0
    pieces: tuple = ()          # ((slope, intercept), ...)
    atoms: tuple = ()           # ((y, a, b), ...) for bclass_sup
    cost: CostSpec | None = None
    points: np.ndarray | None = None
    values: np.ndarray | None = None
    dim: int | None = field(default=None, init=False)

    def __post_init__(self):
        if self.kind not in _EVALUATOR_KINDS:
            raise ValueError(f"unknown evaluator kind {self.kind!r}")
        if self.kind == "samples":
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (pts.shape[0],):
                raise DimensionMismatch("samples: one value per point")
            check_distinct(pts)
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "values", vals)
        check_finite(NonFinite, f"{self.kind} evaluator arrays", self.c,
                     self.Q, self.b, self.points, self.values,
                     *(v for t in self.pieces + self.atoms for v in t))
        object.__setattr__(self, "dim", self._point_dim())

    def _point_dim(self) -> int | None:
        """The one dimension the kind's arrays give, or None for a kind
        defined in every dimension; arrays that disagree raise."""
        k = self.kind
        if k == "quadratic":
            sizes = {*self.Q.shape, self.b.size}
        elif k == "max_affine":
            sizes = {s.size for s, _ in self.pieces}
        elif k == "bclass_sup":
            sizes = {v.size for y, a, _ in self.atoms for v in (y, a)}
        elif k == "samples":
            sizes = {self.points.shape[1]}
        else:
            return None
        if len(sizes) != 1:
            raise DimensionMismatch(f"{k}: array dimensions {sorted(sizes)} "
                                    f"disagree")
        return sizes.pop()

    # -- constructors --

    @classmethod
    def quadratic(cls, Q, b, c=0.0):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        return cls("quadratic", Q=Q, b=b, c=float(c))

    @classmethod
    def abs_norm(cls):
        return cls("abs_norm")

    @classmethod
    def neg_quadratic(cls):
        return cls("neg_quadratic")

    @classmethod
    def max_affine(cls, pieces):
        pieces = tuple((np.atleast_1d(np.asarray(s, dtype=float)), float(b))
                       for s, b in pieces)
        if not pieces:
            raise EmptyAtoms("max_affine needs at least one piece")
        return cls("max_affine", pieces=pieces)

    @classmethod
    def bclass_sup(cls, atoms, cost: CostSpec):
        atoms = tuple((np.atleast_1d(np.asarray(y, dtype=float)),
                       np.atleast_1d(np.asarray(a, dtype=float)),
                       float(b)) for y, a, b in atoms)
        if not atoms:
            raise EmptyAtoms("bclass_sup needs at least one atom")
        return cls("bclass_sup", atoms=atoms, cost=cost)

    @classmethod
    def samples(cls, points, values):
        return cls("samples", points=np.asarray(points, dtype=float),
                   values=np.asarray(values, dtype=float))

    # -- evaluation --

    def __call__(self, x) -> float:
        """f(x): the one-point case of ``on``."""
        return float(self.on(np.reshape(x, (1, -1)))[0])

    def on(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of an (n, d) point array."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        k = self.kind
        if self.dim is not None and P.shape[1] != self.dim:
            raise DimensionMismatch(f"{k} evaluator is {self.dim}-D, got "
                                    f"{P.shape[1]}-D points")
        if k == "quadratic":
            return np.sum((P @ self.Q) * P, axis=1) + P @ self.b + self.c
        if k == "abs_norm":
            return np.linalg.norm(P, axis=1)
        if k == "neg_quadratic":
            return -np.sum(P * P, axis=1)
        if k == "max_affine":
            S = np.vstack([s for s, _ in self.pieces])
            B = np.array([b for _, b in self.pieces])
            return np.max(P @ S.T + B, axis=1)
        if k == "bclass_sup":
            # b_j - c(y_j, x) + <a_j, x - y_j>, maximised over the atoms
            Y = np.vstack([y for y, _, _ in self.atoms])
            A = np.vstack([a for _, a, _ in self.atoms])
            B = np.array([b for _, _, b in self.atoms])
            C = self.cost.pairwise(Y, P)
            lin = A @ P.T - np.sum(A * Y, axis=1)[:, None]
            return np.max(B[:, None] - C + lin, axis=0)
        return values_at(self.points, self.values, P)


@dataclass(frozen=True)
class ModulusSpec:
    """Modulus sigma on [0, diam]: power law, identically zero, or linear
    interpolation of samples. sigma(0) must vanish. sigma evaluates
    elementwise on an array of t and returns a float for a scalar t."""

    kind: str  # "power" | "zero" | "samples"
    p: float = 2.0
    scale: float = 1.0
    ts: np.ndarray | None = None
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("power", "zero", "samples"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        check_finite(NonFinite, "modulus parameters", self.p, self.scale,
                     self.ts, self.sigmas)
        if self.kind == "power" and self.p < 1.0:
            raise ValueError("power modulus needs p >= 1 so sigma(t) <= L*t")
        if self.kind == "samples":
            ts = np.asarray(self.ts, dtype=float)
            vals = np.asarray(self.sigmas, dtype=float)
            if ts.ndim != 1 or ts.size == 0 or ts.shape != vals.shape \
                    or ts[0] != 0.0 or (np.diff(ts) <= 0.0).any():
                raise DimensionMismatch(
                    "sample modulus needs matching non-empty arrays, ts "
                    "strictly increasing from t=0")
            if abs(vals[0]) > 0:
                raise ValueError("sigma(0) must be zero")
            object.__setattr__(self, "ts", ts)
            object.__setattr__(self, "sigmas", vals)

    @classmethod
    def power(cls, p: float, scale: float = 1.0):
        return cls("power", p=float(p), scale=float(scale))

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def from_samples(cls, ts, sigmas):
        return cls("samples", ts=np.asarray(ts, dtype=float),
                   sigmas=np.asarray(sigmas, dtype=float))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "power":
            out = self.scale * t ** self.p
        else:
            out = np.interp(t, self.ts, self.sigmas)
        return float(out) if out.ndim == 0 else out

    def growth_constant(self, diam: float) -> float:
        """Smallest L with |sigma(t)| <= L t on (0, diam]."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "power":
            return abs(self.scale) * diam ** (self.p - 1.0)
        ts = self.ts[self.ts > 0]
        return float(np.max(np.abs(self(ts)) / ts, initial=0.0))


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def evaluator_to_json(f: FunctionEvaluator) -> dict:
    k = f.kind
    if k == "quadratic":
        return {"kind": k, "Q": f.Q.tolist(), "b": f.b.tolist(), "c": f.c}
    if k in ("abs_norm", "neg_quadratic"):
        return {"kind": k}
    if k == "max_affine":
        return {"kind": k, "pieces": [{"slope": s.tolist(), "intercept": b}
                                      for s, b in f.pieces]}
    if k == "bclass_sup":
        return {"kind": k, "cost": cost_to_json(f.cost),
                "atoms": [{"y": y.tolist(), "a": a.tolist(), "b": b}
                          for y, a, b in f.atoms]}
    return {"kind": "samples", "points": f.points.tolist(),
            "values": f.values.tolist()}


def evaluator_from_json(obj: dict) -> FunctionEvaluator:
    k = obj["kind"]
    if k == "quadratic":
        return FunctionEvaluator.quadratic(obj["Q"], obj["b"],
                                           obj.get("c", 0.0))
    if k == "abs_norm":
        return FunctionEvaluator.abs_norm()
    if k == "neg_quadratic":
        return FunctionEvaluator.neg_quadratic()
    if k == "max_affine":
        return FunctionEvaluator.max_affine(
            [(p["slope"], p["intercept"]) for p in obj["pieces"]])
    if k == "bclass_sup":
        return FunctionEvaluator.bclass_sup(
            [(a["y"], a["a"], a["b"]) for a in obj["atoms"]],
            cost_from_json(obj["cost"]))
    if k == "samples":
        return FunctionEvaluator.samples(obj["points"], obj["values"])
    raise ValueError(f"unknown evaluator kind {k!r}")


def modulus_from_json(obj: dict) -> ModulusSpec:
    k = obj["kind"]
    if k == "power":
        return ModulusSpec.power(obj["p"], obj.get("scale", 1.0))
    if k == "zero":
        return ModulusSpec.zero()
    if k == "samples":
        return ModulusSpec.from_samples(obj["ts"], obj["values"])
    raise ValueError(f"unknown modulus kind {k!r}")


def box_from_json(obj) -> Box:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionMismatch("box JSON is a list of [lo, hi] per axis")
    return Box(arr[:, 0], arr[:, 1])
