"""Dense two-phase simplex with anti-cycling pivoting.

Self-contained: no external LP dependency. Designed for desk-scale problems
(a few thousand variables) where auditability beats speed. Free variables
are split into differences of nonnegative parts internally; the split is
invisible to callers.

Constraints come in matrix form only: an (m, n) array ``A``, a length-m
sequence ``rels`` of ``LE``/``EQ``/``GE`` and a length-m right-hand side
``b``, read row by row as ``A[i] @ x  rels[i]  b[i]``. The problem
builders (coupling marginals, martingale barycenters, gamma rows) form
their rows as one array and hand it over as it is.

Pivot rule: the entering column is the smallest eligible index with a
negative reduced cost; the leaving row is chosen lexicographically on the
ratios of [rhs | basis-inverse] rows, which breaks every tie without a
tolerance and rules out cycling. The basis-inverse block is carried in the
tableau; derived rows are recomputed from the basis periodically and the
whole tableau is rebuilt exactly if a basis ever repeats. On numerical
breakdown the solve restarts on a fixed ladder of pivot tolerances.

Conventions for the reported dual vector y (one multiplier per constraint):
  sense=min: value = b.y, y <= 0 on "<=" rows, y >= 0 on ">=" rows;
  sense=max: value = b.y, y >= 0 on "<=" rows, y <= 0 on ">=" rows.
Equality rows are unrestricted. When infeasible, ``farkas`` holds a ray y
with b.y > 0 whose combination of rows is nonpositive on every admissible
variable direction, proving emptiness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import NumericalBreakdown

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs threaded through every LP-backed operation."""

    pivot_tol: float = 1e-11   # smallest admissible pivot magnitude
    feas_tol: float = 1e-9     # feasibility / reduced-cost threshold
    max_iterations: int = 0    # 0 = automatic cap from problem size

    def iteration_cap(self, m: int, n: int) -> int:
        if self.max_iterations:
            return self.max_iterations
        return 2000 + 200 * m + 20 * n


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class LinearProgram:
    """max/min c.x subject to A x (rels) b row by row; x_j >= 0 unless
    free. The arrays are stored as given (as floats); do not mutate them."""

    objective: np.ndarray
    sense: str
    A: np.ndarray
    rels: Sequence[str]
    b: np.ndarray
    free: np.ndarray | None = None  # bool mask; default all False

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        A = np.asarray(self.A, dtype=float)
        rels = np.asarray(self.rels, dtype=str)
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or rels.shape != b.shape:
            raise ValueError(f"rels and b must be vectors of one length, "
                             f"got shapes {rels.shape} and {b.shape}")
        # a reshape would let a wrong-shaped A of the right size through
        if A.ndim != 2 or A.shape != (b.size, c.size):
            raise ValueError(f"A has shape {A.shape}, expected "
                             f"{(b.size, c.size)}")
        if not set(rels.tolist()) <= set(_RELATIONS):
            raise ValueError(f"relation must be one of {_RELATIONS}")
        if not np.isfinite(b).all():
            raise ValueError("rhs must be finite")
        fr = np.zeros(c.size, dtype=bool) if self.free is None \
            else np.asarray(self.free, dtype=bool)
        if fr.shape != c.shape:
            raise ValueError("free mask length mismatch")
        for name, value in (("objective", c), ("A", A), ("rels", rels),
                            ("b", b), ("free", fr)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.b.size


@dataclass
class LpSolution:
    status: str
    value: float | None = None
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    farkas: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0


@dataclass
class FeasibilityResult:
    feasible: bool
    primal: np.ndarray | None = None
    certificate: np.ndarray | None = None


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

class _Standardized:
    """User LP rewritten as  min c.z  s.t.  A z = b, z >= 0.

    Column order: user variable j gives column +j, followed at once by
    -j when j is free; then one slack column per inequality row, in row
    order (+1 on "<=" rows, -1 on ">=" rows)."""

    def __init__(self, lp: LinearProgram):
        A, b = lp.A, lp.b
        m, n = A.shape
        sign = -1.0 if lp.sense == "max" else 1.0
        reps = np.where(lp.free, 2, 1)
        self.var_of = np.repeat(np.arange(n), reps)  # user var per column
        self.var_sign = np.ones(self.var_of.size)
        self.var_sign[(np.cumsum(reps) - 1)[lp.free]] = -1.0
        self.n_struct = self.var_of.size
        self.slack_row = np.flatnonzero(lp.rels != EQ)
        S = np.zeros((m, self.slack_row.size))
        S[self.slack_row, np.arange(self.slack_row.size)] = \
            np.where(lp.rels[self.slack_row] == LE, 1.0, -1.0)
        self.A = np.hstack([A[:, self.var_of] * self.var_sign, S])
        self.c = np.concatenate([sign * lp.objective[self.var_of]
                                 * self.var_sign, np.zeros(S.shape[1])])
        self.b = b.copy()
        self.m = m
        self.n_user = n
        self.n_total = self.A.shape[1]

    def user_primal(self, z: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n_user)
        np.add.at(x, self.var_of, self.var_sign * z[:self.n_struct])
        return x


# ---------------------------------------------------------------------------
# tableau machinery
#
# column layout: [0, n_cols) real columns, [n_cols, n_cols + m) the
# basis-inverse block (in the sign-flipped row frame), last column rhs;
# last row holds the reduced costs and minus the objective value.
# ---------------------------------------------------------------------------

def _solve_or_lstsq(B, rhs):
    try:
        out = np.linalg.solve(B, rhs)
        if np.isfinite(out).all():
            return out
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(B, rhs, rcond=None)[0]


def _pivot(T: np.ndarray, basis: list, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def _refresh_tableau(T, n_cols, basis, M, b, costs, full=False):
    """Recompute the derived tableau content exactly from the basis:
    always the rhs column and reduced-cost row; with ``full`` also the
    matrix block, resetting the lexicographic block to the identity (a
    fresh, exactly valid perturbation state for the current tableau).
    A singular basis raises: continuing on least-squares output would
    poison every later pivot decision."""
    B = M[:, basis]
    try:
        if full:
            m = len(basis)
            sol = np.linalg.solve(B, np.hstack([M, b[:, None]]))
            T[:-1, :n_cols] = sol[:, :-1]
            T[:-1, basis] = 0.0
            T[range(m), basis] = 1.0
            T[:-1, n_cols:-1] = np.eye(m)
            xb = sol[:, -1]
        else:
            xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, costs[basis])
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("basis became singular during refresh")
    if not (np.isfinite(xb).all() and np.isfinite(y).all()):
        raise NumericalBreakdown("basis is numerically singular")
    T[:-1, -1] = xb
    T[-1, :n_cols] = costs - M.T @ y
    T[-1, basis] = 0.0
    T[-1, n_cols:-1] = 0.0
    T[-1, -1] = -float(costs[basis] @ xb)


def _make_refresh(n_cols, M, b, costs):
    def _do(T, basis, full=False):
        _refresh_tableau(T, n_cols, basis, M, b, costs, full=full)
    return _do


def _lex_leaving(T, n_cols, basis, rows, col, m):
    """Lexicographic ratio test over [rhs | basis-inverse] rows.

    Degenerate rows may carry tiny negative rhs after a refresh; the rhs
    component is clamped so steps stay degenerate rather than infeasible.
    """
    cand = rows
    vals = np.maximum(T[cand, -1], 0.0) / col[cand]
    best = vals.min()
    cand = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
    k = 0
    while cand.size > 1 and k < m:
        vals = T[cand, n_cols + k] / col[cand]
        best = vals.min()
        cand = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
        k += 1
    if cand.size > 1:
        cand = cand[np.argsort([basis[i] for i in cand])]
    return int(cand[0])


def _pivot_loop(T, n_cols, basis, allowed, cfg, cap, phase,
                refresh=None):
    """Pivot to optimality. Entering: smallest eligible index with reduced
    cost below -feas_tol. Leaving: lexicographic. Returns
    ("optimal" | "unbounded", iterations, entering column or None)."""
    it = 0
    m = len(basis)
    period = max(100, 2 * m)
    seen: dict = {}
    rebuilds = 0
    while True:
        it += 1
        if it > cap:
            raise NumericalBreakdown(
                f"phase {phase}: iteration cap {cap} exceeded")
        if refresh is not None:
            key = hash(tuple(basis))
            if key in seen:
                # impossible under exact pivots; rebuild exactly and retry
                rebuilds += 1
                if rebuilds > 5:
                    raise NumericalBreakdown(
                        f"phase {phase}: cycling persists after "
                        f"{rebuilds - 1} exact rebuilds")
                refresh(T, basis, full=True)
                seen = {}
            elif it % period == 0:
                # periodic full rebuild: matrix-entry drift would otherwise
                # feed the ratio test stale pivots
                refresh(T, basis, full=True)
            seen[key] = it
        z = T[-1, :n_cols]
        entering = np.flatnonzero(allowed & (z < -cfg.feas_tol))
        if entering.size == 0:
            return "optimal", it, None
        j = int(entering[0])
        col = T[:-1, j]
        rows = np.flatnonzero(col > cfg.pivot_tol)
        if rows.size == 0:
            if phase == 1:
                # the phase-1 objective is bounded below by zero, so a
                # missing leaving row means pivots were lost to tolerance
                raise NumericalBreakdown(
                    "phase 1: no admissible pivot above tolerance")
            return "unbounded", it, j
        r = _lex_leaving(T, n_cols, basis, rows, col, m)
        _pivot(T, basis, r, j)


def _phase1(std: _Standardized, cfg: SolverConfig):
    """Find a basic feasible point or a Farkas certificate.

    Returns (status, T, basis, M_aug, n_art, farkas, iterations). M_aug is
    the unflipped standard matrix with artificial columns appended;
    artificials stay in the basis at level zero when rows are redundant,
    so no rows are ever deleted.
    """
    m, n = std.m, std.n_total
    flip = np.where(std.b < 0, -1.0, 1.0)
    FA = std.A * flip[:, None]
    fb = std.b * flip

    # a slack column with +1 coefficient after flipping can seed the basis;
    # every other row gets an artificial
    basis = np.full(m, -1)
    slack_col = std.n_struct + np.arange(std.slack_row.size)
    seeds = std.A[std.slack_row, slack_col] * flip[std.slack_row] > 0
    basis[std.slack_row[seeds]] = slack_col[seeds]
    art_rows = np.flatnonzero(basis < 0)
    basis[art_rows] = n + np.arange(art_rows.size)
    basis = basis.tolist()

    n_art = art_rows.size
    E = np.eye(m)[:, art_rows]
    M = np.hstack([FA, E])                       # flipped frame
    M_aug = np.hstack([std.A, flip[:, None] * E])  # unflipped frame
    n_cols = M.shape[1]

    # tableau with the basis-inverse block; the initial basis is the
    # identity in the flipped frame
    T = np.zeros((m + 1, n_cols + m + 1))
    T[:-1, :n_cols] = M
    T[:-1, n_cols:-1] = np.eye(m)
    T[:-1, -1] = fb
    c1 = np.zeros(n_cols)
    c1[n:] = 1.0
    for i in art_rows:
        T[-1] -= T[i]
    T[-1, n:n_cols] = 0.0
    T[-1, n_cols:-1] = 0.0

    iterations = 0
    if n_art:
        allowed = np.zeros(n_cols, dtype=bool)
        allowed[:n] = True
        cap = cfg.iteration_cap(m, n_cols)
        tol = cfg.feas_tol * (1.0 + np.abs(fb).max(initial=0.0))
        refresh = _make_refresh(n_cols, M, fb, c1)
        _, iterations, _ = _pivot_loop(T, n_cols, basis, allowed, cfg,
                                       cap, 1, refresh)
        # settle the verdict on basis-exact values; if artificials still
        # carry mass, re-pivot with a strict entering threshold
        strict = replace(cfg, feas_tol=1e-13)
        art_level = np.inf
        for attempt in range(3):
            _refresh_tableau(T, n_cols, basis, M, fb, c1)
            art_level = sum(max(float(T[i, -1]), 0.0)
                            for i in range(m) if basis[i] >= n)
            if art_level <= tol:
                break
            _, extra, _ = _pivot_loop(T, n_cols, basis, allowed, strict,
                                      cap, 1, refresh)
            iterations += extra

        if art_level > tol:
            B = M[:, basis]
            y = _solve_or_lstsq(B.T, c1[basis])
            farkas = flip * y
            viol = farkas @ std.b
            comb = std.A.T @ farkas
            # b.y must stand clear of the rounding in its own sum: a ray
            # of huge multipliers can show a tiny positive b.y that is
            # pure cancellation noise
            noise = 1e-9 * float(np.abs(farkas) @ np.abs(std.b))
            if viol <= noise or comb.max(initial=0.0) > 1e-7 * (1.0 + viol):
                raise NumericalBreakdown(
                    "infeasibility certificate failed validation")
            return "infeasible", None, None, None, None, farkas / viol, \
                iterations

        # pivot leftover artificials out on honest (freshly rebuilt)
        # entries; rows without one are redundant and keep their artificial
        # pinned at level zero for good
        if any(basis[i] >= n for i in range(m)):
            _refresh_tableau(T, n_cols, basis, M, fb, c1, full=True)
            for i in range(m):
                if basis[i] < n:
                    continue
                row = T[i, :n]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > 1e-7:
                    _pivot(T, basis, i, j)

    return "feasible", T, basis, M_aug, n_art, None, iterations


def _validate_ray(M_aug, c_aug, n_real, basis, j, cfg) -> None:
    """Check the phase-2 unboundedness ray of entering column j on the
    original data: z_j = 1, z_B = -B^-1 A_j. A near-singular basis can hide
    an admissible pivot below pivot_tol; such a ray fails here and the solve
    is retried on the next rung of the tolerance ladder."""
    w = _solve_or_lstsq(M_aug[:, basis], M_aug[:, j])
    z = np.zeros(M_aug.shape[1])
    z[basis] = -w
    z[j] = 1.0
    # artificial columns carry no mass in the real system, so the residual
    # is taken over the real columns only
    resid = np.abs(M_aug[:, :n_real] @ z[:n_real]).max(initial=0.0)
    if w.max(initial=0.0) > cfg.pivot_tol or resid > cfg.feas_tol \
            or not c_aug @ z < -cfg.feas_tol:
        raise NumericalBreakdown("unboundedness ray failed validation")


def _extract_primal(M_aug, b, n_real, T, basis, cfg) -> np.ndarray:
    """Basic solution from the final basis, refined against the original
    data when the basis is well behaved, else read off the tableau. The
    result is validated on the augmented standard system and truncated to
    the real (non-artificial) columns."""
    scale = 1.0 + np.abs(b).max(initial=0.0)
    candidates = []
    B = M_aug[:, basis]
    try:
        xb = np.linalg.solve(B, b)
        if np.isfinite(xb).all() and xb.min(initial=0.0) > -1e-6 * scale:
            candidates.append(xb)
    except np.linalg.LinAlgError:
        pass
    candidates.append(T[:len(basis), -1])
    thresh = max(1e-8, cfg.feas_tol) * scale
    for xb in candidates:
        z = np.zeros(M_aug.shape[1])
        z[basis] = np.maximum(xb, 0.0)
        # artificial columns must carry no mass: they are bookkeeping, not
        # part of the solved system
        if np.max(z[n_real:], initial=0.0) > thresh:
            continue
        if np.max(np.abs(M_aug @ z - b), initial=0.0) <= thresh:
            return z[:n_real]
    raise NumericalBreakdown(
        "final basis does not reproduce a feasible point")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _escalation(config: SolverConfig):
    """Deterministic ladder of pivot tolerances for breakdown recovery:
    drift-scale noise stops being an admissible pivot once the floor is
    raised."""
    yield config
    for pt in (1e-9, 1e-8, 1e-7):
        if pt > config.pivot_tol:
            yield replace(config, pivot_tol=pt)


def solve(lp: LinearProgram, config: SolverConfig = DEFAULT_CONFIG) \
        -> LpSolution:
    """Solve the LP; deterministic for identical inputs."""
    last = None
    for cfg in _escalation(config):
        try:
            return _solve_once(lp, cfg)
        except NumericalBreakdown as e:
            last = e
    raise last


def _solve_once(lp: LinearProgram, config: SolverConfig) -> LpSolution:
    std = _Standardized(lp)
    status, T, basis, M_aug, n_art, farkas, it1 = _phase1(std, config)
    if status == "infeasible":
        return LpSolution(status=INFEASIBLE, farkas=farkas, iterations=it1)

    n = std.n_total
    n_cols = n + n_art
    c_aug = np.concatenate([std.c, np.zeros(n_art)])
    allowed = np.zeros(n_cols, dtype=bool)
    allowed[:n] = True  # artificials may stay basic at zero, never enter
    cap = config.iteration_cap(std.m, n_cols)
    it2 = 0
    refresh = _make_refresh(n_cols, M_aug, std.b, c_aug)
    # pivot to optimality; the first refresh is full, installing a fresh
    # lexicographic state, later ones keep drift from ending phase 2 early
    for round_ in range(4):
        _refresh_tableau(T, n_cols, basis, M_aug, std.b, c_aug,
                         full=(round_ == 0))
        if not np.any(T[-1, :n] < -config.feas_tol):
            break
        outcome, extra, j = _pivot_loop(T, n_cols, basis, allowed, config,
                                        cap, 2, refresh)
        it2 += extra
        if outcome == "unbounded":
            _validate_ray(M_aug, c_aug, n, basis, j, config)
            return LpSolution(status=UNBOUNDED, iterations=it1 + it2)

    # refine primal and dual values from the final basis using the
    # original, drift-free data
    z = _extract_primal(M_aug, std.b, n, T, basis, config)
    B = M_aug[:, basis]
    y = _solve_or_lstsq(B.T, c_aug[basis])
    value_int = float(std.c @ z)

    x_user = std.user_primal(z)
    if lp.sense == "max":
        value = -value_int
        y_user = -y
    else:
        value = value_int
        y_user = y.copy()

    sol = LpSolution(status=OPTIMAL, value=value, primal=x_user,
                     dual=y_user, iterations=it1 + it2)
    sol.residuals = residual_report(lp, sol)
    return sol


def residual_report(lp: LinearProgram, sol: LpSolution) -> dict:
    """Primal/dual feasibility, duality-gap and complementary-slackness
    residuals of an optimal solution, measured on the user-level data."""
    x, y, free = sol.primal, sol.dual, lp.free
    le, ge = lp.rels == LE, lp.rels == GE
    gap = lp.A @ x - lp.b
    row_viol = np.where(le, gap, np.where(ge, -gap, np.abs(gap)))
    primal = max(0.0, float(row_viol.max(initial=0.0)),
                 float(np.max(-x[~free], initial=0.0)))
    # dual signs: y <= 0 on "<=" rows and y >= 0 on ">=" rows (min)
    y_min = -y if lp.sense == "max" else y
    dual_sign = max(0.0, float(y_min[le].max(initial=0.0)),
                    float((-y_min[ge]).max(initial=0.0)))
    cs_rows = float(np.abs(y * gap).max(initial=0.0))

    # reduced costs: r = c - A^T y (min) must be >= 0 on x >= 0, = 0 on free
    r = lp.objective - lp.A.T @ y
    if lp.sense == "max":
        r = -r
    dual_red = max(0.0, float(np.abs(r[free]).max(initial=0.0)),
                   float((-r[~free]).max(initial=0.0)))
    cs_vars = float(np.abs(x * r)[~free].max(initial=0.0))
    gap = abs(float(lp.objective @ x) - float(lp.b @ y))
    return {
        "primal": primal,
        "dual": max(dual_sign, dual_red),
        "gap": float(gap),
        "complementary_slackness": max(cs_rows, cs_vars),
    }


def check_feasibility(A, rels, b, free=None,
                      config: SolverConfig = DEFAULT_CONFIG) \
        -> FeasibilityResult:
    """Phase-one feasibility of {A x (rels) b, x respects bounds}.

    Returns a feasible point or a Farkas combination proving emptiness.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    lp = LinearProgram(np.zeros(A.shape[1]), "min", A, rels, b, free)
    last = None
    for cfg in _escalation(config):
        try:
            return _feasibility_once(lp, cfg)
        except NumericalBreakdown as e:
            last = e
    raise last


def _feasibility_once(lp: LinearProgram, config: SolverConfig) \
        -> FeasibilityResult:
    std = _Standardized(lp)
    status, T, basis, M_aug, n_art, farkas, _ = _phase1(std, config)
    if status == "infeasible":
        return FeasibilityResult(feasible=False, certificate=farkas)
    z = _extract_primal(M_aug, std.b, std.n_total, T, basis, config)
    return FeasibilityResult(feasible=True,
                             primal=std.user_primal(z))
