"""Dense two-phase simplex with anti-cycling pivoting.

Self-contained: no external LP dependency. Designed for desk-scale problems
(a few thousand variables) where auditability beats speed.

Every LP has one form: minimise c.x subject to A x = b and x >= 0, with
``A`` an (m, n) array and ``b`` a length-m right-hand side. The problem
builders (coupling marginals, martingale barycenters, gamma rows) form
their rows as one array and hand it over as it is. A maximisation is the
minimisation of -c, a free variable the difference of two nonnegative
columns, and an inequality row a row plus a slack column that its caller
states: +1 for "<=", -1 for ">=". Every column is the caller's, so a
starting basis can name any of them. The solver has no settings: its
tolerances are the module constants ``FEAS_TOL``, ``PIVOT_TOL`` and
``RELATIVE_PIVOT``, and its iteration cap is derived from the problem
size.

Pivot rule: the entering column maximises z_j^2 / w_j over the columns
whose reduced cost z_j is below -FEAS_TOL (Devex pricing, Harris 1973;
ties go to the smallest index). The reference weights w are ones when a
pivot loop starts and after every refresh, and each pivot raises them to
max(w, alpha_r^2 w_q) along the normalised pivot row alpha_r, so pricing
costs O(n) per pivot and no pass over the tableau. A row may leave only if
its entry in the entering column exceeds max(PIVOT_TOL, RELATIVE_PIVOT
times the column's largest entry), as a pivot on a sliver of its column
takes the basis to numerical singularity (Harris 1973). Among those rows
the leaving row is chosen lexicographically on the ratios of
[rhs | basis-inverse] rows, which breaks every tie without a tolerance and
rules out cycling under any entering rule. Rows still tied on the rhs
ratio are compared only on the basis-inverse columns that are nonzero on
some tied row; a column of zeros there gives every tied row the same
ratio, so skipping it is exact and the choice is the one a full
column-by-column scan makes. The basis-inverse
block is carried in the tableau, which is rebuilt exactly from the basis
periodically. Both phases take an optimum on basis-exact values only: when
pricing a drifted tableau finds no entering column, the pivot loop
refreshes rhs and reduced costs from the basis and prices again, and it
returns once a fresh refresh prices none. The verdict, primal and duals
are read off that refresh; a fourth refresh that still prices an entering
column is a breakdown, and so is a pivot loop that runs past its
size-derived iteration cap. A numerical breakdown raises
``NumericalBreakdown`` out of the solve. ``LpSolution.iterations``
counts the pivots of both phases, and ``LpSolution.basis`` is an
optimum's final basis in the form of a starting basis, so a re-solve
from it makes no pivot.

Standard form negates every row whose right-hand side is negative, so
b >= 0. Both phases, ray validation and primal extraction work on one
matrix M = [A | I], built once per solve: the i-th of the last m columns
is the artificial of row i, a basis entry that never enters and so has no
tableau column. The primal is the standard solution without its
artificials, and the row duals and the Farkas ray are mapped back to the
user's rows by the row signs.

Phase 1 starts from the artificial identity, or from a starting basis
the caller passes to ``solve``: one entry per row, a column of A or -1
for an artificial on that row (the coupling LPs of ``ot`` pass their
least-cost staircase, the martingale LP of ``convex_order`` a staircase
on its marginal rows, the gamma LP of ``mot`` its slack). A starting
basis whose columns are the unit columns of their rows is the identity,
like the default: the tableau is M itself, with no basis solve. Any other
is installed by one full refresh, and an artificial that it puts below
-FEAS_TOL enters with coefficient -1 instead of +1, so it starts above
zero; -e_i is still an artificial for row i, and the Farkas ray and its
validation are the same. The basic values B^-1 b alone tell which
artificials to negate.
Phase 1 pivots only when some artificial starts above zero (for a
solved basis: above the feasibility tolerance, as the artificials of
redundant rows carry rounding); a feasible starting basis goes straight
to phase 2. Phase 2 opens with a full refresh, a fresh lexicographic state,
only if phase 1 pivoted since its last full refresh; otherwise the
tableau is still the exact install of its basis and a plain refresh of
rhs and reduced costs opens it. The primal is B^-1 b of the final
basis, checked against the rows of M.

There is one solve path. ``check_feasibility`` is ``solve`` with a zero
objective, which is optimal at every feasible basis: it runs no phase 2.

The reported dual vector y has one multiplier per row: value = b.y, y
free on every row, and c - A^T y >= 0. A row's sign comes from its slack
column: at zero cost, +e_i gives y_i <= 0 on a "<=" row and -e_i gives
y_i >= 0 on a ">=" row. When infeasible, ``farkas`` holds a ray y with
b.y > 0 and A^T y <= 0, proving emptiness. ``residual_report``
measures the primal, dual, gap and complementary-slackness residuals of an
optimal solution on the user's data when asked; ``solve`` itself checks
only that its primal meets the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown, ProductTooLarge

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# Smallest admissible pivot magnitude.
PIVOT_TOL = 1e-11
# Feasibility and reduced-cost threshold.
FEAS_TOL = 1e-9
# A row may leave only if its entry in the entering column exceeds this
# share of the column's largest entry (and PIVOT_TOL).
RELATIVE_PIVOT = 1e-7


def _iteration_cap(m: int, n: int) -> int:
    """Pricing passes per pivot loop on m rows over n standard columns;
    the artificials never enter and are not counted."""
    return 2000 + 200 * m + 20 * n


# Largest dense tableau a solve may build. At its peak a solve holds about
# five arrays of the tableau's size (the user's A, the standard matrix M,
# the tableau, and a full refresh's [A | b] and its solution: tracemalloc
# measured 4.6-4.8x on OT and 5.2-5.5x on martingale solves), so this keeps
# a solve under 750 MB; each pivot at this size sweeps ~17 M entries.
DENSE_BUDGET_BYTES = 128 * 2 ** 20


def check_size(n_rows: int, n_cols: int) -> None:
    """Refuse an LP of rows equality rows over cols variables when 8 (rows
    + 1)(cols + 2 rows + 1) bytes, its tableau plus a (rows + 1) x rows
    block for the artificial columns of M, exceed ``DENSE_BUDGET_BYTES``.
    Problem builders call it from the sizes alone, before the cost or the
    row matrix is allocated."""
    size = 8 * (n_rows + 1) * (n_cols + 2 * n_rows + 1)
    if size > DENSE_BUDGET_BYTES:
        raise ProductTooLarge(f"{n_rows} x {n_cols} LP needs {size >> 20} "
                              f"MiB, over {DENSE_BUDGET_BYTES >> 20} MiB")


@dataclass(frozen=True)
class LinearProgram:
    """min c.x subject to A x = b and x >= 0. The arrays are stored as
    given (as floats); do not mutate them."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError(f"b must be a vector, got shape {b.shape}")
        # a reshape would let a wrong-shaped A of the right size through
        if A.ndim != 2 or A.shape != (b.size, c.size):
            raise ValueError(f"A has shape {A.shape}, expected "
                             f"{(b.size, c.size)}")
        if not np.isfinite(b).all():
            raise ValueError("rhs must be finite")
        for name, value in (("objective", c), ("A", A), ("b", b)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.b.size


@dataclass
class LpSolution:
    """What ``solve`` returns. On an OPTIMAL solution ``basis`` is the
    final basis in the form ``solve(basis=)`` takes: one entry per row,
    the column of A basic there or -1 where an artificial sits."""

    status: str
    value: float | None = None
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    farkas: np.ndarray | None = None
    iterations: int = 0
    basis: np.ndarray | None = None


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

class _Standardized:
    """User LP with every row whose b is negative negated, so b >= 0;
    ``row_sign`` is -1 on those rows and +1 elsewhere, so a row dual here
    times ``row_sign`` is the dual of the user's row. ``M`` is ``A``
    followed by one unit column per row, the artificials; ``A`` is a view
    of M's first n columns."""

    def __init__(self, lp: LinearProgram):
        A, b = lp.A, lp.b
        m, n = A.shape
        self.row_sign = np.where(b < 0, -1.0, 1.0)
        self.M = np.hstack([A, np.eye(m)])
        self.A = self.M[:, :n]
        self.A *= self.row_sign[:, None]
        self.c = lp.objective
        self.b = b * self.row_sign
        self.m, self.n = m, n


# ---------------------------------------------------------------------------
# tableau machinery
#
# column layout: [0, n) the standard columns (artificials have none),
# [n, n + m) the basis-inverse block, last column rhs; last row holds the
# reduced costs and minus the objective value.
# ---------------------------------------------------------------------------

def _solve_basis(B, rhs, during: str) -> np.ndarray:
    """B^-1 rhs, or NumericalBreakdown when B is singular or the result is
    not finite."""
    try:
        out = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown(f"basis became singular during {during}")
    if not np.isfinite(out).all():
        raise NumericalBreakdown("basis is numerically singular")
    return out


def _pivot(T: np.ndarray, basis: list, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def _refresh_tableau(T, basis, M, b, costs, full=False):
    """Recompute the derived tableau content exactly from the basis, whose
    artificials are columns n + i of M: always the rhs column and the
    reduced costs of the n standard columns; with ``full`` also their
    matrix block, resetting the lexicographic block to the identity (a
    fresh, exactly valid perturbation state). A singular basis raises.
    Returns the basic values and the duals ``(xb, y)`` it solved for."""
    m = len(basis)
    n = M.shape[1] - m
    B = M[:, basis]
    if full:
        sol = _solve_basis(B, np.hstack([M[:, :n], b[:, None]]), "refresh")
        T[:-1, :n] = sol[:, :-1]
        # a basic artificial's entries land in the block reset next
        T[:-1, basis] = 0.0
        T[range(m), basis] = 1.0
        T[:-1, n:-1] = np.eye(m)
        xb = sol[:, -1]
    else:
        xb = _solve_basis(B, b, "refresh")
    y = _solve_basis(B.T, costs[basis], "refresh")
    T[:-1, -1] = xb
    T[-1, :n] = costs[:n] - M[:, :n].T @ y
    T[-1, basis] = 0.0
    T[-1, n:-1] = 0.0
    T[-1, -1] = -float(costs[basis] @ xb)
    return xb, y


def _lex_leaving(T, basis, rows, col):
    """Lexicographic ratio test over [rhs | basis-inverse] rows.

    Degenerate rows may carry tiny negative rhs after a refresh; the rhs
    component is clamped so steps stay degenerate rather than infeasible.
    Rows still tied after the rhs are compared, in column order, only on
    the basis-inverse columns that are nonzero on some tied row: a column
    of +-0 on every candidate gives them all the ratio 0 and keeps every
    one, so skipping it leaves the choice exactly as a full scan makes it.
    """
    inv = T[:, -len(basis) - 1:-1]
    cand = rows
    vals = np.maximum(T[cand, -1], 0.0) / col[cand]
    best = vals.min()
    cand = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
    if cand.size > 1:
        for k in inv[cand].any(axis=0).nonzero()[0]:
            vals = inv[cand, k] / col[cand]
            best = vals.min()
            cand = cand[vals <= best + 1e-12 * (1.0 + abs(best))]
            if cand.size == 1:
                break
    if cand.size > 1:
        cand = cand[np.argsort([basis[i] for i in cand])]
    return int(cand[0])


def _pivot_loop(T, basis, phase, M, b, costs, fresh=None):
    """Pivot to optimality. Entering: Devex pricing, the standard column
    of largest z_j^2 / w_j among those with reduced cost z_j below
    -FEAS_TOL, the smallest index on a tie. The reference weights w are
    ones at the start and after every refresh; a pivot on row r, column q
    sets w = max(w, T[r]^2 w_q) from the normalised pivot row. Leaving:
    lexicographic among the rows whose entry exceeds max(PIVOT_TOL,
    RELATIVE_PIVOT times the column's largest entry). The tableau is
    rebuilt exactly from (M, b, costs) every ``period`` pricing passes
    after the start or the last plain refresh.
    When pricing finds no entering column on a tableau that has pivoted
    since that refresh, the loop refreshes it and prices again; ``fresh``
    is the ``(xb, y)`` of a plain refresh the tableau has just had, if
    any. If the fourth refresh still prices an entering column,
    NumericalBreakdown.
    Returns (xb, y, pivots, entering): the confirming refresh's values and
    None, or None, None and the column of an unboundedness ray.
    ``_iteration_cap`` bounds the pricing passes."""
    m = len(basis)
    n = T.shape[1] - m - 1
    cap = _iteration_cap(m, n)
    period = max(100, 2 * m)
    it = pivots = refreshes = passes = 0
    weights = np.ones(n)
    while True:
        it += 1
        if it > cap:
            raise NumericalBreakdown(
                f"phase {phase}: iteration cap {cap} exceeded")
        passes += 1
        if passes % period == 0:
            # periodic full rebuild: matrix-entry drift would otherwise
            # feed the ratio test stale pivots
            _refresh_tableau(T, basis, M, b, costs, full=True)
            weights[:] = 1.0
        z = T[-1, :n]
        entering = (z < -FEAS_TOL).nonzero()[0]
        if entering.size == 0:
            if fresh is not None:
                return (*fresh, pivots, None)
            fresh = _refresh_tableau(T, basis, M, b, costs)
            weights[:] = 1.0
            refreshes += 1
            passes = 0
            continue
        if fresh is not None and refreshes == 4:
            raise NumericalBreakdown(
                f"phase {phase}: reduced costs still admit an entering "
                f"column after {refreshes} refreshes")
        zj = z[entering]
        j = int(entering[(zj * zj / weights[entering]).argmax()])
        col = T[:-1, j]
        # the largest positive entry sets the scale, so it stays admissible
        # whenever PIVOT_TOL admits it
        rows = (col > max(PIVOT_TOL, RELATIVE_PIVOT
                          * col.max(initial=0.0))).nonzero()[0]
        if rows.size == 0:
            if phase == 1:
                # the phase-1 objective is bounded below by zero, so a
                # missing leaving row means pivots were lost to tolerance
                raise NumericalBreakdown(
                    "phase 1: no admissible pivot above tolerance")
            return None, None, pivots, j
        r = _lex_leaving(T, basis, rows, col)
        _pivot(T, basis, r, j)
        # Devex update from the normalised pivot row; T[r, j] = 1 keeps
        # the entering column's own weight
        np.maximum(weights, T[r, :n] ** 2 * weights[j], out=weights)
        pivots += 1
        fresh = None


def _phase1(std: _Standardized, start=None):
    """Find a basic feasible point or a Farkas certificate.

    Starts from the artificial identity, or from ``start``: one user
    column per row, -1 for an artificial on that row (see
    ``_start_columns``). Row i's artificial is basis entry n + i, column
    n + i of ``std.M``, +e_i as built. A basis of unit columns, each on
    its own row, is the identity: the tableau is M itself and the basic
    values are b, so nothing is solved. For any other starting basis,
    B x = b is solved for the basic values; each artificial they put
    below -FEAS_TOL (1 + |b|) is negated to -e_i in M, so it starts above
    zero, and the basis is then installed by one full refresh against
    the phase-1 costs. A singular starting basis, or one with a user
    column below -FEAS_TOL (1 + |b|), raises ValueError. The verdict is
    read off the refresh that confirms the pivot loop's optimum: the
    artificial level from its basic values, the Farkas ray from its
    duals.

    Returns (status, T, basis, farkas, pivots, exact), where ``exact``
    tells that no pivot followed the tableau's last full install, so it
    is still the exact tableau of ``basis``. Artificials stay in the
    basis at level zero when rows are redundant, so no rows are deleted.
    """
    m, n = std.m, std.n
    M = std.M
    tol = FEAS_TOL * (1.0 + np.abs(std.b).max(initial=0.0))

    basis = np.full(m, -1) if start is None else start.copy()
    art_rows = np.flatnonzero(basis < 0)
    basis[art_rows] = n + art_rows
    basis = basis.tolist()
    c1 = np.zeros(n + m)
    c1[n:] = 1.0

    # tableau with the basis-inverse block
    T = np.zeros((m + 1, n + m + 1))
    B = M[:, basis]
    if np.count_nonzero(B) == m and (B.diagonal() == 1.0).all():
        # the basis is the identity, so the tableau is M itself and the
        # basic values are b
        T[:-1, :-1] = M
        T[:-1, -1] = std.b
        for i in art_rows:
            T[-1] -= T[i]
        T[-1, n:-1] = 0.0
        above = std.b[art_rows].any()
    else:
        try:
            # an artificial below zero enters with coefficient -1: -e_i is
            # still an artificial for row i, and negating a basic column
            # only negates its row of B^-1 [A | b], so the basic values
            # alone tell which to negate before the one install
            xb = _solve_basis(M[:, basis], std.b, "refresh")
            low = art_rows[xb[art_rows] < -tol]
            M[low, n + low] = -1.0
            xb, _ = _refresh_tableau(T, basis, M, std.b, c1, full=True)
        except NumericalBreakdown as e:
            raise ValueError(f"starting basis is singular: {e}") from None
        if xb.min(initial=0.0) < -tol:
            raise ValueError(f"starting basis is infeasible: basic value "
                             f"{xb.min():.3e} below {-tol:.3e}")
        # the artificials of redundant rows sit at B^-1 b = 0 up to
        # rounding, which is no reason to pivot
        above = (xb[art_rows] > tol).any()

    iterations = installed = 0
    # artificials that all start at level zero already sit in a feasible
    # basis: no pivot loop runs, and the untouched tableau stays exact
    if above:
        xb, y, iterations, _ = _pivot_loop(T, basis, 1, M, std.b, c1)
        art_level = sum(max(float(xb[i]), 0.0)
                        for i in range(m) if basis[i] >= n)
        if art_level > tol:
            # y certifies the standard rows; row_sign * y certifies the
            # user's, and each term of the sums below is the same for both
            viol = y @ std.b
            comb = std.A.T @ y
            # b.y must stand clear of the rounding in its own sum: a ray
            # of huge multipliers can show a tiny positive b.y that is
            # pure cancellation noise
            noise = 1e-9 * float(np.abs(y) @ np.abs(std.b))
            if viol <= noise or comb.max(initial=0.0) > 1e-7 * (1.0 + viol):
                raise NumericalBreakdown(
                    "infeasibility certificate failed validation")
            return "infeasible", None, None, std.row_sign * y / viol, \
                iterations, False

        if any(basis[i] >= n for i in range(m)):
            _refresh_tableau(T, basis, M, std.b, c1, full=True)
            installed = iterations

    # pivot leftover artificials out on honest (untouched or freshly
    # rebuilt) entries; rows without one (every row of an LP with no
    # columns) are redundant and keep their artificial pinned at level
    # zero for good
    for i in [r for r in range(m) if basis[r] >= n]:
        row = np.abs(T[i, :n])
        if row.max(initial=0.0) > 1e-7:
            _pivot(T, basis, i, int(row.argmax()))
            iterations += 1

    return "feasible", T, basis, None, iterations, iterations == installed


def _phase2(T, basis, M, b, c_aug, exact):
    """Pivot from the phase-1 basis to optimality; ``c_aug`` gives every
    column of M its cost, zero on the artificials. The opening refresh is
    full, installing a fresh lexicographic state, unless phase 1 left the
    tableau the exact install of this basis, or the untouched identity
    (``exact``); then a plain opening refresh can confirm an optimum at
    once. Returns what ``_pivot_loop`` does."""
    fresh = _refresh_tableau(T, basis, M, b, c_aug, full=not exact)
    return _pivot_loop(T, basis, 2, M, b, c_aug, fresh if exact else None)


def _validate_ray(M, c_aug, basis, j) -> None:
    """Check the phase-2 unboundedness ray of entering column j on the
    original data: z_j = 1, z_B = -B^-1 A_j. A near-singular basis can hide
    an admissible pivot below PIVOT_TOL; such a ray fails here with
    NumericalBreakdown."""
    n_real = M.shape[1] - M.shape[0]
    w = _solve_basis(M[:, basis], M[:, j], "ray validation")
    z = np.zeros(M.shape[1])
    z[basis] = -w
    z[j] = 1.0
    # artificial columns carry no mass in the real system, so the residual
    # is taken over the real columns only
    resid = np.abs(M[:, :n_real] @ z[:n_real]).max(initial=0.0)
    if w.max(initial=0.0) > PIVOT_TOL or resid > FEAS_TOL \
            or not c_aug @ z < -FEAS_TOL:
        raise NumericalBreakdown("unboundedness ray failed validation")


def _extract_primal(M, b, basis, xb) -> np.ndarray:
    """Basic solution B^-1 b of the final basis, solved on the original,
    drift-free data, validated on the standard system and truncated to the
    real columns (all but the m artificials). ``xb`` is B^-1 b from the
    refresh that confirmed phase 2's optimum; without phase 2 it is None
    and solved here, and a singular basis raises. A basic value below
    -1e-6 (1 + |b|), an artificial carrying mass or a row residual above
    1e-8 (1 + |b|) raises NumericalBreakdown."""
    n_real = M.shape[1] - M.shape[0]
    if xb is None:
        xb = _solve_basis(M[:, basis], b, "primal extraction")
    scale = 1.0 + np.abs(b).max(initial=0.0)
    thresh = 1e-8 * scale
    z = np.zeros(M.shape[1])
    z[basis] = np.maximum(xb, 0.0)
    # artificial columns must carry no mass: they are bookkeeping, not
    # part of the solved system
    if xb.min(initial=0.0) <= -1e-6 * scale \
            or np.max(z[n_real:], initial=0.0) > thresh \
            or np.max(np.abs(M @ z - b), initial=0.0) > thresh:
        raise NumericalBreakdown(
            "final basis does not reproduce a feasible point")
    return z[:n_real]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _start_columns(std: _Standardized, basis) -> np.ndarray:
    """A caller's starting basis: entry i names the user column basic on
    row i, or -1 for an artificial on that row.
    Refuses with ValueError a basis of the wrong length, an entry that is
    no user column and a repeated column."""
    start = np.asarray(basis)
    if start.shape != (std.m,):
        raise ValueError(f"basis needs one entry per row ({std.m}), got "
                         f"shape {start.shape}")
    if start.size and start.dtype.kind not in "iu":
        raise ValueError(f"basis entries must be integers, got "
                         f"{start.dtype}")
    if ((start < -1) | (start >= std.n)).any():
        raise ValueError(f"basis entries must lie in [-1, {std.n})")
    named = start[start >= 0]
    if len(set(named.tolist())) != named.size:
        raise ValueError("basis repeats a column")
    return start.astype(int)


def solve(lp: LinearProgram, basis=None) -> LpSolution:
    """Solve min c.x s.t. A x = b, x >= 0; deterministic for identical
    inputs under one BLAS configuration (the thread count can steer the
    pivots: the 32 x 64 kernel pair of the tests makes 365 pivots in
    ``mot_primal`` under one BLAS thread and 295 under two).

    ``basis``, if given, is the starting basis of phase 1: one entry per
    row, the column of A basic on that row or -1 for an artificial there.
    It must be nonsingular, with no repeated column, and its columns
    feasible (basic values >= -FEAS_TOL (1 + |b|)); otherwise ValueError.
    An artificial below that bound enters with coefficient -1. A basis
    whose columns are unit columns on their own rows is the identity and
    is installed with no basis solve, as the default all-artificial one
    is. Phase 1 then pivots only if an artificial starts above zero (for
    any other basis: above the feasibility tolerance).

    A numerical breakdown raises NumericalBreakdown."""
    std = _Standardized(lp)
    start = None if basis is None else _start_columns(std, basis)
    status, T, basis, farkas, it1, exact = _phase1(std, start)
    if status == "infeasible":
        return LpSolution(status=INFEASIBLE, farkas=farkas, iterations=it1)

    c_aug = np.concatenate([std.c, np.zeros(std.m)])
    if std.c.any():
        xb, y, it2, j = _phase2(T, basis, std.M, std.b, c_aug, exact)
        if j is not None:
            _validate_ray(std.M, c_aug, basis, j)
            return LpSolution(status=UNBOUNDED, iterations=it1 + it2)
    else:
        # a zero objective is optimal at the phase-1 basis, with zero duals
        xb, y, it2 = None, np.zeros(std.m), 0

    # primal and dual values of the final basis on the original,
    # drift-free data
    z = _extract_primal(std.M, std.b, basis, xb)
    # a negated row's dual changes sign with it
    return LpSolution(status=OPTIMAL, value=float(std.c @ z),
                      primal=z, dual=std.row_sign * y,
                      iterations=it1 + it2,
                      basis=np.where(np.array(basis) < std.n, basis, -1))


def residual_report(lp: LinearProgram, sol: LpSolution) -> dict:
    """Primal/dual feasibility, duality-gap and complementary-slackness
    residuals of an optimal solution on the user's data, when asked. An
    inequality row's slackness is its slack column's, so it is measured
    with the variables."""
    x, y = sol.primal, sol.dual
    primal = max(float(np.abs(lp.A @ x - lp.b).max(initial=0.0)),
                 float(np.max(-x, initial=0.0)))
    # reduced costs r = c - A^T y must be >= 0
    r = lp.objective - lp.A.T @ y
    gap = abs(float(lp.objective @ x) - float(lp.b @ y))
    return {
        "primal": primal,
        "dual": float((-r).max(initial=0.0)),
        "gap": float(gap),
        "complementary_slackness": float(np.abs(x * r).max(initial=0.0)),
    }


def check_feasibility(A, b, basis=None) -> LpSolution:
    """Feasibility of {A x = b, x >= 0}, as the zero-objective ``solve``:
    ``status`` is OPTIMAL with a feasible point in ``primal``, or
    INFEASIBLE with a Farkas ray in ``farkas`` proving emptiness.
    ``basis`` is passed to ``solve`` as its starting basis. No module of
    the package calls it; it is kept by name for the benchmark's tracer,
    which wraps it.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    return solve(LinearProgram(np.zeros(A.shape[1]), A, b), basis)
