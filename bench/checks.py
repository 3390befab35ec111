"""Independent checks of every operation's output.

Nothing here calls transportkit. Costs are recomputed from the generated
points, reference optima come from HiGHS (``scipy.optimize.linprog``), and
certificates are checked against the inequalities they claim. Each check
works on plain arrays taken from the program's outputs by
``workloads.extract``, so the self-test can hand it corrupted copies.

``check(workload, inputs, data)`` returns a list of error strings, empty
when every output is correct. ``data`` maps an operation name to its
extracted output, or to None when the operation failed (failures are
counted by the runner, not checked here).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from workloads import CLASS_POINTS, grid_points

TOL = 1e-8        # LP values, residuals and certificate inequalities
TV_TOL = 1e-9     # fan recomposition, as promised by choquet_represent
BARY_TOL = 1e-9   # fan barycenters


def cost_matrix(kind: str, X, Y) -> np.ndarray:
    D = np.asarray(X, float)[:, None, :] - np.asarray(Y, float)[None, :, :]
    if kind == "euclidean":
        return np.sqrt((D ** 2).sum(axis=2))
    if kind == "sq_euclidean":
        return (D ** 2).sum(axis=2)
    if kind == "manhattan":
        return np.abs(D).sum(axis=2)
    raise ValueError(kind)


def _close(a, b, scale=1.0) -> bool:
    return abs(a - b) <= TOL * (1.0 + abs(scale))


def _highs(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, free=False):
    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   bounds=(None, None) if free else (0, None),
                   method="highs")


def _highs_value(c, A_eq, b_eq) -> float:
    """Optimal value of min c.x, A_eq x = b_eq, x >= 0 by HiGHS."""
    res = _highs(c, A_eq, b_eq)
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return float(res.fun)


def transport_rows(m: int, n: int):
    """Row-sum and column-sum equality rows of an m x n coupling."""
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    return A


def martingale_rows(X, Y):
    m, n, d = len(X), len(Y), X.shape[1]
    B = np.zeros((m * d, m * n))
    for i in range(m):
        for k in range(d):
            B[i * d + k, i * n:(i + 1) * n] = Y[:, k] - X[i, k]
    return np.vstack([transport_rows(m, n), B])


def ot_value(C, a, b) -> float:
    return _highs_value(C.ravel(), transport_rows(*C.shape),
                        np.concatenate([a, b]))


def mot_value(C, X, Y, a, b) -> float:
    A = martingale_rows(X, Y)
    rhs = np.concatenate([a, b, np.zeros(len(X) * X.shape[1])])
    return _highs_value(C.ravel(), A, rhs)


def coupling_errors(name, mass, a, b, X=None, Y=None) -> list:
    """Nonnegativity, both marginals and, with supports, the martingale
    (barycenter) identities."""
    err = []
    if mass.min() < -TOL:
        err.append(f"{name}: negative mass {mass.min():.3e}")
    r = max(np.abs(mass.sum(1) - a).max(), np.abs(mass.sum(0) - b).max())
    if r > TOL:
        err.append(f"{name}: marginal residual {r:.3e}")
    if X is not None:
        drift = np.abs(mass @ Y - mass.sum(1)[:, None] * X).max()
        if drift > TOL:
            err.append(f"{name}: martingale residual {drift:.3e}")
    return err


# ---------------------------------------------------------------------------
# ot_duality
# ---------------------------------------------------------------------------

def check_ot(inp: dict, data: dict) -> list:
    err = []
    X, Y, a, b = inp["X"], inp["Y"], inp["a"], inp["b"]
    C = cost_matrix(inp["cost"], X, Y)
    ref = ot_value(C, a, b)
    p, d = data.get("kantorovich_primal"), data.get("kantorovich_dual")
    if p is not None:
        err += coupling_errors("kantorovich_primal", p["mass"], a, b)
        if not _close(p["value"], ref, ref):
            err.append(f"kantorovich_primal: value {p['value']!r} vs "
                       f"HiGHS {ref!r}")
        if not _close(float((C * p["mass"]).sum()), p["value"], ref):
            err.append("kantorovich_primal: value is not <C, coupling>")
    if d is not None:
        viol = (d["phi"][:, None] - d["psi"][None, :] - C).max()
        if viol > TOL:
            err.append(f"kantorovich_dual: phi - psi exceeds C by "
                       f"{viol:.3e}")
        obj = float(a @ d["phi"] - b @ d["psi"])
        if not _close(obj, d["value"], ref):
            err.append("kantorovich_dual: value is not the dual objective")
        if not _close(d["value"], ref, ref):
            err.append(f"kantorovich_dual: duality gap "
                       f"{abs(d['value'] - ref):.3e}")

    kr = data.get("kr_dual")
    if kr is not None:
        KX, KY = inp["KX"], inp["KY"]
        w1 = ot_value(cost_matrix("euclidean", KX, KY), inp["ka"], inp["kb"])
        if not _close(kr["value"], w1, w1):
            err.append(f"kr_dual: value {kr['value']!r} vs W1 {w1!r}")
        Z, f = kr["points"], kr["f"]
        lip = (f[:, None] - f[None, :]
               - cost_matrix("euclidean", Z, Z)).max()
        if lip > TOL:
            err.append(f"kr_dual: potential breaks 1-Lipschitz by {lip:.3e}")
        signed = _signed_on(Z, KX, inp["ka"]) - _signed_on(Z, KY, inp["kb"])
        if not _close(float(signed @ f), kr["value"], w1):
            err.append("kr_dual: value is not integral f d(mu - nu)")

    pts = [p_[:, 0] for p_, _ in inp["M"]]
    wts = [w for _, w in inp["M"]]
    T = (np.abs(pts[0][:, None, None] - pts[1][None, :, None])
         + np.abs(pts[0][:, None, None] - pts[2][None, None, :])
         + np.abs(pts[1][None, :, None] - pts[2][None, None, :]))
    idx = np.indices(T.shape).reshape(3, -1)
    A = np.vstack([(idx[k] == t).astype(float)
                   for k in range(3) for t in range(T.shape[k])])
    mref = _highs_value(T.ravel(), A, np.concatenate(wts))
    mp, md = data.get("multimarginal_primal"), data.get("multimarginal_dual")
    if mp is not None:
        mass = mp["mass"]
        if mass.min() < -TOL:
            err.append("multimarginal_primal: negative mass")
        for k in range(3):
            axes = tuple(j for j in range(3) if j != k)
            r = np.abs(mass.sum(axis=axes) - wts[k]).max()
            if r > TOL:
                err.append(f"multimarginal_primal: marginal {k} residual "
                           f"{r:.3e}")
        if not _close(mp["value"], mref, mref):
            err.append(f"multimarginal_primal: value {mp['value']!r} vs "
                       f"HiGHS {mref!r}")
    if md is not None:
        f = md["f"]
        S = f[0][:, None, None] + f[1][None, :, None] + f[2][None, None, :]
        viol = (S - T).max()
        if viol > TOL:
            err.append(f"multimarginal_dual: sum of potentials exceeds "
                       f"the cost by {viol:.3e}")
        obj = float(sum(w @ fk for w, fk in zip(wts, f)))
        if not _close(obj, md["value"], mref):
            err.append("multimarginal_dual: value is not the objective")
        if not _close(md["value"], mref, mref):
            err.append(f"multimarginal_dual: duality gap "
                       f"{abs(md['value'] - mref):.3e}")
    return err


def _signed_on(Z, P, w) -> np.ndarray:
    """Weights of the measure (P, w) read on the points Z (0 elsewhere)."""
    table = {tuple(p): float(x) for p, x in zip(P, w)}
    return np.array([table.get(tuple(z), 0.0) for z in Z])


# ---------------------------------------------------------------------------
# mot_order
# ---------------------------------------------------------------------------

def fan_errors(name, fans, X, a, Y, b) -> list:
    """Recomposition to (mu, nu) in total variation, and the extreme-point
    properties of every fan."""
    err = []
    d = X.shape[1]
    first: dict = {}
    second: dict = {}
    for w, centre, atoms, lam in fans:
        if w <= 0:
            err.append(f"{name}: nonpositive mixture weight {w!r}")
        if len(atoms) > d + 1:
            err.append(f"{name}: fan with {len(atoms)} atoms > d + 1")
        elif len(atoms) > 1:
            s = np.linalg.svd((atoms[1:] - atoms[0]).T, compute_uv=False)
            if s.min() <= 1e-9:
                err.append(f"{name}: fan atoms affinely dependent")
        if lam.min() <= 0 or abs(lam.sum() - 1.0) > 1e-10:
            err.append(f"{name}: fan weights not a probability vector")
        off = float(np.linalg.norm(lam @ atoms - centre))
        if off > BARY_TOL:
            err.append(f"{name}: fan barycenter off its centre by {off:.3e}")
        k = tuple(centre)
        first[k] = first.get(k, 0.0) + w
        for atom, l_ in zip(atoms, lam):
            second[tuple(atom)] = second.get(tuple(atom), 0.0) + w * l_
    for label, got, P, wts in (("mu", first, X, a), ("nu", second, Y, b)):
        want = {tuple(p): float(x) for p, x in zip(P, wts)}
        tv = 0.5 * sum(abs(got.get(k, 0.0) - want.get(k, 0.0))
                       for k in set(got) | set(want))
        if tv > TV_TOL:
            err.append(f"{name}: recomposed {label} is {tv:.3e} away in TV")
    return err


def check_mot(inp: dict, data: dict) -> list:
    err = []
    X, Y, a, b = inp["X"], inp["Y"], inp["a"], inp["b"]
    C = cost_matrix(inp["cost"], X, Y)
    fwd = data.get("order_forward")
    if fwd is not None:
        if not fwd["in_order"]:
            err.append("order_forward: refused a pair in convex order")
        else:
            err += coupling_errors("order_forward", fwd["mass"], a, b, X, Y)
    rev = data.get("order_reverse")
    if rev is not None:
        if rev["in_order"]:
            err.append("order_reverse: accepted a pair not in convex order")
        else:
            # the witness refutes nu <= mu: its nu-integral must exceed its
            # mu-integral by more than the rounding of its own values
            S, c = rev["slopes"], rev["intercepts"]
            phi_nu = (Y @ S.T + c).max(axis=1)
            phi_mu = (X @ S.T + c).max(axis=1)
            gap = float(b @ phi_nu - a @ phi_mu)
            scale = max(np.abs(phi_nu).max(), np.abs(phi_mu).max())
            if not gap > TOL * (1.0 + scale):
                err.append(f"order_reverse: witness gap {gap:.3e} does not "
                           f"separate at scale {scale:.3e}")
    rep = data.get("choquet_represent")
    if rep is not None:
        err += fan_errors("choquet_represent", rep["fans"], X, a, Y, b)

    ref = mot_value(C, X, Y, a, b)
    p = data.get("mot_primal")
    if p is not None:
        err += coupling_errors("mot_primal", p["mass"], a, b, X, Y)
        if not _close(p["value"], ref, ref):
            err.append(f"mot_primal: value {p['value']!r} vs HiGHS {ref!r}")
    d = data.get("mot_dual")
    if d is not None:
        drift = d["gamma"] @ Y.T - (d["gamma"] * X).sum(1)[:, None]
        viol = (d["u"][:, None] - d["v"][None, :] + drift - C).max()
        if viol > TOL:
            err.append(f"mot_dual: gamma dual infeasible by {viol:.3e}")
        obj = float(a @ d["u"] - b @ d["v"])
        if not _close(obj, d["value"], ref):
            err.append("mot_dual: value is not the dual objective")
        if not _close(d["value"], ref, ref):
            err.append(f"mot_dual: duality gap {abs(d['value'] - ref):.3e}")
    r = data.get("mot_dual_reverse")
    if r is not None and r.get("refused") != "NotInConvexOrder":
        err.append("mot_dual_reverse: returned a dual for a pair not in "
                   "convex order instead of raising NotInConvexOrder")
    return err


# ---------------------------------------------------------------------------
# certify_grid
# ---------------------------------------------------------------------------

def bclass_values(atoms, x) -> np.ndarray:
    """max_k b_k - |y_k - x| + a_k (x - y_k) on 1-D points x."""
    x = np.asarray(x, float).ravel()
    vals = [at["b"] - np.abs(at["y"][0] - x) + at["a"][0] * (x - at["y"][0])
            for at in atoms]
    return np.max(vals, axis=0)


def check_certify(inp: dict, data: dict) -> list:
    err = []
    P = grid_points()
    Q = inp["Q"]
    fq = np.einsum("ij,jk,ik->i", P, Q, P)
    D = P[None, :, :] - P[:, None, :]            # y_j - x_i
    dist2 = (D ** 2).sum(axis=2)                 # sigma(|y - x|) = |y - x|^2
    off = ~np.eye(len(P), dtype=bool)

    q = data.get("ucvx_quadratic")
    if q is not None:
        res = q["results"]
        if q["code"] != 0 or not res.get("ok"):
            err.append("ucvx_quadratic: uniformly convex f not certified")
        elif not np.array_equal(np.asarray(res["points"]), P):
            err.append("ucvx_quadratic: report points are not the grid")
        else:
            g = np.asarray(res["gamma"])
            lhs = fq[:, None] + dist2 + np.einsum("id,ijd->ij", g, D)
            viol = (lhs - fq[None, :])[off].max()
            if viol > TOL * (1 + np.abs(fq).max()):
                err.append(f"ucvx_quadratic: gamma inequality violated by "
                           f"{viol:.3e}")

    r = data.get("ucvx_raised_centre")
    if r is not None:
        res = r["results"]
        c = inp["centre"]
        fr = fq.copy()
        fr[c] += inp["delta"]
        cex = res.get("counterexample") or {}
        if r["code"] != 2 or res.get("ok") is not False:
            err.append("ucvx_raised_centre: raised centre not refuted")
        elif cex.get("index") != c or \
                not np.array_equal(np.asarray(cex["point"]), P[c]):
            err.append(f"ucvx_raised_centre: refuted at {cex.get('index')},"
                       f" not at the centre {c}")
        elif len(cex["binding"]) < 2:
            err.append("ucvx_raised_centre: fewer than 2 binding rows")
        else:
            x = P[c]
            Yb = np.asarray([row["y"] for row in cex["binding"]])
            keys = {tuple(p): k for k, p in enumerate(P)}
            if any(tuple(y) not in keys or tuple(y) == tuple(x)
                   for y in Yb):
                err.append("ucvx_raised_centre: binding point off the grid")
            else:
                fy = fr[[keys[tuple(y)] for y in Yb]]
                rhs = fy - fr[c] - ((Yb - x) ** 2).sum(axis=1)
                sub = _highs(np.zeros(2), A_ub=Yb - x, b_ub=rhs, free=True)
                if sub.status != 2:
                    err.append("ucvx_raised_centre: binding subsystem is "
                               "feasible by HiGHS")

    k = data.get("class_bclass")
    if k is not None:
        res = k["results"]
        xs = inp["xs"]
        if k["code"] != 0 or not res.get("ok"):
            err.append("class_bclass: supremum of b-class atoms not "
                       "certified")
        elif np.asarray(res["points"]).shape != (CLASS_POINTS, 1) or \
                not np.array_equal(np.asarray(res["points"]), xs):
            err.append("class_bclass: report points are not the inputs")
        else:
            f = bclass_values(inp["atoms"], xs)
            x = xs.ravel()
            g = np.asarray(res["gamma"]).ravel()
            lhs = f[:, None] - f[None, :]
            rhs = np.abs(x[:, None] - x[None, :]) \
                + g[:, None] * (x[None, :] - x[:, None])
            viol = (lhs - rhs).max()
            if viol > TOL * (1 + np.abs(f).max()):
                err.append(f"class_bclass: gamma inequality violated by "
                           f"{viol:.3e}")
    return err


CHECKS = {"ot_duality": check_ot, "mot_order": check_mot,
          "certify_grid": check_certify}


def check(workload: str, inputs: dict, data: dict) -> list:
    return CHECKS[workload](inputs, data)
