"""Seeded inputs and task bodies of the three benchmark workloads.

A task is a fixed group of public calls; each call is one operation. The
inputs of task ``i`` in a run with seed ``s`` come from
``SeedSequence([s, workload id, i])`` alone, so the same seed gives the same
inputs whatever the run length. Task bodies look the program's functions up
on their modules at call time (``tk.ot.kantorovich_primal``), so the traced
run sees every call through its wrappers.

Generation produces plain arrays and JSON strings; building measures and
parsing CLI arguments is part of the timed task, as it is for a user.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# The untimed warm-up task of set-up: its inputs do not depend on --seed,
# so every run's set-up does the same work.
WARMUP_SEED, WARMUP_INDEX = 0, 2 ** 31 - 1

COSTS_OT = ("euclidean", "sq_euclidean", "manhattan")
COSTS_MOT = ("euclidean", "sq_euclidean")

GRID_COUNTS = (7, 7)
CLASS_POINTS = 41


def _rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        [int(seed), workload_id, int(index)]))


def _weights(rng, n):
    w = rng.uniform(0.5, 1.5, size=n)
    return w / w.sum()


@dataclass
class Outcome:
    """Result of one operation: its return value, or the exception text of
    a failed call. ``refused`` holds the exception of an expected negative
    verdict raised by the program."""

    value: object = None
    error: str | None = None
    refused: BaseException | None = None


def attempt(outcomes: dict, name: str, fn, *args, refuse=()):
    """Run one operation. Exceptions are recorded, not raised: a failing
    operation is counted by the runner and the run goes on."""
    try:
        outcomes[name] = Outcome(value=fn(*args))
    except refuse as exc:
        outcomes[name] = Outcome(refused=exc)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        outcomes[name] = Outcome(error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# extraction of plain data from program outputs
# ---------------------------------------------------------------------------

def extract(name: str, outcome):
    """Plain arrays of one operation's outcome; None when it failed."""
    if outcome.error is not None:
        return None
    if outcome.refused is not None:
        return {"refused": type(outcome.refused).__name__}
    v = outcome.value
    if name in ("kantorovich_primal", "mot_primal", "multimarginal_primal"):
        return {"mass": np.array(v[0].mass), "value": v[1]}
    if name == "kantorovich_dual":
        return {"phi": np.array(v[0].phi), "psi": np.array(v[0].psi),
                "value": v[1]}
    if name == "kr_dual":
        return {"points": np.array(v[0].points),
                "f": np.array(v[0].values), "value": v[1]}
    if name == "multimarginal_dual":
        return {"f": [np.array(f) for f in v[0].values], "value": v[1]}
    if name in ("order_forward", "order_reverse"):
        if v.in_order:
            return {"in_order": True, "mass": np.array(v.coupling.mass)}
        return {"in_order": False, "slopes": np.array(v.witness.slopes),
                "intercepts": np.array(v.witness.intercepts)}
    if name == "choquet_represent":
        return {"fans": [(w, np.array(f.center), np.array(f.atoms),
                          np.array(f.weights)) for w, f in v.entries]}
    if name in ("mot_dual", "mot_dual_reverse"):
        return {"u": np.array(v[0].u), "v": np.array(v[0].v),
                "gamma": np.array(v[0].gamma), "value": v[1]}
    # CLI operations: (exit code, report)
    code, report = v
    results = dict(report["results"])
    for key in ("points", "gamma"):
        if key in results:
            results[key] = np.asarray(results[key])
    return {"code": code, "results": results}


# ---------------------------------------------------------------------------
# ot_duality
# ---------------------------------------------------------------------------

def gen_ot(seed: int, index: int) -> dict:
    rng = _rng(seed, 1, index)
    return {
        "cost": COSTS_OT[index % len(COSTS_OT)],
        "X": rng.uniform(-1, 1, (18, 2)), "a": _weights(rng, 18),
        "Y": rng.uniform(-1, 1, (18, 2)), "b": _weights(rng, 18),
        "KX": rng.uniform(-1, 1, (6, 2)), "ka": _weights(rng, 6),
        "KY": rng.uniform(-1, 1, (6, 2)), "kb": _weights(rng, 6),
        "M": [(rng.uniform(-1, 1, (5, 1)), _weights(rng, 5))
              for _ in range(3)],
    }


def run_ot(tk, inp: dict, out_dir: str) -> dict:
    out: dict = {}
    nm, ot = tk.measures.new_measure, tk.ot
    cost = tk.measures.cost_from_json({"kind": inp["cost"]})
    mu, nu = nm(2, inp["X"], inp["a"]), nm(2, inp["Y"], inp["b"])
    attempt(out, "kantorovich_primal", ot.kantorovich_primal, mu, nu, cost)
    attempt(out, "kantorovich_dual", ot.kantorovich_dual, mu, nu, cost)
    eu = tk.measures.CostSpec.euclidean()
    attempt(out, "kr_dual", ot.kr_dual, nm(2, inp["KX"], inp["ka"]),
            nm(2, inp["KY"], inp["kb"]), eu)
    margs = [nm(1, p, w) for p, w in inp["M"]]
    mc = tk.measures.MultiCost.pairwise_sum(eu)
    attempt(out, "multimarginal_primal", ot.multimarginal_primal, margs, mc)
    attempt(out, "multimarginal_dual", ot.multimarginal_dual, margs, mc)
    return out


# ---------------------------------------------------------------------------
# mot_order
# ---------------------------------------------------------------------------

def gen_mot(seed: int, index: int) -> dict:
    """mu: 8 atoms in [-1, 1]^2. nu: each atom x of weight w is spread to
    x + s1 u and x - s2 u (u a random unit vector) with weights
    w s2 / (s1 + s2) and w s1 / (s1 + s2), which keeps the barycenter x,
    so mu precedes nu in convex order and nu does not precede mu."""
    rng = _rng(seed, 2, index)
    X = rng.uniform(-1, 1, (8, 2))
    w = _weights(rng, 8)
    pts, wts = [], []
    for x, wx in zip(X, w):
        ang = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        s1, s2 = rng.uniform(0.1, 0.5, size=2)
        pts += [x + s1 * u, x - s2 * u]
        wts += [wx * s2 / (s1 + s2), wx * s1 / (s1 + s2)]
    wts = np.asarray(wts)
    return {"cost": COSTS_MOT[index % len(COSTS_MOT)],
            "X": X, "a": w, "Y": np.asarray(pts), "b": wts / wts.sum()}


def run_mot(tk, inp: dict, out_dir: str) -> dict:
    out: dict = {}
    nm, co, mot = tk.measures.new_measure, tk.convex_order, tk.mot
    cost = tk.measures.cost_from_json({"kind": inp["cost"]})
    mu, nu = nm(2, inp["X"], inp["a"]), nm(2, inp["Y"], inp["b"])
    attempt(out, "order_forward", co.convex_order_check, mu, nu)
    attempt(out, "order_reverse", co.convex_order_check, nu, mu)
    attempt(out, "choquet_represent", co.choquet_represent, mu, nu)
    attempt(out, "mot_primal", mot.mot_primal, mu, nu, cost)
    attempt(out, "mot_dual", mot.mot_dual, mu, nu, cost)
    attempt(out, "mot_dual_reverse", mot.mot_dual, nu, mu, cost,
            refuse=tk.errors.NotInConvexOrder)
    return out


# ---------------------------------------------------------------------------
# certify_grid
# ---------------------------------------------------------------------------

def grid_points() -> np.ndarray:
    """The 7 x 7 grid in the order transportkit's Box.lattice gives it."""
    axes = [np.linspace(-1.0, 1.0, c) for c in GRID_COUNTS]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def gen_certify(seed: int, index: int) -> dict:
    """f(x) = x'Qx with Q = AA' + I and A uniform in [-1/2, 1/2]^(2x2).

    With sigma(t) = t^2, f is uniformly convex (Q - I is PSD), so the
    first certification succeeds. Raising f at the grid centre by
    delta >= 0.1 makes the centre uncertifiable: for y = (1/3, 0) and -y
    the gamma rows need |A'y|^2 >= delta, but |A'y|^2 <= 2 (1/2)^2 / 9.
    """
    rng = _rng(seed, 3, index)
    A = rng.uniform(-0.5, 0.5, (2, 2))
    Q = A @ A.T + np.eye(2)
    P = grid_points()
    vals = np.einsum("ij,jk,ik->i", P, Q, P)
    centre = len(P) // 2
    delta = float(rng.uniform(0.1, 0.5))
    vals[centre] += delta
    atoms = [{"y": [float(rng.uniform(-1, 1))],
              "a": [float(rng.uniform(-1, 1))],
              "b": float(rng.uniform(-0.5, 0.5))} for _ in range(3)]
    grid = {"box": [[-1.0, 1.0], [-1.0, 1.0]], "counts": list(GRID_COUNTS)}
    bclass = {"kind": "bclass_sup", "cost": {"kind": "euclidean"},
              "atoms": atoms}
    xs = np.linspace(-1.0, 1.0, CLASS_POINTS).reshape(-1, 1)
    sigma = json.dumps({"kind": "power", "p": 2.0, "scale": 1.0})
    return {
        "Q": Q, "delta": delta, "centre": centre, "atoms": atoms, "xs": xs,
        "argv": [
            ["ucvx", "certify", "--f", json.dumps(
                {"kind": "quadratic", "Q": Q.tolist(), "b": [0.0, 0.0]}),
             "--sigma", sigma, "--grid", json.dumps(grid)],
            ["ucvx", "certify", "--f", json.dumps(
                {"kind": "samples", "points": P.tolist(),
                 "values": vals.tolist()}),
             "--sigma", sigma, "--grid", json.dumps(grid)],
            ["class", "certify", "--f1", json.dumps(bclass),
             "--f2", json.dumps(bclass), "--cost", '{"kind": "euclidean"}',
             "--x", json.dumps(xs.tolist()), "--y", json.dumps(xs.tolist())],
        ],
    }


CERTIFY_OPS = ("ucvx_quadratic", "ucvx_raised_centre", "class_bclass")


def _cli_report(run, argv, path):
    """One CLI invocation in-process; returns (exit code, report dict)."""
    code = run(argv + ["--out", path])
    if code not in (0, 2):
        # 1 and 3 write no report: input error or numerical breakdown
        raise RuntimeError(f"transportkit exited with code {code}")
    with open(path) as fh:
        return code, json.load(fh)


def run_certify(tk, inp: dict, out_dir: str) -> dict:
    out: dict = {}
    for name, argv in zip(CERTIFY_OPS, inp["argv"]):
        path = os.path.join(out_dir, f"{name}.json")
        attempt(out, name, _cli_report, tk.cli.run, argv, path)
    return out


WORKLOADS = {
    "ot_duality": (gen_ot, run_ot),
    "mot_order": (gen_mot, run_mot),
    "certify_grid": (gen_certify, run_certify),
}
