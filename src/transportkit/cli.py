"""Command-line front end.

Reads measures, costs and function evaluators as JSON (inline or file
path), dispatches to the solvers and checkers, and emits a RunReport:

    {"command": ..., "inputs": ..., "results": ..., "timing_ms": ...,
     "seed": ..., "tool_version": ...}

Reports embed the full certificates (couplings, potentials, gamma maps)
so every numeric claim can be re-verified externally. Exit codes:
0 success, 1 input/validation error, 2 negative verdict (infeasible pair,
failed certification, violation witness; report still emitted),
3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

import numpy as np

from . import __version__, convex_order, lp, mot, ot
from .errors import (
    NotAMetric,
    NotInConvexOrder,
    NumericalBreakdown,
    TransportkitError,
)
from .functions import (
    Box,
    Grid,
    box_from_json,
    evaluator_from_json,
    modulus_from_json,
)
from .measures import (
    CostSpec,
    MultiCost,
    cost_from_json,
    measure_from_json,
    measure_to_json,
)


class InputError(Exception):
    """Validation failure with a JSON-pointer-style location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _load_json_arg(arg: str, path: str):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        try:
            return json.loads(s)
        except json.JSONDecodeError as e:
            raise InputError(path, f"invalid inline JSON ({e})")
    try:
        with open(arg) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(path, f"cannot read file {arg!r} ({e})")
    except json.JSONDecodeError as e:
        raise InputError(path, f"invalid JSON in {arg!r} ({e})")


def load_measure(arg: str, label: str):
    obj = _load_json_arg(arg, label)
    for key in ("dim", "points", "weights"):
        if key not in obj:
            raise InputError(f"{label}/{key}", "missing field")
    try:
        return measure_from_json(obj)
    except TransportkitError as e:
        field = "weights" if "weight" in str(e).lower() else "points"
        raise InputError(f"{label}/{field}", str(e))


def load_cost(arg: str, label: str = "cost"):
    obj = _load_json_arg(arg, label)
    if "kind" not in obj:
        raise InputError(f"{label}/kind", "missing field")
    try:
        return cost_from_json(obj)
    except (TransportkitError, ValueError, KeyError) as e:
        raise InputError(label, str(e))


def validate_inputs(mu_arg: str, nu_arg: str):
    """Parse a measure pair and check the dims agree."""
    mu = load_measure(mu_arg, "mu")
    nu = load_measure(nu_arg, "nu")
    if mu.dim != nu.dim:
        raise InputError(
            "mu/dim", f"dim {mu.dim} in {mu_arg!r} does not match "
            f"dim {nu.dim} in {nu_arg!r}")
    return mu, nu


def _js(x):
    """Recursively make a results object JSON-serializable."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _js(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_js(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# command handlers: each returns (inputs_echo, results, exit_code)
# ---------------------------------------------------------------------------

def _cmd_ot_solve(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cost = load_cost(args.cost)
    coupling, value = ot.kantorovich_primal(mu, nu, cost)
    results = {"value": value, "coupling": coupling.mass,
               "row_marginal_residual": float(np.max(np.abs(
                   coupling.mass.sum(axis=1) - mu.weights))),
               "col_marginal_residual": float(np.max(np.abs(
                   coupling.mass.sum(axis=0) - nu.weights)))}
    return _echo2(mu, nu, args.cost), results, 0


def _cmd_ot_dual(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cost = load_cost(args.cost)
    pots, value = ot.kantorovich_dual(mu, nu, cost)
    results = {"value": value, "phi": pots.phi, "psi": pots.psi,
               "feasibility_margin": pots.max_violation(cost)}
    return _echo2(mu, nu, args.cost), results, 0


def _cmd_ot_kr(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cost = load_cost(args.cost)
    f, value = ot.kr_dual(mu, nu, cost)
    coupling, primal = ot.kantorovich_primal(mu, nu, cost)
    tol = args.tol if args.tol is not None else 1e-7
    results = {"value": value, "primal_value": primal,
               "points": f.points, "f": f.values,
               "tight": ot.kr_tight_check(f, coupling, cost, tol),
               "coupling": coupling.mass}
    return _echo2(mu, nu, args.cost), results, 0


def _cmd_ot_multi(args):
    measures = [load_measure(m, f"mu[{i}]") for i, m in enumerate(args.mu)]
    if len(measures) < 2:
        raise InputError("mu", "need at least two --mu arguments")
    base = load_cost(args.cost)
    cost = MultiCost.pairwise_sum(base)
    coupling, value = ot.multimarginal_primal(measures, cost)
    pots, dual_value = ot.multimarginal_dual(measures, cost)
    results = {"value": value, "dual_value": dual_value,
               "gap": abs(value - dual_value),
               "mass": coupling.mass,
               "potentials": [v for v in pots.values],
               "feasibility_margin": pots.max_violation(cost)}
    inputs = {"mu": [measure_to_json(m) for m in measures],
              "cost": _load_json_arg(args.cost, "cost"),
              "cost_interpretation": "sum over pairs i<j of c(x_i, x_j)"}
    return inputs, results, 0


def _cmd_order_check(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cert = convex_order.convex_order_check(mu, nu)
    if cert.in_order:
        results = {"in_order": True, "coupling": cert.coupling.mass}
        return _echo2(mu, nu), results, 0
    results = {"in_order": False,
               "witness": {"slopes": cert.witness.slopes,
                           "intercepts": cert.witness.intercepts,
                           "integral_gap":
                               cert.witness.integral_gap(mu, nu)}}
    return _echo2(mu, nu), results, 2


def _cmd_order_couple(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    coupling = convex_order.strassen_coupling(mu, nu)
    drift = np.abs(coupling.mass @ nu.points
                   - coupling.mass.sum(axis=1)[:, None] * mu.points)
    results = {"coupling": coupling.mass,
               "barycenter_residual": float(drift.max())}
    return _echo2(mu, nu), results, 0


def _cmd_order_decompose(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    rep = convex_order.choquet_represent(mu, nu)
    err = rep.recomposition_error(mu, nu)
    results = {"representation": convex_order.fan_representation_to_json(rep),
               "recomposition_error": max(err),
               "fans": len(rep.entries)}
    if args.cost:
        cost = load_cost(args.cost)
        results["representation_cost"] = \
            convex_order.representation_cost(rep, cost)
    return _echo2(mu, nu), results, 0


def _cmd_mot_solve(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cost = load_cost(args.cost)
    coupling, value = mot.mot_primal(mu, nu, cost)
    drift = np.abs(coupling.mass @ nu.points
                   - coupling.mass.sum(axis=1)[:, None] * mu.points)
    results = {"value": value, "coupling": coupling.mass,
               "barycenter_residual": float(drift.max())}
    return _echo2(mu, nu, args.cost), results, 0


def _cmd_mot_dual(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cost = load_cost(args.cost)
    dual, value = mot.mot_dual(mu, nu, cost)
    results = {"value": value, "u": dual.u, "v": dual.v,
               "gamma": dual.gamma,
               "feasibility_margin": dual.max_violation(cost)}
    return _echo2(mu, nu, args.cost), results, 0


def _cmd_mot_dual_sym(args):
    mu, nu = validate_inputs(args.mu, args.nu)
    cost = load_cost(args.cost)
    sym, value = mot.mot_dual_symmetric(mu, nu, cost)
    results = {"value": value, "points": sym.points, "f": sym.f,
               "gamma": sym.gamma}
    return _echo2(mu, nu, args.cost), results, 0


def _cmd_class_check(args):
    f1 = evaluator_from_json(_load_json_arg(args.f1, "f1"))
    f2 = evaluator_from_json(_load_json_arg(args.f2, "f2"))
    cost = load_cost(args.cost)
    box = box_from_json(_load_json_arg(args.domain, "domain"))
    tol = args.tol if args.tol is not None else mot.VIOLATION_TOL
    check = mot.simplex_inequality_check(f1, f2, cost, box,
                                         args.samples, args.seed, tol)
    results = {"ok": check.ok, "samples": check.samples,
               "max_violation": check.max_violation,
               "witness": check.witness.to_json() if check.witness else None}
    inputs = {"f1": _load_json_arg(args.f1, "f1"),
              "f2": _load_json_arg(args.f2, "f2"),
              "cost": _load_json_arg(args.cost, "cost"),
              "domain": _load_json_arg(args.domain, "domain")}
    return inputs, results, 0 if check.ok else 2


def _cmd_class_certify(args):
    f1 = evaluator_from_json(_load_json_arg(args.f1, "f1"))
    f2 = evaluator_from_json(_load_json_arg(args.f2, "f2"))
    cost = load_cost(args.cost)
    X = np.asarray(_load_json_arg(args.x, "x"), dtype=float)
    Y = np.asarray(_load_json_arg(args.y, "y"), dtype=float)
    res = mot.gamma_certify(f1, f2, np.atleast_2d(X), np.atleast_2d(Y),
                            cost)
    inputs = {"f1": _load_json_arg(args.f1, "f1"),
              "f2": _load_json_arg(args.f2, "f2"),
              "cost": _load_json_arg(args.cost, "cost"),
              "x": X, "y": Y}
    return (inputs, *_gamma_report(res))


def _gamma_report(res):
    """(results, exit code) of a gamma certification."""
    if res.ok:
        return {"ok": True, "points": res.points, "gamma": res.gammas}, 0
    cex = res.counterexample
    return {"ok": False,
            "counterexample": {
                "point": cex.point, "index": cex.index,
                "binding": [{"y": y, "coefficient": c}
                            for y, c in cex.binding]}}, 2


def _cmd_class_generate(args):
    atoms_obj = _load_json_arg(args.atoms, "atoms")
    cost = load_cost(args.cost)
    f = mot.bclass_generate(
        [(a["y"], a["a"], a["b"]) for a in atoms_obj], cost)
    results = {"evaluator": {"kind": "bclass_sup",
                             "cost": _load_json_arg(args.cost, "cost"),
                             "atoms": atoms_obj}}
    if args.at:
        pts = np.atleast_2d(np.asarray(_load_json_arg(args.at, "at"),
                                       dtype=float))
        results["points"] = pts
        results["values"] = f.on(pts)
    return {"atoms": atoms_obj}, results, 0


def _cmd_class_extend(args):
    g_obj = _load_json_arg(args.g, "g")
    K = np.atleast_2d(np.asarray(g_obj["points"], dtype=float))
    gv = np.asarray(g_obj["values"], dtype=float)
    cost = load_cost(args.cost)
    gamma = np.asarray(_load_json_arg(args.gamma, "gamma"), dtype=float)
    targets = np.atleast_2d(np.asarray(_load_json_arg(args.targets,
                                                      "targets"),
                                       dtype=float))
    lb = None
    if args.lower_bound:
        lb = evaluator_from_json(_load_json_arg(args.lower_bound,
                                                "lower_bound"))
    res = mot.extend(K, gv, cost, np.atleast_2d(gamma), targets,
                     lower_bound=lb)
    results = {"targets": res.targets, "values": res.values,
               "restriction_error": res.restriction_error}
    return {"g": g_obj, "cost": _load_json_arg(args.cost, "cost")}, \
        results, 0


def _cmd_mti_check(args):
    cost = load_cost(args.cost)
    box = box_from_json(_load_json_arg(args.domain, "domain"))
    tol = args.tol if args.tol is not None else mot.VIOLATION_TOL
    check = mot.mti_check(cost, box, args.samples, args.seed, tol)
    results = {"ok": check.ok, "samples": check.samples,
               "max_abs_gap": check.max_violation,
               "witness": check.witness.to_json() if check.witness else None}
    return {"cost": _load_json_arg(args.cost, "cost"),
            "domain": _load_json_arg(args.domain, "domain")}, \
        results, 0 if check.ok else 2


def _cmd_mti_hessian(args):
    cost = load_cost(args.cost)
    gobj = _load_json_arg(args.grid, "grid")
    grid = Grid(box_from_json(gobj["box"]), tuple(gobj["counts"]))
    check = mot.mti_second_order_check(cost, grid, args.step)
    results = {"ok": check.ok}
    if not check.ok:
        results.update({"x": check.x, "y": check.y,
                        "eigenvalue_gap": check.eigenvalue_gap})
    return {"cost": _load_json_arg(args.cost, "cost"), "grid": gobj}, \
        results, 0 if check.ok else 2


def _certify_handler(args, certify):
    f = evaluator_from_json(_load_json_arg(args.f, "f"))
    sigma = modulus_from_json(_load_json_arg(args.sigma, "sigma"))
    gobj = _load_json_arg(args.grid, "grid")
    if isinstance(gobj, dict) and "box" in gobj:
        grid = Grid(box_from_json(gobj["box"]),
                    tuple(gobj["counts"])).points()
    else:
        grid = np.atleast_2d(np.asarray(gobj, dtype=float))
    res = certify(f, sigma, grid)
    inputs = {"f": _load_json_arg(args.f, "f"),
              "sigma": _load_json_arg(args.sigma, "sigma"), "grid": gobj}
    return (inputs, *_gamma_report(res))


def _cmd_ucvx(args):
    return _certify_handler(args, mot.uniform_convexity_certify)


def _cmd_usmooth(args):
    return _certify_handler(args, mot.uniform_smoothness_certify)


def _echo2(mu, nu, cost_arg=None):
    inputs = {"mu": measure_to_json(mu), "nu": measure_to_json(nu)}
    if cost_arg is not None:
        inputs["cost"] = _load_json_arg(cost_arg, "cost")
    return inputs


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args reads it
    and leaves it unchanged, so every call may share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the command's check tolerance")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=1000)
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    p = argparse.ArgumentParser(prog="transportkit",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    top = p.add_subparsers(dest="group", required=True)

    def leaf(group, name, handler, **arguments):
        sp = group.add_parser(name, parents=[common])
        for flag, kw in arguments.items():
            sp.add_argument("--" + flag.replace("_", "-"), **kw)
        sp.set_defaults(handler=handler)
        return sp

    req = {"required": True}
    opt = {"default": None}

    g_ot = top.add_parser("ot").add_subparsers(dest="cmd", required=True)
    leaf(g_ot, "solve", _cmd_ot_solve, mu=req, nu=req, cost=req)
    leaf(g_ot, "dual", _cmd_ot_dual, mu=req, nu=req, cost=req)
    leaf(g_ot, "kr", _cmd_ot_kr, mu=req, nu=req, cost=req)
    leaf(g_ot, "multi", _cmd_ot_multi,
         mu={"required": True, "action": "append",
             "help": "one per marginal, repeatable"},
         cost=req)

    g_or = top.add_parser("order").add_subparsers(dest="cmd", required=True)
    leaf(g_or, "check", _cmd_order_check, mu=req, nu=req)
    leaf(g_or, "couple", _cmd_order_couple, mu=req, nu=req)
    leaf(g_or, "decompose", _cmd_order_decompose, mu=req, nu=req, cost=opt)

    g_mot = top.add_parser("mot").add_subparsers(dest="cmd", required=True)
    leaf(g_mot, "solve", _cmd_mot_solve, mu=req, nu=req, cost=req)
    leaf(g_mot, "dual", _cmd_mot_dual, mu=req, nu=req, cost=req)
    leaf(g_mot, "dual-sym", _cmd_mot_dual_sym, mu=req, nu=req, cost=req)

    g_cl = top.add_parser("class").add_subparsers(dest="cmd", required=True)
    leaf(g_cl, "check", _cmd_class_check, f1=req, f2=req, cost=req,
         domain=req)
    leaf(g_cl, "certify", _cmd_class_certify, f1=req, f2=req, cost=req,
         x=req, y=req)
    leaf(g_cl, "generate", _cmd_class_generate, atoms=req, cost=req, at=opt)
    leaf(g_cl, "extend", _cmd_class_extend, g=req, cost=req, gamma=req,
         targets=req, lower_bound=opt)

    g_mti = top.add_parser("mti").add_subparsers(dest="cmd", required=True)
    leaf(g_mti, "check", _cmd_mti_check, cost=req, domain=req)
    leaf(g_mti, "hessian", _cmd_mti_hessian, cost=req, grid=req,
         step={"type": float, "default": 1e-4})

    g_uc = top.add_parser("ucvx").add_subparsers(dest="cmd", required=True)
    leaf(g_uc, "certify", _cmd_ucvx, f=req, sigma=req, grid=req)
    g_us = top.add_parser("usmooth").add_subparsers(dest="cmd",
                                                    required=True)
    leaf(g_us, "certify", _cmd_usmooth, f=req, sigma=req, grid=req)
    return p


_CSV_COMMANDS = {"class certify", "class extend", "ucvx certify",
                 "usmooth certify"}


def _to_csv(command: str, results: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    if command == "class extend":
        pts = results["targets"]
        dim = len(pts[0])
        w.writerow([f"x{i}" for i in range(dim)] + ["value"])
        for p, v in zip(pts, results["values"]):
            w.writerow(list(p) + [v])
    else:
        if not results.get("ok", False):
            raise InputError("format",
                             "csv output needs a certified gamma table")
        pts = results["points"]
        dim = len(pts[0])
        w.writerow([f"x{i}" for i in range(dim)]
                   + [f"gamma{i}" for i in range(dim)])
        for p, g in zip(pts, results["gamma"]):
            w.writerow(list(p) + list(g))
    return buf.getvalue()


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    command = args.group + (f" {args.cmd}" if getattr(args, "cmd", None)
                            else "")
    if args.format == "csv" and command not in _CSV_COMMANDS:
        print(f"error: csv format is only available for "
              f"{sorted(_CSV_COMMANDS)}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    try:
        inputs, results, code = args.handler(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NotInConvexOrder,) as e:
        inputs, results, code = {}, {"error": str(e)}, 2
    except NotAMetric as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalBreakdown as e:
        print(f"error: numerical breakdown: {e}", file=sys.stderr)
        return 3
    except TransportkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if args.format == "csv":
        payload = _to_csv(command, _js(results))
    else:
        report = {"command": command, "inputs": _js(inputs),
                  "results": _js(results), "timing_ms": elapsed_ms,
                  "seed": args.seed, "tool_version": __version__}
        payload = json.dumps(report, indent=2)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return code


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
