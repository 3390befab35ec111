"""Command-line front end.

Each leaf command declares its flags in one table (``build_parser``),
its JSON arguments with their kind: measure, cost, evaluator, modulus,
domain, grid, nodes (a grid or a point list), points, atoms or g.
``run`` reads each JSON argument given once (inline or a file path),
builds it once as its kind, and passes the built objects to the
command's handler. A malformed argument exits 1 with a diagnostic naming
it, or its field (``mu/weights``). Each run emits a RunReport, one line
of JSON (``python -m json.tool`` pretty-prints it):

    {"command": ..., "inputs": ..., "results": ..., "timing_ms": ...,
     "seed": ..., "tool_version": ...}

``inputs`` echoes every JSON argument given as parsed, with measures
normalised. Reports embed the full certificates (couplings, potentials,
gamma maps) so every numeric claim can be re-verified externally. Exit
codes: 0 success, 1 usage, input or validation error, 2 negative verdict
(infeasible pair, failed certification, violation witness; report still
emitted), 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import time

import numpy as np

from . import __version__, convex_order, mot, ot
from .errors import NotInConvexOrder, NumericalBreakdown, TransportkitError
from .functions import (
    Grid,
    box_from_json,
    evaluator_from_json,
    modulus_from_json,
)
from .measures import MultiCost, cost_from_json, measure_to_json, new_measure


class InputError(Exception):
    """Validation failure with a JSON-pointer-style location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@contextlib.contextmanager
def _blame(path: str):
    """Turn a failure to build the argument at ``path`` into an
    InputError naming it, or naming the field an inner InputError names."""
    try:
        yield
    except InputError as e:
        raise InputError(f"{path}/{e.path}", e.message) from None
    except KeyError as e:
        raise InputError(path, f"missing field {e}")
    except (TransportkitError, ValueError, IndexError, TypeError) as e:
        raise InputError(path, str(e))


def _array(obj) -> np.ndarray:
    return np.asarray(obj, dtype=float)


def _points(obj) -> np.ndarray:
    return np.atleast_2d(_array(obj))


def _measure(obj):
    """The measure kind; a failure names its field."""
    for key in ("dim", "points", "weights"):
        if key not in obj:
            raise InputError(key, "missing field")
    arrays = []
    for key in ("points", "weights"):
        with _blame(key):
            arrays.append(_array(obj[key]))
    try:
        return new_measure(obj["dim"], *arrays)
    except TransportkitError as e:
        field = "weights" if "weight" in str(e).lower() else "points"
        raise InputError(field, str(e))


def _grid(obj) -> Grid:
    if not isinstance(obj, dict):
        raise ValueError("need a grid object {box, counts}")
    return Grid(box_from_json(obj["box"]), tuple(obj["counts"]))


# what each kind of JSON argument builds
_KINDS = {
    "measure": _measure,
    "cost": cost_from_json,
    "evaluator": evaluator_from_json,
    "modulus": modulus_from_json,
    "domain": box_from_json,
    "grid": _grid,
    "nodes": lambda obj: (_grid if isinstance(obj, dict) else _points)(obj),
    "points": _points,
    "atoms": lambda obj: [(a["y"], a["a"], a["b"]) for a in obj],
    "g": lambda obj: (_points(obj["points"]), _array(obj["values"])),
}


def _load_json_arg(arg: str, path: str, kind: str):
    """Read a JSON argument, inline or from a file, and build it as its
    kind: (its echo in the report, the built object)."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as e:
            raise InputError(path, f"invalid inline JSON ({e})")
    else:
        try:
            with open(arg) as fh:
                obj = json.load(fh)
        except OSError as e:
            raise InputError(path, f"cannot read file {arg!r} ({e})")
        except json.JSONDecodeError as e:
            raise InputError(path, f"invalid JSON in {arg!r} ({e})")
    with _blame(path):
        value = _KINDS[kind](obj)
    return (measure_to_json(value) if kind == "measure" else obj), value


def _read_arguments(args):
    """Read and build each JSON argument given, once: the report's inputs
    and the built objects, by argument name. A repeated flag gives lists;
    an argument the command takes as given also appears as its JSON, under
    its name plus "_json"."""
    inputs, built = {}, {}
    for name, kind in args.json_kinds.items():
        arg = getattr(args, name)
        if isinstance(arg, list):
            read = [_load_json_arg(a, f"{name}[{i}]", kind)
                    for i, a in enumerate(arg)]
            inputs[name] = [echo for echo, _ in read]
            built[name] = [value for _, value in read]
        elif arg is not None:
            inputs[name], built[name] = _load_json_arg(arg, name, kind)
    for name in args.given:
        built[name + "_json"] = inputs[name]
    if "nu" in built and built["mu"].dim != built["nu"].dim:
        raise InputError(
            "mu/dim", f"dim {built['mu'].dim} in {args.mu!r} does not "
            f"match dim {built['nu'].dim} in {args.nu!r}")
    return inputs, built


def _plain(x):
    """``json.dumps``'s default hook: a numpy array becomes a list and a
    numpy scalar a Python scalar."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed flags and the built JSON
# arguments, and returns (results, exit_code)
# ---------------------------------------------------------------------------

def _cmd_ot_solve(args, mu, nu, cost):
    coupling, value = ot.kantorovich_primal(mu, nu, cost)
    return {"value": value, "coupling": coupling.mass,
            "row_marginal_residual": float(np.max(np.abs(
                coupling.mass.sum(axis=1) - mu.weights))),
            "col_marginal_residual": float(np.max(np.abs(
                coupling.mass.sum(axis=0) - nu.weights)))}, 0


def _cmd_ot_dual(args, mu, nu, cost):
    pots, value = ot.kantorovich_dual(mu, nu, cost)
    return {"value": value, "phi": pots.phi, "psi": pots.psi,
            "feasibility_margin": pots.max_violation(cost)}, 0


def _cmd_ot_kr(args, mu, nu, cost):
    f, value = ot.kr_dual(mu, nu, cost)
    coupling, primal = ot.kantorovich_primal(mu, nu, cost)
    return {"value": value, "primal_value": primal,
            "points": f.points, "f": f.values,
            "tight": ot.kr_tight_check(f, coupling, cost, args.tol),
            "coupling": coupling.mass}, 0


def _cmd_ot_multi(args, mu, cost):
    if len(mu) < 2:
        raise InputError("mu", "need at least two --mu arguments")
    cost = MultiCost.pairwise_sum(cost)
    coupling, value = ot.multimarginal_primal(mu, cost)
    pots, dual_value = ot.multimarginal_dual(mu, cost)
    return {"value": value, "dual_value": dual_value,
            "gap": abs(value - dual_value),
            "mass": coupling.mass,
            "potentials": [v for v in pots.values],
            "feasibility_margin": pots.max_violation(cost)}, 0


def _cmd_order_check(args, mu, nu):
    cert = convex_order.convex_order_check(mu, nu)
    if cert.in_order:
        return {"in_order": True, "coupling": cert.coupling.mass}, 0
    return {"in_order": False,
            "witness": {"slopes": cert.witness.slopes,
                        "intercepts": cert.witness.intercepts,
                        "integral_gap": cert.witness.integral_gap(mu, nu)}}, 2


def _barycenter_residual(coupling, mu, nu) -> float:
    drift = np.abs(coupling.mass @ nu.points
                   - coupling.mass.sum(axis=1)[:, None] * mu.points)
    return float(drift.max())


def _cmd_order_couple(args, mu, nu):
    coupling = convex_order.strassen_coupling(mu, nu)
    return {"coupling": coupling.mass, "barycenter_residual":
            _barycenter_residual(coupling, mu, nu)}, 0


def _cmd_order_decompose(args, mu, nu, cost=None):
    rep = convex_order.choquet_represent(mu, nu)
    results = {"representation": convex_order.fan_representation_to_json(rep),
               "recomposition_error": max(rep.recomposition_error(mu, nu)),
               "fans": len(rep.entries)}
    if cost is not None:
        results["representation_cost"] = \
            convex_order.representation_cost(rep, cost)
    return results, 0


def _cmd_mot_solve(args, mu, nu, cost):
    coupling, value = mot.mot_primal(mu, nu, cost)
    return {"value": value, "coupling": coupling.mass, "barycenter_residual":
            _barycenter_residual(coupling, mu, nu)}, 0


def _cmd_mot_dual(args, mu, nu, cost):
    dual, value = mot.mot_dual(mu, nu, cost)
    return {"value": value, "u": dual.u, "v": dual.v, "gamma": dual.gamma,
            "feasibility_margin": dual.max_violation(cost)}, 0


def _cmd_mot_dual_sym(args, mu, nu, cost):
    sym, value = mot.mot_dual_symmetric(mu, nu, cost)
    return {"value": value, "points": sym.points, "f": sym.f,
            "gamma": sym.gamma,
            "feasibility_margin": sym.max_violation(cost)}, 0


def _check_report(check, gap_key):
    """(results, exit code) of a sampled check."""
    return {"ok": check.ok, "samples": check.samples,
            gap_key: check.max_violation,
            "witness": check.witness.to_json() if check.witness else None}, \
        0 if check.ok else 2


def _cmd_class_check(args, f1, f2, cost, domain):
    return _check_report(mot.simplex_inequality_check(
        f1, f2, cost, domain, args.samples, args.seed, args.tol),
        "max_violation")


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


def _cmd_class_certify(args, f1, f2, cost, x, y):
    return _gamma_report(mot.gamma_certify(f1, f2, x, y, cost))


def _cmd_class_generate(args, atoms, cost, atoms_json, cost_json, at=None):
    with _blame("atoms"):
        f = mot.bclass_generate(atoms, cost)
    results = {"evaluator": {"kind": "bclass_sup", "cost": cost_json,
                             "atoms": atoms_json}}
    if at is not None:
        results["points"] = at
        results["values"] = f.on(at)
    return results, 0


def _cmd_class_extend(args, g, cost, gamma, targets,
                      lower_bound=None):
    res = mot.extend(*g, cost, gamma, targets, lower_bound=lower_bound)
    return {"targets": res.targets, "values": res.values,
            "restriction_error": res.restriction_error}, 0


def _cmd_mti_check(args, cost, domain):
    return _check_report(mot.mti_check(
        cost, domain, args.samples, args.seed, args.tol), "max_abs_gap")


def _cmd_mti_hessian(args, cost, grid):
    check = mot.mti_second_order_check(cost, grid, args.step)
    results = {"ok": check.ok}
    if not check.ok:
        results.update({"x": check.x, "y": check.y,
                        "eigenvalue_gap": check.eigenvalue_gap})
    return results, 0 if check.ok else 2


def _cmd_ucvx(args, f, sigma, grid):
    return _gamma_report(mot.uniform_convexity_certify(f, sigma, grid))


def _cmd_usmooth(args, f, sigma, grid):
    return _gamma_report(mot.uniform_smoothness_certify(f, sigma, grid))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args reads it
    and leaves it unchanged, so every call may share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    p = argparse.ArgumentParser(prog="transportkit",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    top = p.add_subparsers(dest="group", required=True)

    def leaf(group, name, handler, given=(), **flags):
        """A leaf command. A flag given as a kind (a key of _KINDS) is a
        required JSON argument of that kind; one given as a dict holds
        add_argument options, and a "kind" among them makes it a JSON
        argument. The handler also takes the JSON arguments named in
        ``given`` as parsed."""
        sp = group.add_parser(name, parents=[common])
        kinds = {}
        for flag, spec in flags.items():
            if isinstance(spec, str):
                spec = {"kind": spec, "required": True}
            spec = dict(spec)
            if "kind" in spec:
                kinds[flag] = spec.pop("kind")
            sp.add_argument("--" + flag.replace("_", "-"), **spec)
        sp.set_defaults(handler=handler, json_kinds=kinds, given=given)

    pair = {"mu": "measure", "nu": "measure"}
    tol = {"type": float, "default": mot.VIOLATION_TOL,
           "help": "check tolerance (default %(default)s)"}
    samples = {"type": int, "default": 1000}

    g_ot = top.add_parser("ot").add_subparsers(dest="cmd", required=True)
    leaf(g_ot, "solve", _cmd_ot_solve, **pair, cost="cost")
    leaf(g_ot, "dual", _cmd_ot_dual, **pair, cost="cost")
    leaf(g_ot, "kr", _cmd_ot_kr, **pair, cost="cost",
         tol=dict(tol, default=1e-7))
    leaf(g_ot, "multi", _cmd_ot_multi,
         mu={"kind": "measure", "required": True, "action": "append",
             "help": "one per marginal, repeatable"},
         cost="cost")

    g_or = top.add_parser("order").add_subparsers(dest="cmd", required=True)
    leaf(g_or, "check", _cmd_order_check, **pair)
    leaf(g_or, "couple", _cmd_order_couple, **pair)
    leaf(g_or, "decompose", _cmd_order_decompose, **pair,
         cost={"kind": "cost"})

    g_mot = top.add_parser("mot").add_subparsers(dest="cmd", required=True)
    leaf(g_mot, "solve", _cmd_mot_solve, **pair, cost="cost")
    leaf(g_mot, "dual", _cmd_mot_dual, **pair, cost="cost")
    leaf(g_mot, "dual-sym", _cmd_mot_dual_sym, **pair, cost="cost")

    g_cl = top.add_parser("class").add_subparsers(dest="cmd", required=True)
    leaf(g_cl, "check", _cmd_class_check, f1="evaluator", f2="evaluator",
         cost="cost", domain="domain", tol=tol, samples=samples)
    leaf(g_cl, "certify", _cmd_class_certify, f1="evaluator",
         f2="evaluator", cost="cost", x="points", y="points")
    leaf(g_cl, "generate", _cmd_class_generate, given=("atoms", "cost"),
         atoms="atoms", cost="cost", at={"kind": "points"})
    leaf(g_cl, "extend", _cmd_class_extend, g="g", cost="cost",
         gamma="points", targets="points", lower_bound={"kind": "evaluator"})

    g_mti = top.add_parser("mti").add_subparsers(dest="cmd", required=True)
    leaf(g_mti, "check", _cmd_mti_check, cost="cost", domain="domain",
         tol=tol, samples=samples)
    leaf(g_mti, "hessian", _cmd_mti_hessian, cost="cost", grid="grid",
         step={"type": float, "default": 1e-4})

    certify = {"f": "evaluator", "sigma": "modulus", "grid": "nodes"}
    g_uc = top.add_parser("ucvx").add_subparsers(dest="cmd", required=True)
    leaf(g_uc, "certify", _cmd_ucvx, **certify)
    g_us = top.add_parser("usmooth").add_subparsers(dest="cmd",
                                                    required=True)
    leaf(g_us, "certify", _cmd_usmooth, **certify)
    return p


_CSV_COMMANDS = {"class certify", "class extend", "ucvx certify",
                 "usmooth certify"}


def _to_csv(command: str, results: dict) -> str:
    if command == "class extend":
        pts, rows = results["targets"], [[v] for v in results["values"]]
        header = ["value"]
    else:
        pts, rows = results["points"], results["gamma"]
        header = [f"gamma{i}" for i in range(len(pts[0]))]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([f"x{i}" for i in range(len(pts[0]))] + header)
    for p, r in zip(pts, rows):
        w.writerow(list(p) + list(r))
    return buf.getvalue()


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code == 0:
            # --help and --version
            raise
        # a usage error, whose message argparse has written to stderr
        return 1
    command = args.group + (f" {args.cmd}" if getattr(args, "cmd", None)
                            else "")
    if args.format == "csv" and command not in _CSV_COMMANDS:
        print(f"error: csv format is only available for "
              f"{sorted(_CSV_COMMANDS)}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    try:
        inputs, built = _read_arguments(args)
        try:
            results, code = args.handler(args, **built)
        except NotInConvexOrder as e:
            # a pair out of convex order is a verdict, reported as such
            results, code = {"error": str(e)}, 2
    except NumericalBreakdown as e:
        print(f"error: numerical breakdown: {e}", file=sys.stderr)
        return 3
    except (InputError, TransportkitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if args.format == "csv":
        if not results.get("ok", True):
            # a refuted certification has no gamma table to print
            print("error: format: csv output needs a certified gamma "
                  "table", file=sys.stderr)
            return 1
        payload = _to_csv(command, results)
    else:
        report = {"command": command, "inputs": inputs,
                  "results": results, "timing_ms": elapsed_ms,
                  "seed": args.seed, "tool_version": __version__}
        payload = json.dumps(report, default=_plain)

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
