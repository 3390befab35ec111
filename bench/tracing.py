"""Span tracing from outside the program.

The tracer replaces module attributes of transportkit with wrappers that
record one span per call: name, layer, start, end, parent span and task id.
The program's own callers look these attributes up at call time
(``lp.solve`` inside ``ot.kantorovich_primal``, ``cost.pairwise`` inside
every solver), so calls between layers are traced as well. Spans stay in
memory and are written out when the run ends.

Layers and what is wrapped:
  lp            solve, check_feasibility
  ot            every public function of transportkit.ot
  convex_order  every public function of transportkit.convex_order
  mot           every public function of transportkit.mot
  measures      CostSpec.pairwise
  cli           every public function of transportkit.cli
"""

from __future__ import annotations

import inspect
import json
import os
import time

LAYERS = ("lp", "ot", "convex_order", "mot", "measures", "cli")


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent, task, extra]
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []
        self.task = -1

    # -- wrapping --

    def _wrap(self, owner, attr, layer, extra=None):
        orig = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[6] = extra(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def install(self, tk):
        self._wrap(tk.lp, "solve", "lp", _solve_extra)
        self._wrap(tk.lp, "check_feasibility", "lp", _feasibility_extra)
        extra = {"convex_order.choquet_represent": _fans_extra,
                 "cli.run": _report_extra}
        for layer in ("ot", "convex_order", "mot", "cli"):
            mod = getattr(tk, layer)
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                self._wrap(mod, attr, layer, extra.get(f"{layer}.{attr}"))
        self._wrap(tk.measures.CostSpec, "pairwise", "measures")

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- reporting --

    def summary(self, tasks: int, import_s: float) -> dict:
        """Per-layer metrics over the spans of timed tasks (task >= 0).
        Counts and times are means per task; dense_mb.max is the largest
        LP of the run."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for k, s in enumerate(spans):
            if s[4] >= 0:
                child_time[s[4]] += dur[k]

        def outermost(k):
            # no ancestor of the same layer
            layer, p = spans[k][1], spans[k][4]
            while p >= 0:
                if spans[p][1] == layer:
                    return False
                p = spans[p][4]
            return True

        total = {layer: 0.0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        by_name: dict = {}
        for k, s in enumerate(spans):
            if s[5] < 0:
                continue
            self_s[s[1]] += dur[k] - child_time[k]
            if outermost(k):
                total[s[1]] += dur[k]
            agg = by_name.setdefault(s[0], {"calls": 0, "s": 0.0,
                                            "extra": {}})
            agg["calls"] += 1
            agg["s"] += dur[k]
            for key, v in (s[6] or {}).items():
                if key.endswith(".max"):
                    agg["extra"][key] = max(agg["extra"].get(key, 0.0), v)
                else:
                    agg["extra"][key] = agg["extra"].get(key, 0) + v

        def named(name, key=None):
            agg = by_name.get(name, {"calls": 0, "s": 0.0, "extra": {}})
            if key is None:
                return agg
            return agg["extra"].get(key, 0)

        n = max(tasks, 1)
        solve, feas = named("lp.solve"), named("lp.check_feasibility")
        pair, fan = named("measures.pairwise"), \
            named("convex_order.fan_decompose")
        run = named("cli.run")
        m = {
            "lp.solve.calls": (solve["calls"] / n, "count"),
            "lp.solve.s": (solve["s"] / n, "s"),
            "lp.solve.pivots": (named("lp.solve", "pivots") / n, "count"),
            "lp.solve.rows": (named("lp.solve", "rows") / n, "count"),
            "lp.solve.dense_mb.max":
                (named("lp.solve", "dense_mb.max"), "MB"),
            "lp.feasibility.calls": (feas["calls"] / n, "count"),
            "lp.feasibility.s": (feas["s"] / n, "s"),
            "lp.feasibility.rows":
                (named("lp.check_feasibility", "rows") / n, "count"),
            "ot.s": (total["ot"] / n, "s"),
            "ot.self_s": (self_s["ot"] / n, "s"),
            "convex_order.s": (total["convex_order"] / n, "s"),
            "convex_order.self_s": (self_s["convex_order"] / n, "s"),
            "convex_order.fan_decompose.s": (fan["s"] / n, "s"),
            "convex_order.fans":
                (named("convex_order.choquet_represent", "fans") / n,
                 "count"),
            "mot.s": (total["mot"] / n, "s"),
            "mot.self_s": (self_s["mot"] / n, "s"),
            "measures.pairwise.calls": (pair["calls"] / n, "count"),
            "measures.pairwise.s": (pair["s"] / n, "s"),
            "cli.run.s": (run["s"] / n, "s"),
            "cli.self_s": (self_s["cli"] / n, "s"),
            "cli.report_bytes":
                (named("cli.run", "report_bytes") / n, "B"),
            "import.s": (import_s, "s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def dump(self, path: str):
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _solve_extra(args, kwargs, sol):
    prog = args[0] if args else kwargs["lp"]
    rows, cols = prog.n_rows, prog.n_vars
    return {"rows": rows, "pivots": sol.iterations,
            "dense_mb.max": rows * cols * 8 / 1e6}


def _feasibility_extra(args, kwargs, res):
    cons = args[0] if args else kwargs["constraints"]
    return {"rows": len(cons)} if hasattr(cons, "__len__") else None


def _fans_extra(args, kwargs, rep):
    return {"fans": len(rep.entries)}


def _report_extra(args, kwargs, code):
    argv = list(args[0] if args else kwargs["argv"])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if code in (0, 2) and os.path.exists(path):
            return {"report_bytes": os.path.getsize(path)}
    return None
