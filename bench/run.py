"""Closed-loop benchmark of transportkit: one client, one process, one
thread.

    python3 bench/run.py --workload ot_duality --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs the named workload's tasks back to back for ``--seconds`` seconds (and
at least MIN_TASKS tasks, so task_s.p90 has ten samples beyond it), then
checks every output against independent computations (checks.py) and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: set-up time,
throughput, task-time percentiles and peak memory, the times scaled to a
reference host speed measured in the same run (hostspeed.py); the lines
before it give them as measured too. With ``--trace 1`` the run wraps the
program's layers (tracing.py) and reports per-layer metrics in wall-clock
seconds, with the run's wall-clock throughput and the kernel time the
scaling rests on.
The program is imported from ``src/`` next to this directory; the run
fails without printing a result when it is not there.
"""

import os
import sys

# One BLAS thread before numpy is first imported: default OpenBLAS
# threading stalls fresh processes on a small machine (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("ot_duality", "mot_order", "certify_grid")
MIN_TASKS = 100
SETUP_PROBES = 6   # extra fresh-process set-ups; setup_s is the median
# mot_order pairs are in convex order by construction, yet 0.4 to 1 % of
# them hit one of the program's faults named in CHANGES.md (FOUND lines):
# the fan fault, a false "not in convex order" verdict, or a
# NumericalBreakdown after the whole tolerance ladder. Which pairs do
# depends on the seed, so counting them as failures would make the failure
# share differ between runs. A task whose every problem matches one of
# these faults is voided instead: left out of the counts and timings and
# named on stderr. Any other problem, on any workload, makes the run
# incorrect, and so do voided tasks beyond MAX_VOIDED_SHARE of a run.
KNOWN_FAULTS = {"mot_order": re.compile(
    r"choquet_represent failed: BarycenterMismatch: "
    r"|(order_forward|choquet_represent|mot_primal|mot_dual) failed: "
    r"NotInConvexOrder: "
    r"|order_forward: refused a pair in convex order$"
    r"|\w+ failed: NumericalBreakdown: ")}
MAX_VOIDED_SHARE = 0.05


def is_known_fault(workload, problems) -> bool:
    """True when a task's problems (a non-empty list) are all known faults
    of the program, so the task is voided rather than counted wrong."""
    known = KNOWN_FAULTS.get(workload)
    return bool(known) and all(known.match(p) for p in problems)


@dataclass
class Task:
    """A timed task as kept for checking: its index (its inputs are
    generated again from it), its number of operations, the errors of the
    failed ones and its duration. Its outputs wait in a file, so memory
    does not grow with the run."""

    index: int
    operations: int
    errors: dict
    seconds: float
    path: str


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def import_program():
    """Import transportkit from ROOT/src; returns (module, seconds)."""
    src = ROOT / "src"
    if not (src / "transportkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no transportkit sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import transportkit
    import transportkit.cli  # noqa: F401 - not imported by the package
    import_s = time.perf_counter() - t0
    if Path(transportkit.__file__).resolve().parent != src / "transportkit":
        raise SystemExit(f"error: imported {transportkit.__file__}, "
                         f"not the sources under {src}")
    return transportkit, import_s


def setup_probe(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(args):
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as out_dir:
        return measure(args, out_dir)


def measure(args, out_dir):
    clock = time.perf_counter
    tk, import_s = import_program()
    import hostspeed
    import workloads as wl

    gen, run = wl.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(tk)

    t0 = clock()
    run(tk, gen(wl.WARMUP_SEED, wl.WARMUP_INDEX), out_dir)
    setup_s = import_s + clock() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    tasks, kernel_s = [], []
    start = clock()
    while clock() - start < args.seconds or len(tasks) < MIN_TASKS:
        inp = gen(args.seed, len(tasks))
        if tracer:
            tracer.task = len(tasks)
        t0 = clock()
        outcomes = run(tk, inp, out_dir)
        dt = clock() - t0
        if tracer:
            tracer.task = -1
        path = os.path.join(out_dir, f"task-{len(tasks)}.pickle")
        with open(path, "wb") as fh:
            pickle.dump({k: wl.extract(k, o) for k, o in outcomes.items()},
                        fh)
        tasks.append(Task(len(tasks), len(outcomes),
                          {k: o.error for k, o in outcomes.items()
                           if o.error}, dt, path))
        del outcomes
        t0 = clock()
        hostspeed.kernel()
        kernel_s.append(clock() - t0)
    elapsed = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    setups = [setup_s]
    if not args.trace:
        setups += [setup_probe(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]

    import checks
    kept, voided, wrong = [], [], []
    for task in tasks:
        with open(task.path, "rb") as fh:
            data = pickle.load(fh)
        problems = checks.check(args.workload, gen(args.seed, task.index),
                                data)
        problems += [f"{name} failed: {err}"
                     for name, err in task.errors.items()]
        if not problems:
            kept.append(task)
            continue
        if is_known_fault(args.workload, problems):
            voided.append(task)
            label = "voided (known fault)"
        else:
            wrong.append(task)
            label = "WRONG"
        print(f"{label} task {task.index}: {'; '.join(problems)}",
              file=sys.stderr)
    durations = [t.seconds for t in kept]
    attempted = sum(t.operations for t in kept)
    failed = sum(len(t.errors) for t in kept)
    correct = not wrong and len(voided) <= MAX_VOIDED_SHARE * len(tasks)

    n = len(durations)
    busy = sum(durations)   # the program's time, without the benchmark's
    scale = hostspeed.scale(kernel_s)
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    voided_pct = 100.0 * len(voided) / len(tasks)
    wall = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (n / busy, "1/s"),
        "task_s.p50": (deciles[4], "s"),
        "task_s.p90": (deciles[8], "s"),
    }
    if tracer:
        gone = {t.index for t in voided + wrong}
        for span in tracer.spans:
            if span[5] in gone:
                span[5] = -1
        tracer.dump(str(OUT / f"trace-{args.workload}-{args.seed}.jsonl"))
        metrics = tracer.summary(n, import_s)
        for name in ("tasks_per_s", "task_s.p50", "task_s.p90"):
            v, unit = wall[name]
            metrics["wall." + name] = {"value": v, "unit": unit}
        metrics["host.kernel_ms"] = {
            "value": 1e3 * statistics.median(kernel_s), "unit": "ms"}
        metrics["voided_tasks_pct"] = {"value": voided_pct, "unit": "%"}
    else:
        metrics = {name: {"value": v / scale if unit == "1/s" else v * scale,
                          "unit": unit}
                   for name, (v, unit) in wall.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(f"# {args.workload} seed {args.seed}: {n} tasks, {busy:.2f} s of "
          f"{elapsed:.2f} s in the program ({n / busy:.3f} tasks/s "
          f"wall, {n / busy / scale:.3f} scaled"
          f"{', traced' if tracer else ''}), kernel median "
          f"{1e3 * statistics.median(kernel_s):.3f} ms, scale {scale:.4f}, "
          f"{len(voided)} voided ({voided_pct:.2f} %), {len(wrong)} wrong, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if not tracer:
        for name, (v, unit) in wall.items():
            print(f"#   {name} as measured = {v:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
