"""Self-test of the output checks: each check must accept a real output of
the program and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Runs one task of each workload, checks its real outputs (no error may be
reported), then applies each corruption below to a copy and requires the
checks to report at least one error that the runner does not take for a
known fault of the program (which would void the task instead of marking
the run incorrect). Exits 1 if any real output is rejected or any
corruption slips through.
"""

import copy
import sys
import tempfile

import run as runner  # pins BLAS threads before numpy is imported
import checks
import workloads as wl


def _shift_mass(name):
    def corrupt(data, inp):
        m = data[name]["mass"].reshape(-1)
        k = int(m.argmax())
        m[k] -= 1e-3
        m[(k + 1) % m.size] += 1e-3
    return corrupt


def _add(name, key, delta, index=0):
    def corrupt(data, inp):
        if isinstance(data[name][key], float):
            data[name][key] += delta
        else:
            data[name][key].reshape(-1)[index] += delta
    return corrupt


def _set(name, key, value):
    def corrupt(data, inp):
        data[name][key] = value
    return corrupt


def _martingale_drift(data, inp):
    # keeps both marginals, moves barycenters of source points 0 and 1
    m = data["order_forward"]["mass"]
    j1, j2 = int(m[0].argmax()), int(m[1].argmax())
    e = 0.5 * min(m[0, j1], m[1, j2])
    m[0, j1] -= e
    m[0, j2] += e
    m[1, j2] -= e
    m[1, j1] += e


def _drop_fan(data, inp):
    data["choquet_represent"]["fans"].pop()


def _move_fan_atom(data, inp):
    fans = data["choquet_represent"]["fans"]
    w, centre, atoms, lam = fans[0]
    atoms = atoms.copy()
    atoms[0] += 1e-6
    fans[0] = (w, centre, atoms, lam)


def _flat_witness(data, inp):
    data["order_reverse"]["slopes"] = \
        0.0 * data["order_reverse"]["slopes"]


def _huge_flat_witness(data, inp):
    # a constant function has no gap, but at this scale rounding of the
    # weights makes one up
    _flat_witness(data, inp)
    c = data["order_reverse"]["intercepts"]
    data["order_reverse"]["intercepts"] = 0.0 * c + 5.146971002709138e15


def _reverse_dual_returned(data, inp):
    data["mot_dual_reverse"] = copy.deepcopy(data["mot_dual"])


def _gamma(name, delta):
    def corrupt(data, inp):
        g = data[name]["results"]["gamma"]
        g[0][0] += delta
    return corrupt


def _feasible_binding(data, inp):
    # two rows in the same direction never form an infeasible core
    P = wl.grid_points()
    c = inp["centre"]
    cex = data["ucvx_raised_centre"]["results"]["counterexample"]
    cex["binding"] = [{"y": P[c + 7].tolist(), "coefficient": 1.0},
                      {"y": P[c + 14].tolist(), "coefficient": 1.0}]


def _off_centre(data, inp):
    data["ucvx_raised_centre"]["results"]["counterexample"]["index"] -= 1


CORRUPTIONS = {
    "ot_duality": [
        ("shifted coupling mass", _shift_mass("kantorovich_primal")),
        ("primal value off by 1e-6",
         _add("kantorovich_primal", "value", 1e-6)),
        ("raised phi", _add("kantorovich_dual", "phi", 1e-3)),
        ("dual value off by 1e-6", _add("kantorovich_dual", "value", 1e-6)),
        ("KR value off by 1e-6", _add("kr_dual", "value", 1e-6)),
        ("KR potential stretched",
         lambda d, i: d["kr_dual"].update(f=1.01 * d["kr_dual"]["f"])),
        ("shifted multimarginal mass", _shift_mass("multimarginal_primal")),
        ("raised multimarginal potential",
         lambda d, i: d["multimarginal_dual"]["f"][0].__setitem__(
             0, d["multimarginal_dual"]["f"][0][0] + 1e-3)),
    ],
    "mot_order": [
        ("shifted Strassen coupling mass", _shift_mass("order_forward")),
        ("martingale drift at equal marginals", _martingale_drift),
        ("flat convex witness", _flat_witness),
        ("flat witness at 5e15, as seen from lp.py", _huge_flat_witness),
        ("reverse pair accepted", _set("order_reverse", "in_order", True)),
        ("dropped fan", _drop_fan),
        ("fan atom moved off its barycenter", _move_fan_atom),
        ("shifted MOT coupling mass", _shift_mass("mot_primal")),
        ("MOT value off by 1e-6", _add("mot_primal", "value", 1e-6)),
        ("perturbed gamma", _add("mot_dual", "gamma", 0.1)),
        ("MOT dual value off by 1e-6", _add("mot_dual", "value", 1e-6)),
        ("reverse MOT dual returned a value", _reverse_dual_returned),
    ],
    "certify_grid": [
        ("perturbed ucvx gamma", _gamma("ucvx_quadratic", 5.0)),
        ("feasible binding rows", _feasible_binding),
        ("counterexample off the centre", _off_centre),
        ("perturbed class gamma", _gamma("class_bclass", -5.0)),
        ("certified verdict flipped",
         lambda d, i: d["class_bclass"].update(code=2)),
    ],
}


def main():
    tk, _ = runner.import_program()
    problems = 0
    runner.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-",
                                     dir=runner.OUT) as out_dir:
        for workload, cases in CORRUPTIONS.items():
            gen, run = wl.WORKLOADS[workload]
            inp = gen(1, 0)
            outcomes = run(tk, inp, out_dir)
            data = {k: wl.extract(k, o) for k, o in outcomes.items()}
            real = checks.check(workload, inp, data)
            print(f"{workload}: real outputs -> "
                  f"{'accepted' if not real else real}")
            problems += bool(real)
            for label, corrupt in cases:
                bad = copy.deepcopy(data)
                corrupt(bad, inp)
                errs = checks.check(workload, inp, bad)
                if not errs:
                    verdict = "ACCEPTED"
                elif runner.is_known_fault(workload, errs):
                    verdict = f"VOIDED as a known fault ({errs[0]})"
                else:
                    verdict = f"rejected ({errs[0]})"
                print(f"  {label}: {verdict}")
                problems += not verdict.startswith("rejected")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
