import argparse
import builtins
import json

import numpy as np
import pytest
from conftest import count_solves

from transportkit import cli, convex_order
from transportkit.errors import NumericalBreakdown
from transportkit.functions import Box, Grid
from transportkit.measures import CostSpec


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def measures(tmp_path):
    return {
        "d0": write(tmp_path, "d0.json",
                    {"dim": 1, "points": [[0.0]], "weights": [1.0]}),
        "d1": write(tmp_path, "d1.json",
                    {"dim": 1, "points": [[1.0]], "weights": [1.0]}),
        "pm1": write(tmp_path, "pm1.json",
                     {"dim": 1, "points": [[-1.0], [1.0]],
                      "weights": [0.5, 0.5]}),
        "nu3": write(tmp_path, "nu3.json",
                     {"dim": 1, "points": [[-2.0], [0.0], [2.0]],
                      "weights": [0.25, 0.5, 0.25]}),
    }


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_ot_solve_dirac_pair(measures, capsys):
    code, report = run(capsys, [
        "ot", "solve", "--mu", measures["d0"], "--nu", measures["d1"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0)
    assert report["command"] == "ot solve"


def test_order_check_not_in_order_exit_2(measures, capsys):
    code, report = run(capsys, [
        "order", "check", "--mu", measures["pm1"], "--nu", measures["d0"]])
    assert code == 2
    assert report["results"]["in_order"] is False
    assert report["results"]["witness"]["integral_gap"] > 1e-10


def test_order_check_in_order_exit_0(measures, capsys):
    code, report = run(capsys, [
        "order", "check", "--mu", measures["pm1"], "--nu", measures["nu3"]])
    assert code == 0
    assert report["results"]["in_order"] is True
    # the one martingale coupling splits each of -1, 1 evenly
    assert np.allclose(report["results"]["coupling"],
                       [[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]], atol=1e-9)


def test_order_couple_cli(measures, capsys):
    # order check reports the martingale coupling and its barycenter residual
    code, report = run(capsys, [
        "order", "check", "--mu", measures["pm1"], "--nu", measures["nu3"]])
    assert code == 0
    mass = np.array(report["results"]["coupling"])
    assert np.allclose(mass, [[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]],
                       atol=1e-9)
    assert report["results"]["barycenter_residual"] <= 1e-9


def test_order_decompose_with_cost(measures, capsys):
    # two fans, each moving its mass a distance 1
    code, report = run(capsys, [
        "order", "decompose", "--mu", measures["pm1"],
        "--nu", measures["nu3"], "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["fans"] == 2
    assert report["results"]["representation_cost"] == pytest.approx(
        1.0, abs=1e-9)


def test_order_decompose_two_fans(measures, capsys):
    code, report = run(capsys, [
        "order", "decompose", "--mu", measures["pm1"],
        "--nu", measures["nu3"]])
    assert code == 0
    assert report["results"]["fans"] == 2
    assert report["results"]["recomposition_error"] <= 1e-9


def test_mot_solve_hand_instance(measures, capsys):
    code, report = run(capsys, [
        "mot", "solve", "--mu", measures["pm1"], "--nu", measures["nu3"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_ot_dual_cli(measures, capsys):
    # ot solve reports the potentials of its one solve beside the coupling
    code, report = run(capsys, [
        "ot", "solve", "--mu", measures["d0"], "--nu", measures["d1"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    results = report["results"]
    assert results["dual_value"] == pytest.approx(1.0)
    assert results["phi"][0] - results["psi"][0] == pytest.approx(1.0)
    assert results["feasibility_margin"] <= 1e-9
    assert results["gap"] <= 1e-9


def test_mot_dual_cli(measures, capsys):
    # mot solve reports (u, v, gamma) of its one solve beside the coupling
    code, report = run(capsys, [
        "mot", "solve", "--mu", measures["pm1"], "--nu", measures["nu3"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    results = report["results"]
    assert results["dual_value"] == pytest.approx(1.0, abs=1e-9)
    assert results["feasibility_margin"] <= 1e-9
    assert results["gap"] <= 1e-9
    assert len(results["u"]) == 2 and len(results["v"]) == 3
    assert np.shape(results["gamma"]) == (2, 1)


EUCLIDEAN = '{"kind":"euclidean"}'


@pytest.mark.parametrize("argv", [
    ["ot", "solve", "--mu", "pm1", "--nu", "nu3", "--cost", EUCLIDEAN],
    ["ot", "kr", "--mu", "pm1", "--nu", "nu3", "--cost", EUCLIDEAN],
    ["ot", "multi", "--mu", "pm1", "--mu", "nu3", "--mu", "d1",
     "--cost", EUCLIDEAN],
    ["mot", "solve", "--mu", "pm1", "--nu", "nu3", "--cost", EUCLIDEAN],
    ["order", "check", "--mu", "pm1", "--nu", "nu3"],
    ["order", "decompose", "--mu", "pm1", "--nu", "nu3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_each_solving_command_solves_once(measures, capsys, monkeypatch,
                                          argv):
    # the coupling and its certificate are read off one LP
    calls = count_solves(monkeypatch)
    code, report = run(capsys, [measures.get(a, a) for a in argv])
    assert code == 0 and report["command"] == " ".join(argv[:2])
    assert len(calls) == 1


def test_mot_dual_sym(measures, capsys):
    code, report = run(capsys, [
        "mot", "dual-sym", "--mu", measures["d0"], "--nu", measures["pm1"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert report["results"]["feasibility_margin"] <= 1e-9


def test_mot_dual_sym_one_dirac(measures, capsys):
    # mu = nu = one Dirac: the flow LP has no columns and value 0
    reports = {}
    for cmd in ("dual-sym", "solve"):
        code, report = run(capsys, [
            "mot", cmd, "--mu", measures["d0"], "--nu", measures["d0"],
            "--cost", '{"kind":"euclidean"}'])
        assert code == 0, cmd
        reports[cmd] = report["results"]
    assert reports["dual-sym"]["value"] == 0
    assert reports["dual-sym"]["value"] == reports["solve"]["dual_value"]
    assert reports["dual-sym"]["feasibility_margin"] == 0.0


def test_validation_diagnostics(tmp_path, capsys):
    bad = write(tmp_path, "bad.json",
                {"dim": 1, "points": [[0.0], [1.0]], "weights": [0.5, 0.4]})
    ok = write(tmp_path, "ok.json",
               {"dim": 1, "points": [[0.0]], "weights": [1.0]})
    code = cli.main(["ot", "solve", "--mu", bad, "--nu", ok,
                     "--cost", '{"kind":"euclidean"}'])
    err = capsys.readouterr().err
    assert code == 1
    assert "weights" in err

    two_d = write(tmp_path, "two_d.json",
                  {"dim": 2, "points": [[0.0, 0.0]], "weights": [1.0]})
    code = cli.main(["ot", "solve", "--mu", ok, "--nu", two_d,
                     "--cost", '{"kind":"euclidean"}'])
    err = capsys.readouterr().err
    assert code == 1
    assert "ok.json" in err and "two_d.json" in err


def test_reports_reproducible(measures, capsys):
    argv = ["class", "check", "--f1", '{"kind":"neg_quadratic"}',
            "--f2", '{"kind":"neg_quadratic"}',
            "--cost", '{"kind":"linear","a":[0.0]}',
            "--domain", "[[-1.0,1.0]]", "--samples", "200", "--seed", "9"]
    code1, rep1 = run(capsys, argv)
    code2, rep2 = run(capsys, argv)
    assert code1 == code2 == 2  # witness found
    assert rep1["results"] == rep2["results"]


def test_class_extend_csv(tmp_path, capsys):
    K = np.linspace(-1, 1, 21)
    g = write(tmp_path, "g.json",
              {"points": [[x] for x in K], "values": [x * x for x in K]})
    gamma = write(tmp_path, "gamma.json", [[-2.0 * x] for x in K])
    code = cli.main(["class", "extend", "--g", g,
                     "--cost", '{"kind":"linear","a":[0.0]}',
                     "--gamma", gamma, "--targets", "[[2.0]]",
                     "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x0,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(3.0, abs=1e-3)

    code, report = run(capsys, [
        "class", "extend", "--g", g, "--cost", '{"kind":"linear","a":[0.0]}',
        "--gamma", gamma, "--targets", "[[2.0]]"])
    assert code == 0
    assert report["inputs"]["gamma"] == [[-2.0 * x] for x in K]
    assert report["inputs"]["targets"] == [[2.0]]


def test_csv_rejected_for_structured_commands(measures, capsys):
    code = cli.main(["ot", "solve", "--mu", measures["d0"],
                     "--nu", measures["d1"],
                     "--cost", '{"kind":"euclidean"}', "--format", "csv"])
    assert code == 1


def _csv_rows(capsys, argv):
    code = cli.main(argv + ["--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[0], np.array([[float(v) for v in line.split(",")]
                                     for line in lines[1:]])


def test_ucvx_certify_csv(capsys):
    # f = x^2 meets sigma(t) = t^2 with equality, so gamma is f' = 2x
    code, header, rows = _csv_rows(capsys, [
        "ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--sigma", '{"kind":"power","p":2}',
        "--grid", '{"box":[[-1.0,1.0]],"counts":[5]}'])
    assert code == 0 and header == "x0,gamma0"
    assert rows[:, 0].tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert np.allclose(rows[:, 1], 2.0 * rows[:, 0], atol=1e-9)


def test_class_certify_csv(capsys):
    code, header, rows = _csv_rows(capsys, [
        "class", "certify",
        "--f1", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--f2", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--cost", '{"kind":"linear","a":[0.0]}',
        "--x", "[[-1.0],[0.0],[1.0]]", "--y", "[[-1.0],[0.0],[1.0]]"])
    assert code == 0 and header == "x0,gamma0"
    assert rows.shape == (3, 2)
    assert rows[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_csv_refused_for_failed_certification(capsys):
    # the counterexample of a refuted certification has no csv table
    code = cli.main([
        "usmooth", "certify",
        "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--sigma", '{"kind":"zero"}',
        "--grid", '{"box":[[-1.0,1.0]],"counts":[9]}', "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "csv output needs a certified gamma table" in captured.err


def test_numerical_breakdown_exits_3(measures, capsys, monkeypatch):
    def breaks(mu, nu):
        raise NumericalBreakdown("basis became singular during refresh")
    monkeypatch.setattr(convex_order, "convex_order_check", breaks)
    code = cli.main(["order", "check", "--mu", measures["pm1"],
                     "--nu", measures["nu3"]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: numerical breakdown: basis became "
                            "singular during refresh\n")


@pytest.mark.parametrize("argv, message", [
    # squared distance breaks the triangle inequality: NotAMetric
    (["ot", "kr", "--mu", "pm1", "--nu", "nu3",
      "--cost", '{"kind":"sq_euclidean"}'], "triangle violation"),
    # a one-node axis: GridTooCoarse, another TransportkitError
    (["mti", "hessian", "--cost", '{"kind":"sq_euclidean"}',
      "--grid", '{"box":[[-1.0,1.0]],"counts":[1]}'],
     "need at least two nodes per axis"),
    # a kink on the diagonal: NonSmoothDiagonal
    (["mti", "hessian", "--cost", '{"kind":"euclidean"}',
      "--grid", '{"box":[[-1.0,1.0]],"counts":[9]}'],
     "not twice differentiable across the diagonal"),
    # a 1-D quadratic on 2-D points: DimensionMismatch
    (["ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--sigma", '{"kind":"power","p":2}',
      "--grid", '{"box":[[-1.0,1.0],[-1.0,1.0]],"counts":[3,3]}'],
     "quadratic evaluator is 1-D, got 2-D points"),
    (["class", "certify",
      "--f1", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--f2", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}',
      "--x", "[[1.0,2.0]]", "--y", "[[-1.0],[0.0],[1.0]]"],
     "quadratic evaluator is 1-D, got 2-D points"),
    # no samples, or a difference step that is not positive:
    # BadCheckParameter
    (["mti", "check", "--cost", '{"kind":"euclidean"}',
      "--domain", "[[-1.0,1.0]]", "--samples", "0"],
     "need at least one sample, got 0"),
    (["class", "check", "--f1", '{"kind":"neg_quadratic"}',
      "--f2", '{"kind":"neg_quadratic"}',
      "--cost", '{"kind":"linear","a":[0.0]}',
      "--domain", "[[-1.0,1.0]]", "--samples", "-3"],
     "need at least one sample, got -3"),
    (["mti", "hessian", "--cost", '{"kind":"sq_euclidean"}',
      "--grid", '{"box":[[-1.0,1.0]],"counts":[9]}', "--step", "0"],
     "step h must be finite and positive, got 0.0"),
    # a NaN weight, which the sum and sign checks pass: MassNotOne
    (["order", "check",
      "--mu", '{"dim":1,"points":[[0.0],[1.0]],"weights":[NaN,0.5]}',
      "--nu", "d0"],
     "mu/weights: weights contain non-finite values"),
    # a cost without growth metadata: MissingGrowth
    (["class", "extend", "--g", '{"points":[[0.0],[1.0]],"values":[0.0,1.0]}',
      "--cost", '{"kind":"sq_euclidean"}', "--gamma", "[[0.0],[0.0]]",
      "--targets", "[[2.0]]"],
     "extension requires growth metadata"),
    # a gamma whose envelope is 6 at 0, where g is 0: RestrictionDeviates
    (["class", "extend", "--g", '{"points":[[0.0],[1.0]],"values":[0.0,1.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}', "--gamma", "[[0.0],[5.0]]",
      "--targets", "[[2.0]]"],
     "gamma does not certify g on the grid: restriction deviates by 6.000e"),
    # unsorted modulus samples, which np.interp would misread
    (["ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--sigma", '{"kind":"samples","ts":[0,3,1],"values":[0,9,0.1]}',
      "--grid", "[[-1.0],[0.0],[1.0]]"],
     "sigma: sample modulus needs matching non-empty arrays, ts strictly "
     "increasing"),
    # NaN and infinities, which order and sign checks pass: NonFinite
    (["ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[NaN]],"b":[0.0]}',
      "--sigma", '{"kind":"power","p":2}', "--grid", "[[-1.0],[0.0],[1.0]]"],
     "f: quadratic evaluator arrays contain non-finite values"),
    (["ucvx", "certify", "--f", '{"kind":"samples","points":[[0.0],[1.0]],'
      '"values":[0.0,Infinity]}', "--sigma", '{"kind":"power","p":2}',
      "--grid", "[[0.0],[1.0]]"],
     "f: samples evaluator arrays contain non-finite values"),
    (["ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--sigma", '{"kind":"power","p":NaN}', "--grid", "[[-1.0],[0.0],[1.0]]"],
     "sigma: modulus parameters contain non-finite values"),
    (["class", "certify", "--f1", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--f2", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--cost", '{"kind":"linear","a":[NaN]}',
      "--x", "[[0.0]]", "--y", "[[-1.0],[1.0]]"],
     "cost: linear cost parameters contain non-finite values"),
    # NaN and infinities in point lists and g: NonFinite, before any fit
    # or LP sees them
    (["ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--sigma", '{"kind":"power","p":2}', "--grid", "[[-1.0],[NaN],[1.0]]"],
     "grid: point coordinates contain non-finite values"),
    (["class", "certify", "--f1", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--f2", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}',
      "--x", "[[Infinity]]", "--y", "[[-1.0],[1.0]]"],
     "x: point coordinates contain non-finite values"),
    (["class", "certify", "--f1", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--f2", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}',
      "--x", "[[0.0]]", "--y", "[[-1.0],[NaN]]"],
     "y: point coordinates contain non-finite values"),
    (["class", "generate", "--atoms", '[{"y":[0.0],"a":[0.0],"b":0.0}]',
      "--cost", '{"kind":"euclidean"}', "--at", "[[NaN]]"],
     "at: point coordinates contain non-finite values"),
    (["class", "extend", "--g", '{"points":[[0.0],[1.0]],"values":[0.0,1.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}', "--gamma", "[[0.0],[NaN]]",
      "--targets", "[[2.0]]"],
     "gamma: point coordinates contain non-finite values"),
    (["class", "extend", "--g", '{"points":[[0.0],[1.0]],"values":[0.0,1.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}', "--gamma", "[[0.0],[0.0]]",
      "--targets", "[[-Infinity]]"],
     "targets: point coordinates contain non-finite values"),
    (["class", "extend", "--g", '{"points":[[0.0],[NaN]],"values":[0.0,1.0]}',
      "--cost", '{"kind":"linear","a":[0.0]}', "--gamma", "[[0.0],[0.0]]",
      "--targets", "[[2.0]]"],
     "g: point coordinates contain non-finite values"),
    (["class", "extend", "--g", '{"points":[[0.0],[1.0]],"values":[0.0,NaN]}',
      "--cost", '{"kind":"linear","a":[0.0]}', "--gamma", "[[0.0],[0.0]]",
      "--targets", "[[2.0]]"],
     "g: values contain non-finite values"),
])
def test_toolkit_errors_exit_1(measures, capsys, argv, message):
    code = cli.main([measures.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["ot", "solve", "--mu", "{}", "--nu", "{}", "--cost", "{}", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["ot", "solve", "--mu", "{}"],
     "the following arguments are required: --nu, --cost"),
    (["nosuch", "solve"], "invalid choice: 'nosuch'"),
    # --tol and --samples belong to the commands that read them
    (["ot", "solve", "--mu", "{}", "--nu", "{}", "--cost", "{}",
      "--samples", "5"], "unrecognized arguments: --samples 5"),
    (["mot", "solve", "--mu", "{}", "--nu", "{}", "--cost", "{}",
      "--tol", "0.1"], "unrecognized arguments: --tol 0.1"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage: ") and message in captured.err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        cli.run([flag])
    assert exit_.value.code == 0 and capsys.readouterr().out


UCVX_F ='{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}'
UCVX_SIGMA = '{"kind":"power","p":2}'
UCVX_GRID = '{"box":[[-1.0,1.0]],"counts":[5]}'


@pytest.mark.parametrize("argv, label", [
    (["ucvx", "certify", "--f", '{"kind":"nope"}', "--sigma", UCVX_SIGMA,
      "--grid", UCVX_GRID], "f"),
    (["ucvx", "certify", "--f", UCVX_F, "--sigma", '{"kind":"power"}',
      "--grid", UCVX_GRID], "sigma"),
    (["ucvx", "certify", "--f", UCVX_F,
      "--sigma", '{"kind":"samples","ts":[],"values":[]}',
      "--grid", UCVX_GRID], "sigma"),
    (["mti", "hessian", "--cost", '{"kind":"sq_euclidean"}',
      "--grid", '{"box":[[0,1]]}'], "grid"),
    (["mti", "hessian", "--cost", '{"kind":"sq_euclidean"}',
      "--grid", "[[0.0],[0.5],[1.0]]"], "grid"),
    (["order", "check",
      "--mu", '{"dim":1,"points":[[0],[1,2]],"weights":[0.5,0.5]}',
      "--nu", '{"dim":1,"points":[[0]],"weights":[1]}'], "mu/points"),
    (["order", "check", "--mu", '{"dim":1,"points":[[0]],"weights":["a"]}',
      "--nu", '{"dim":1,"points":[[0]],"weights":[1]}'], "mu/weights"),
], ids=["unknown-evaluator", "power-without-p", "empty-samples",
        "grid-without-counts", "grid-as-point-list", "ragged-points",
        "non-numeric-weights"])
def test_malformed_json_argument_exits_1(capsys, argv, label):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {label}: ")


def test_mti_check_cli(capsys):
    code, report = run(capsys, [
        "mti", "check", "--cost", '{"kind":"euclidean"}',
        "--domain", "[[-1.0,1.0]]", "--samples", "500"])
    assert code == 0
    assert report["results"]["ok"] is True


def test_mti_hessian_cli(capsys):
    code, report = run(capsys, [
        "mti", "hessian", "--cost", '{"kind":"sq_euclidean"}',
        "--grid", '{"box":[[-1.0,1.0]],"counts":[9]}'])
    assert code == 0
    assert report["results"]["ok"] is True


def test_mti_hessian_refutation_report():
    # no JSON cost reaches the refutation: the quartic (x - y)^4, smooth
    # on the diagonal, has Hessian 12 (x - y)^2 in y against 0 at (y, y)
    quartic = CostSpec.custom(lambda x, y: float(np.sum((x - y) ** 4)))
    grid = Grid(Box([-1.0], [1.0]), (9,))
    results, code = cli._cmd_mti_hessian(argparse.Namespace(step=1e-4),
                                         quartic, grid)
    assert code == 2 and results["ok"] is False
    report = json.loads(json.dumps(results, default=cli._plain,
                                   allow_nan=False))
    (x,), (y,) = report["x"], report["y"]
    assert report["eigenvalue_gap"] == pytest.approx(-12.0 * (x - y) ** 2,
                                                     abs=1e-5)


def test_ot_multi_needs_two_measures(measures, capsys):
    code = cli.main(["ot", "multi", "--mu", measures["d0"],
                     "--cost", '{"kind":"euclidean"}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: mu: need at least two --mu arguments\n"


def test_ucvx_certify_cli(capsys):
    code, report = run(capsys, [
        "ucvx", "certify", "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--sigma", '{"kind":"power","p":2}',
        "--grid", '{"box":[[-1.0,1.0]],"counts":[9]}'])
    assert code == 0
    assert report["results"]["ok"] is True


def test_usmooth_certify_counterexample_exit2(capsys):
    code, report = run(capsys, [
        "usmooth", "certify",
        "--f", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--sigma", '{"kind":"zero"}',
        "--grid", '{"box":[[-1.0,1.0]],"counts":[9]}'])
    assert code == 2
    assert report["results"]["ok"] is False
    assert len(report["results"]["counterexample"]["binding"]) >= 2


def test_ot_kr_and_multi(measures, capsys, tmp_path):
    code, report = run(capsys, [
        "ot", "kr", "--mu", measures["d0"], "--nu", measures["d1"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0)
    assert report["results"]["tight"] is True

    m01 = write(tmp_path, "m01.json",
                {"dim": 1, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]})
    code, report = run(capsys, [
        "ot", "multi", "--mu", m01, "--mu", measures["d0"],
        "--mu", measures["d1"], "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(2.0, abs=1e-9)
    assert report["results"]["gap"] <= 1e-7


def test_class_certify_and_generate(capsys):
    code, report = run(capsys, [
        "class", "certify", "--f1", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--f2", '{"kind":"quadratic","Q":[[1.0]],"b":[0.0]}',
        "--cost", '{"kind":"linear","a":[0.0]}',
        "--x", "[[-1.0],[0.0],[1.0]]", "--y", "[[-1.0],[0.0],[1.0]]"])
    assert code == 0
    assert report["results"]["ok"] is True

    code, report = run(capsys, [
        "class", "generate",
        "--atoms", '[{"y":[0.0],"a":[0.0],"b":0.0}]',
        "--cost", '{"kind":"euclidean"}', "--at", "[[2.0],[-0.5]]"])
    assert code == 0
    assert report["results"]["values"] == [pytest.approx(-2.0),
                                           pytest.approx(-0.5)]


@pytest.mark.parametrize("absent", [
    ("value", "coupling", "barycenter_residual"),
    ("u", "v", "gamma", "dual_value", "gap", "feasibility_margin"),
], ids=["solve", "dual"])
def test_exit_code_2_not_in_convex_order(measures, capsys, absent):
    # mot solve refuses for its coupling and its dual alike
    code, report = run(capsys, [
        "mot", "solve", "--mu", measures["pm1"], "--nu", measures["d0"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 2
    assert report["results"]["error"] == "no martingale coupling exists"
    assert not set(absent) & set(report["results"])
    # the refusal echoes the pair it refused
    assert report["inputs"]["mu"] == {"dim": 1, "points": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]}
    assert report["inputs"]["nu"] == {"dim": 1, "points": [[0.0]],
                                      "weights": [1.0]}


def test_out_file(measures, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["ot", "solve", "--mu", measures["d0"],
                     "--nu", measures["d1"],
                     "--cost", '{"kind":"euclidean"}', "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["value"] == pytest.approx(1.0)


def test_shared_parser_carries_no_option_over(capsys):
    """The parser is built once per process; a second command without
    --tol / --samples must not see the first command's values."""
    first = ["class", "check", "--f1", '{"kind":"neg_quadratic"}',
             "--f2", '{"kind":"neg_quadratic"}',
             "--cost", '{"kind":"linear","a":[0.0]}',
             "--domain", "[[-1.0,1.0]]", "--samples", "40", "--tol", "10"]
    second = ["mti", "check", "--cost", '{"kind":"sq_euclidean"}',
              "--domain", "[[-1.0,1.0]]"]

    def report(argv):
        code, rep = run(capsys, argv)
        rep.pop("timing_ms")
        return code, rep

    alone = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        alone.append(report(argv))
    cli.build_parser.cache_clear()
    back_to_back = [report(first), report(second)]
    assert cli.build_parser.cache_info().misses == 1
    assert back_to_back == alone
    assert alone[0][1]["results"]["samples"] == 40
    assert alone[1][1]["results"]["samples"] == 1000
    assert alone[1][1]["results"]["ok"]


def test_each_json_argument_is_read_once(tmp_path, capsys, monkeypatch):
    files = {
        "mu": write(tmp_path, "mu.json",
                    {"dim": 1, "points": [[-1.0], [1.0]],
                     "weights": [0.5, 0.5]}),
        "nu": write(tmp_path, "nu.json",
                    {"dim": 1, "points": [[-2.0], [0.0], [2.0]],
                     "weights": [0.25, 0.5, 0.25]}),
        "cost": write(tmp_path, "cost.json", {"kind": "euclidean"}),
        "f": write(tmp_path, "f.json",
                   {"kind": "quadratic", "Q": [[1.0]], "b": [0.0]}),
        "sigma": write(tmp_path, "sigma.json", {"kind": "power", "p": 2}),
        "grid": write(tmp_path, "grid.json",
                      {"box": [[-1.0, 1.0]], "counts": [5]}),
    }
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for argv in (["mot", "solve", "--mu", files["mu"], "--nu", files["nu"],
                  "--cost", files["cost"]],
                 ["ucvx", "certify", "--f", files["f"],
                  "--sigma", files["sigma"], "--grid", files["grid"]]):
        code, report = run(capsys, argv)
        assert code == 0
    assert {path: opened.count(path) for path in files.values()} == \
        {path: 1 for path in files.values()}
