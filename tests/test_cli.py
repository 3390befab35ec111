import json

import numpy as np
import pytest

from transportkit import cli


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
    code, report = run(capsys, [
        "ot", "dual", "--mu", measures["d0"], "--nu", measures["d1"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0)
    assert report["results"]["feasibility_margin"] <= 1e-9


def test_order_couple_cli(measures, capsys):
    code, report = run(capsys, [
        "order", "couple", "--mu", measures["pm1"], "--nu", measures["nu3"]])
    assert code == 0
    mass = np.array(report["results"]["coupling"])
    assert np.allclose(mass, [[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]],
                       atol=1e-9)
    assert report["results"]["barycenter_residual"] <= 1e-9


def test_mot_dual_cli(measures, capsys):
    code, report = run(capsys, [
        "mot", "dual", "--mu", measures["pm1"], "--nu", measures["nu3"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert report["results"]["feasibility_margin"] <= 1e-9


def test_mot_dual_sym(measures, capsys):
    code, report = run(capsys, [
        "mot", "dual-sym", "--mu", measures["d0"], "--nu", measures["pm1"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-9)


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


def test_csv_rejected_for_structured_commands(measures, capsys):
    code = cli.main(["ot", "solve", "--mu", measures["d0"],
                     "--nu", measures["d1"],
                     "--cost", '{"kind":"euclidean"}', "--format", "csv"])
    assert code == 1


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


def test_exit_code_2_not_in_convex_order(measures, capsys):
    code, report = run(capsys, [
        "mot", "solve", "--mu", measures["pm1"], "--nu", measures["d0"],
        "--cost", '{"kind":"euclidean"}'])
    assert code == 2
    assert "error" in report["results"]


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
