import json

import numpy as np
import pytest

from transportkit import measures as ms
from transportkit.errors import (
    DimensionMismatch,
    DuplicatePoint,
    GridTooCoarse,
    MissingValue,
    NonFinite,
)
from transportkit.functions import (
    Box,
    FunctionEvaluator,
    Grid,
    ModulusSpec,
    box_from_json,
    evaluator_from_json,
    evaluator_to_json,
    modulus_from_json,
)


def test_evaluator_registry_values():
    q = FunctionEvaluator.quadratic([[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0],
                                    c=0.5)
    assert q([1.0, 2.0]) == pytest.approx(2 + 4 + 1 + 0.5)
    assert FunctionEvaluator.abs_norm()([3.0, 4.0]) == pytest.approx(5.0)
    assert FunctionEvaluator.neg_quadratic()([2.0]) == pytest.approx(-4.0)
    ma = FunctionEvaluator.max_affine([([1.0], 0.0), ([-1.0], 0.0)])
    assert ma([-0.3]) == pytest.approx(0.3)


def test_samples_evaluator_exact_lookup():
    s = FunctionEvaluator.samples([[0.0], [1.0]], [5.0, 7.0])
    assert s([1.0]) == 7.0
    with pytest.raises(MissingValue):
        s([0.5])


def test_samples_evaluator_refuses_a_repeated_point():
    # f(0) would be 5 by the first sample and 7 by the last
    with pytest.raises(DuplicatePoint, match=r"point \(0\.0,\) appears"):
        FunctionEvaluator.samples([[0.0], [1.0], [0.0]], [5.0, 6.0, 7.0])


def test_evaluator_json_roundtrip():
    evals = [
        FunctionEvaluator.quadratic([[1.0]], [0.5], 0.25),
        FunctionEvaluator.abs_norm(),
        FunctionEvaluator.neg_quadratic(),
        FunctionEvaluator.max_affine([([1.0, -1.0], 0.2)]),
        FunctionEvaluator.bclass_sup([([0.0], [0.0], 0.0)],
                                     ms.CostSpec.euclidean()),
        FunctionEvaluator.samples([[0.0]], [1.0]),
    ]
    probe = {"quadratic": [0.4], "abs_norm": [0.4], "neg_quadratic": [0.4],
             "max_affine": [0.4, 0.1], "bclass_sup": [0.4],
             "samples": [0.0]}
    for f in evals:
        back = evaluator_from_json(json.loads(json.dumps(
            evaluator_to_json(f))))
        x = probe[f.kind]
        assert back(x) == pytest.approx(f(x))


def test_evaluator_on_matches_scalar():
    # every kind: on() at n points equals n one-point calls, and both
    # equal the kind's formula written out point by point
    line = np.linspace(-1, 1, 7).reshape(-1, 1)
    plane = np.random.default_rng(3).uniform(-1, 1, (9, 2))
    Q, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -0.5])
    pieces = [([1.0, 0.0], 0.1), ([-1.0, 0.5], 0.0), ([0.2, -0.7], -0.3)]
    atoms = [([0.0], [0.5], 0.1), ([0.5], [-0.2], 0.0)]
    cases = [
        (FunctionEvaluator.quadratic(Q, b, c=0.25), plane,
         lambda x: x @ Q @ x + b @ x + 0.25),
        (FunctionEvaluator.max_affine(pieces), plane,
         lambda x: max(np.dot(s, x) + c for s, c in pieces)),
        (FunctionEvaluator.samples(line, np.arange(7.0) ** 2), line,
         lambda x: float(np.flatnonzero(line[:, 0] == x[0])[0]) ** 2),
        (FunctionEvaluator.abs_norm(), plane, lambda x: np.linalg.norm(x)),
        (FunctionEvaluator.neg_quadratic(), plane, lambda x: -(x @ x)),
        (FunctionEvaluator.bclass_sup(atoms, ms.CostSpec.euclidean()), line,
         lambda x: max(c - np.linalg.norm(np.subtract(y, x))
                       + np.dot(a, x - y) for y, a, c in atoms)),
    ]
    for f, pts, formula in cases:
        vec = f.on(pts)
        assert vec.shape == (len(pts),), f.kind
        for p, v in zip(pts, vec):
            value = f(p)
            assert isinstance(value, float), f.kind
            assert v == pytest.approx(value, rel=1e-12, abs=1e-12), f.kind
            assert v == pytest.approx(formula(p), rel=1e-12, abs=1e-12), \
                f.kind


def test_evaluator_checks_point_dimension():
    # each kind with arrays takes points of their one dimension only
    plane = np.zeros((3, 2))
    one_d = [
        FunctionEvaluator.quadratic([[1.0]], [0.0]),
        FunctionEvaluator.max_affine([([1.0], 0.0)]),
        FunctionEvaluator.bclass_sup([([0.0], [0.0], 0.0)],
                                     ms.CostSpec.euclidean()),
        FunctionEvaluator.samples([[0.0]], [1.0]),
    ]
    for f in one_d:
        assert f.dim == 1, f.kind
        with pytest.raises(DimensionMismatch, match="1-D, got 2-D"):
            f.on(plane)
    assert FunctionEvaluator.abs_norm().dim is None
    assert FunctionEvaluator.neg_quadratic().on(plane).shape == (3,)
    # arrays of one kind that disagree are refused when built
    for build in (lambda: FunctionEvaluator.quadratic([[1.0]], [0.0, 1.0]),
                  lambda: FunctionEvaluator.quadratic([[1.0, 0.0]], [0.0]),
                  lambda: FunctionEvaluator.max_affine([([1.0], 0.0),
                                                        ([1.0, 2.0], 0.0)]),
                  lambda: FunctionEvaluator.bclass_sup(
                      [([0.0], [0.0, 1.0], 0.0)], ms.CostSpec.euclidean())):
        with pytest.raises(DimensionMismatch, match="disagree"):
            build()


@pytest.mark.parametrize("sigma", [
    ModulusSpec.power(2, scale=0.5), ModulusSpec.power(1.5),
    ModulusSpec.zero(),
    ModulusSpec.from_samples([0.0, 1.0, 2.0], [0.0, 1.0, 1.5]),
], ids=lambda s: s.kind)
def test_modulus_on_array_matches_scalar(sigma):
    ts = np.array([[0.0, 0.3, 1.0], [1.7, 2.0, 2.5]])
    vec = sigma(ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts.ravel(), vec.ravel()):
        value = sigma(t)
        assert isinstance(value, float)
        assert v == value


def test_modulus_kinds():
    p = ModulusSpec.power(2, scale=0.5)
    assert p(2.0) == pytest.approx(2.0)
    assert p(0.0) == 0.0
    assert ModulusSpec.zero()(3.0) == 0.0
    s = ModulusSpec.from_samples([0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
    assert s(0.5) == pytest.approx(0.5)
    assert s(1.5) == pytest.approx(1.25)
    assert modulus_from_json({"kind": "power", "p": 2})(3.0) == 9.0


def test_modulus_validation():
    with pytest.raises(ValueError):
        ModulusSpec.power(0.5)  # sublinear at zero
    with pytest.raises(ValueError):
        ModulusSpec.from_samples([0.0, 1.0], [0.5, 1.0])
    with pytest.raises(DimensionMismatch):
        ModulusSpec.from_samples([], [])
    # np.interp would misread times out of order, or repeated
    for ts in ([0.0, 3.0, 1.0], [0.0, 1.0, 1.0]):
        with pytest.raises(DimensionMismatch, match="strictly increasing"):
            ModulusSpec.from_samples(ts, [0.0, 9.0, 0.1])


@pytest.mark.parametrize("build", [
    lambda: FunctionEvaluator.quadratic([[1.0, 0.0], [0.0, np.nan]],
                                        [0.0, 0.0]),
    lambda: FunctionEvaluator.quadratic([[1.0]], [np.inf]),
    lambda: FunctionEvaluator.quadratic([[1.0]], [0.0], c=-np.inf),
    lambda: FunctionEvaluator.max_affine([([1.0], 0.0), ([np.nan], 0.0)]),
    lambda: FunctionEvaluator.max_affine([([1.0], np.inf)]),
    lambda: FunctionEvaluator.bclass_sup([([0.0], [np.nan], 0.0)],
                                         ms.CostSpec.euclidean()),
    lambda: FunctionEvaluator.samples([[0.0], [1.0]], [0.0, np.nan]),
    lambda: FunctionEvaluator.samples([[0.0], [np.inf]], [0.0, 1.0]),
    lambda: ModulusSpec.power(np.nan),
    lambda: ModulusSpec.power(2.0, scale=np.inf),
    lambda: ModulusSpec.from_samples([0.0, 1.0], [0.0, np.nan]),
    lambda: ModulusSpec.from_samples([0.0, np.inf], [0.0, 1.0]),
    lambda: ms.CostSpec.linear([np.nan]),
    lambda: ms.CostSpec.truncated_euclidean(np.nan),
    lambda: ms.CostSpec.matrix([[0.0], [1.0]], [[0.0, np.inf], [1.0, 0.0]]),
    lambda: ms.CostSpec.conical([(np.nan, ms.CostSpec.euclidean())]),
    lambda: Box([np.nan], [1.0]),
    lambda: Box([0.0, 0.0], [1.0, np.inf]),
])
def test_non_finite_parameters_are_refused(build):
    # NaN passes every order and sign check (p < 1, threshold <= 0,
    # hi <= lo), so each is refused as non-finite before them
    with pytest.raises(NonFinite, match="non-finite"):
        build()


def test_modulus_growth_constant():
    p = ModulusSpec.power(2)
    assert p.growth_constant(2.0) == pytest.approx(2.0)
    assert ModulusSpec.zero().growth_constant(5.0) == 0.0


def test_box_and_grid():
    b = box_from_json([[-1.0, 1.0], [0.0, 2.0]])
    assert b.dim == 2
    rng = np.random.default_rng(0)
    pts = b.sample(rng, 100)
    assert np.all(pts[:, 0] >= -1) and np.all(pts[:, 1] <= 2)
    g = Grid(Box([0.0], [1.0]), (5,))
    lat = g.points()
    assert lat.shape == (5, 1)
    assert np.allclose(lat.ravel(), [0, 0.25, 0.5, 0.75, 1.0])
    assert g.interior_mask().sum() == 3
    with pytest.raises(GridTooCoarse):
        Grid(Box([0.0], [1.0]), (1,))
    with pytest.raises(DimensionMismatch):
        Box([1.0], [0.5])


def test_grid_two_dimensional_interior():
    g = Grid(Box([0.0, 0.0], [1.0, 1.0]), (4, 5))
    assert g.points().shape == (20, 2)
    assert g.interior_mask().sum() == 2 * 3
