import csv

import numpy as np
import pytest

from mdnuq.mdn import build_mdn
from mdnuq.nn import ConfigError, MlpNetwork
from mdnuq.synthetic import (
    GridEval,
    ScenarioSpec,
    evaluate_grid,
    generate,
    grid_points,
    quadrant_masks,
    quadrant_stats,
    target_fn,
    write_grid_csv,
)


def test_target_fn_at_origin():
    assert target_fn(np.array([0.0, 0.0])) == pytest.approx(5.0, abs=0)


def test_target_fn_on_cosine_zero():
    # |x| = 2 puts the cosine at its first zero
    assert abs(target_fn(np.array([2.0, 0.0]))) < 1e-12


def test_target_fn_against_high_precision_oracle():
    # reference values from a 50-digit evaluation of the same closed form
    assert target_fn(np.array([6.0, 6.0])) == pytest.approx(
        1.2239822801868144, rel=1e-14
    )
    assert target_fn(np.array([1.0, -3.0])) == pytest.approx(
        -2.4074483101152383, rel=1e-14
    )


def test_target_fn_vectorized():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    vals = target_fn(pts)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(5.0)


def test_absence_scenario_has_no_first_quadrant_samples():
    data = generate(ScenarioSpec("absence_of_data", num_points=500, seed=0))
    x = data.inputs
    assert len(data) == 500
    assert not np.any((x[:, 0] > 0) & (x[:, 1] > 0))
    assert np.allclose(data.targets[:, 0], target_fn(x))


def test_heavy_noise_only_in_first_quadrant():
    data = generate(ScenarioSpec("heavy_noise", num_points=2000, seed=1))
    x, y = data.inputs, data.targets[:, 0]
    clean = target_fn(x)
    q1 = (x[:, 0] > 0) & (x[:, 1] > 0)
    assert np.array_equal(y[~q1], clean[~q1])  # exact outside the quadrant
    noise = y[q1] - clean[q1]
    assert np.all(np.abs(noise) <= 2.0)
    assert noise.std() > 0.5  # noise actually present


def test_composition_targets_are_signed_branches():
    data = generate(ScenarioSpec("composition", num_points=1000, seed=2))
    x, y = data.inputs, data.targets[:, 0]
    f = target_fn(x)
    assert np.array_equal(np.abs(y), np.abs(f))
    sign = np.sign(y[np.abs(f) > 1e-9]) == np.sign(f[np.abs(f) > 1e-9])
    assert 0.4 < sign.mean() < 0.6  # fair coin


def test_generation_deterministic():
    a = generate(ScenarioSpec("composition", num_points=100, seed=7))
    b = generate(ScenarioSpec("composition", num_points=100, seed=7))
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


def test_invalid_scenario_rejected():
    with pytest.raises(ConfigError):
        generate(ScenarioSpec("bogus"))
    with pytest.raises(ConfigError):
        generate(ScenarioSpec("heavy_noise", noise_low=3.0, noise_high=-3.0))


def test_grid_points_resolution_two():
    pts = grid_points(2)
    assert pts.shape == (4, 2)
    assert sorted(map(tuple, pts.tolist())) == [
        (-3.0, -3.0),
        (-3.0, 3.0),
        (3.0, -3.0),
        (3.0, 3.0),
    ]


def test_grid_eval_k1_explained_is_zero(tmp_path):
    model = build_mdn(2, [8], 1, 1, seed=0)
    grid = evaluate_grid(model, 5)
    assert np.all(grid.explained == 0.0)
    assert grid.points.shape == (25, 2)
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "map_mean", "total", "explained", "unexplained"]
    assert len(rows) == 26
    assert all(float(r[4]) == 0.0 for r in rows[1:])


def test_grid_runs_one_forward_pass(monkeypatch):
    model = build_mdn(2, [8], 3, 1, seed=1)
    modes = []
    original = MlpNetwork.forward

    def counting(self, x, mode="eval", **kwargs):
        modes.append(mode)
        return original(self, x, mode, **kwargs)

    monkeypatch.setattr(MlpNetwork, "forward", counting)
    for resolution in (12, 40):  # 1600 cells run in row blocks, still one call
        modes.clear()
        grid = evaluate_grid(model, resolution)
        assert modes == ["eval"]
        assert grid.explained.shape == (resolution**2, 1)


def test_grid_map_mean_is_the_heaviest_mixture_mean():
    model = build_mdn(2, [8], 3, 1, seed=2)
    grid = evaluate_grid(model, 6)
    for i, p in enumerate(grid.points):
        g = model.gmm(p)
        assert grid.map_index[i] == np.argmax(g.weights)
        assert grid.map_mean[i, 0] == pytest.approx(g.means[grid.map_index[i], 0], rel=1e-12)


def test_quadrant_stats_constant_grid():
    pts = grid_points(4)
    n = len(pts)
    grid = GridEval(
        points=pts,
        resolution=4,
        map_mean=np.zeros((n, 1)),
        map_index=np.zeros(n, dtype=int),
        total=np.full((n, 1), 3.0),
        explained=np.full((n, 1), 1.0),
        unexplained=np.full((n, 1), 2.0),
    )
    stats = quadrant_stats(grid)
    for q in ("q1", "q2", "q3", "q4"):
        assert stats[q]["total"] == pytest.approx(3.0)
        assert stats[q]["explained"] == pytest.approx(1.0)
        assert stats[q]["unexplained"] == pytest.approx(2.0)


def test_quadrant_masks_partition_grid():
    pts = grid_points(6)
    masks = quadrant_masks(pts)
    counts = sum(m.sum() for m in masks.values())
    assert counts == len(pts)  # grid centers never on an axis
    assert all(m.sum() == 9 for m in masks.values())
