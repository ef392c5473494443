"""Synthetic 2-D regression scenarios and the uncertainty-signature grids.

Three scenarios over the square [-6, 6]^2, all built on the same radial
target function: one removes every sample from the first quadrant, one adds
heavy uniform output noise inside the first quadrant, and one draws each
target from the function or its negation by a fair coin. A trained mixture
model is then evaluated on a regular grid and summarized per quadrant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mdn import MdnModel, TrainingSet
from .nn import ConfigError
from .uncertainty import report

DOMAIN_HALF = 6.0

SCENARIO_KINDS = ("absence_of_data", "heavy_noise", "composition")


def target_fn(x: np.ndarray) -> np.ndarray:
    """Radial cosine with exponential decay; accepts (..., 2) arrays."""
    x = np.asarray(x, dtype=np.float64)
    r = np.linalg.norm(x, axis=-1)
    return 5.0 * np.cos(0.5 * np.pi * (r / 2.0)) * np.exp(-np.pi * r / 20.0)


@dataclass
class ScenarioSpec:
    kind: str
    num_points: int = 4000
    noise_low: float = -2.0
    noise_high: float = 2.0
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {self.kind!r}")
        if self.num_points < 1:
            raise ConfigError("num_points must be positive")
        if self.kind == "heavy_noise" and not self.noise_low < self.noise_high:
            raise ConfigError("noise_low must be below noise_high")


def _first_quadrant(x: np.ndarray) -> np.ndarray:
    return (x[:, 0] > 0) & (x[:, 1] > 0)


def generate(spec: ScenarioSpec) -> TrainingSet:
    """Sample one scenario's training set, reproducible from the seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.num_points

    if spec.kind == "absence_of_data":
        rows = []
        have = 0
        while have < n:
            cand = rng.uniform(-DOMAIN_HALF, DOMAIN_HALF, size=(2 * (n - have), 2))
            keep = cand[~_first_quadrant(cand)]
            rows.append(keep)
            have += len(keep)
        x = np.concatenate(rows)[:n]
        y = target_fn(x)
    elif spec.kind == "heavy_noise":
        x = rng.uniform(-DOMAIN_HALF, DOMAIN_HALF, size=(n, 2))
        noise = rng.uniform(spec.noise_low, spec.noise_high, size=n)
        y = target_fn(x) + noise * _first_quadrant(x)
    else:  # composition
        x = rng.uniform(-DOMAIN_HALF, DOMAIN_HALF, size=(n, 2))
        sign = rng.integers(0, 2, size=n) * 2 - 1
        y = sign * target_fn(x)

    return TrainingSet(x, y.reshape(n, 1))


@dataclass
class GridEval:
    """Per-cell uncertainty reports over a regular grid of cell centers."""

    points: np.ndarray  # (m, 2)
    resolution: int
    map_mean: np.ndarray  # (m, d)
    map_index: np.ndarray  # (m,)
    total: np.ndarray  # (m, d)
    explained: np.ndarray  # (m, d)
    unexplained: np.ndarray  # (m, d)

    def scalar(self, channel: str) -> np.ndarray:
        """Per-cell channel value summed over output dimensions."""
        return getattr(self, channel).sum(axis=1)


def grid_points(resolution: int) -> np.ndarray:
    if resolution < 1:
        raise ConfigError("resolution must be positive")
    step = 2.0 * DOMAIN_HALF / resolution
    centers = -DOMAIN_HALF + step * (np.arange(resolution) + 0.5)
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def evaluate_grid(model: MdnModel, resolution: int) -> GridEval:
    """Reports for every cell from one batched `report`: one forward pass."""
    pts = grid_points(resolution)
    rep = report(model, pts)
    return GridEval(
        points=pts,
        resolution=resolution,
        map_mean=rep.map_mean,
        map_index=rep.map_index,
        total=rep.total_variance,
        explained=rep.explained,
        unexplained=rep.unexplained,
    )


QUADRANTS = ("q1", "q2", "q3", "q4")


def quadrant_masks(points: np.ndarray) -> dict[str, np.ndarray]:
    x1, x2 = points[:, 0], points[:, 1]
    return {
        "q1": (x1 > 0) & (x2 > 0),
        "q2": (x1 < 0) & (x2 > 0),
        "q3": (x1 < 0) & (x2 < 0),
        "q4": (x1 > 0) & (x2 < 0),
    }


def quadrant_stats(grid: GridEval) -> dict[str, dict[str, float]]:
    """Mean of each uncertainty channel per quadrant (channels summed over dims)."""
    masks = quadrant_masks(grid.points)
    stats: dict[str, dict[str, float]] = {}
    for q in QUADRANTS:
        m = masks[q]
        stats[q] = {
            "total": float(grid.scalar("total")[m].mean()),
            "explained": float(grid.scalar("explained")[m].mean()),
            "unexplained": float(grid.scalar("unexplained")[m].mean()),
        }
    return stats


def write_grid_csv(grid: GridEval, path: str | Path) -> None:
    """Flat per-cell export for plotting; scalar targets only."""
    if grid.map_mean.shape[1] != 1:
        raise ConfigError("grid CSV export expects a one-dimensional target")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "map_mean", "total", "explained", "unexplained"])
        for i in range(len(grid.points)):
            w.writerow(
                [
                    repr(float(grid.points[i, 0])),
                    repr(float(grid.points[i, 1])),
                    repr(float(grid.map_mean[i, 0])),
                    repr(float(grid.total[i, 0])),
                    repr(float(grid.explained[i, 0])),
                    repr(float(grid.unexplained[i, 0])),
                ]
            )


def write_quadrant_csv(stats: dict[str, dict[str, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quadrant", "total", "explained", "unexplained"])
        for q in QUADRANTS:
            row = stats[q]
            w.writerow(
                [q, repr(row["total"]), repr(row["explained"]), repr(row["unexplained"])]
            )
