"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way (plain loops,
sample moments, finite differences) so it shares no code path with the
library.
"""

from __future__ import annotations

import math

import numpy as np

from mdnuq.mdn import GmmParams, head_transform


def finite_difference(loss_fn, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of a scalar loss w.r.t. each array in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def unblocked_forward(net, x, rng=None, stochastic=False):
    """The network's layer loop on the whole batch at once: `x @ W.T + b`, then
    tanh and, in train mode or stochastic eval (`stochastic=True`), a dropout
    mask drawn from `rng` per hidden layer. Returns the output and, per layer,
    (inputs, activation, mask) for `unblocked_backward`."""
    keep = net.config.dropout_keep_prob
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cache = []
    for i, layer in enumerate(net.layers):
        pre = h @ layer.weights.T + layer.biases
        if i == len(net.layers) - 1:
            cache.append((h, None, None))
            return pre, cache
        act = np.tanh(pre)
        mask = (rng.random(act.shape) < keep) / keep if stochastic and keep < 1.0 else None
        cache.append((h, act, mask))
        h = act if mask is None else act * mask


def unblocked_backward(net, cache, grad_output):
    """Per-layer (dW, db) from `unblocked_forward`'s cache, by the chain rule."""
    g = np.atleast_2d(grad_output)
    grads = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        inputs, act, mask = cache[i]
        if act is not None:
            if mask is not None:
                g = g * mask
            g = g * (1.0 - act**2)
        dw = g.T @ inputs
        if net.config.weight_decay:
            dw += net.config.weight_decay * net.layers[i].weights
        grads[i] = (dw, g.sum(axis=0))
        if i > 0:
            g = g @ net.layers[i].weights
    return grads


def sample_gmm(g: GmmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from a diagonal Gaussian mixture."""
    idx = rng.choice(g.num_mixtures, size=n, p=g.weights / g.weights.sum())
    noise = rng.standard_normal((n, g.output_dim))
    return g.means[idx] + noise * np.sqrt(g.variances[idx])


def random_gmm(rng: np.random.Generator, max_k: int = 16, max_d: int = 8) -> GmmParams:
    k = int(rng.integers(1, max_k + 1))
    d = int(rng.integers(1, max_d + 1))
    w = rng.random(k) + 1e-3
    w /= w.sum()
    means = rng.normal(0.0, 3.0, size=(k, d))
    variances = rng.uniform(0.05, 4.5, size=(k, d))
    return GmmParams(w, means, variances)


def per_sample_mc_dropout(model, x, num_samples: int, rng: np.random.Generator):
    """MC dropout moments the per-sample way: each stochastic pass gets its own
    head transform and argmax. Returns (variance, sample means, sample variances)."""
    d = model.cfg.output_dim
    means = np.empty((num_samples, d))
    variances = np.empty((num_samples, d))
    for t in range(num_samples):
        raw = model.net.forward(x, mode="eval", rng=rng, stochastic_eval=True)
        g = head_transform(raw, model.cfg)
        j = int(np.argmax(g.weights))
        means[t] = g.means[j]
        variances[t] = g.variances[j]
    mean_of_means = means.mean(axis=0)
    var_of_means = np.maximum((means * means).mean(axis=0) - mean_of_means**2, 0.0)
    return var_of_means + variances.mean(axis=0), means, variances


def moments_by_enumeration(g: GmmParams):
    """Mean/variance decomposition via plain loops and the E[m^2]-E[m]^2 form."""
    k, d = g.means.shape
    mean = np.zeros(d)
    for j in range(k):
        mean += g.weights[j] * g.means[j]
    second = np.zeros(d)
    for j in range(k):
        second += g.weights[j] * g.means[j] ** 2
    explained = second - mean**2
    unexplained = np.zeros(d)
    for j in range(k):
        unexplained += g.weights[j] * g.variances[j]
    return mean, explained, unexplained


def brute_force_features(ego, traffic, track, d_max: float):
    """Exhaustive O(lanes * cars) scan mirroring the feature definition."""
    ego_lane = min(int(ego.y / track.lane_width), track.num_lanes - 1)
    out = {}
    for name, rel in (("left", 1), ("center", 0), ("right", -1)):
        lane = ego_lane + rel
        front, back = d_max, d_max
        if 0 <= lane < track.num_lanes:
            ahead, behind = [], []
            for car in traffic:
                car_lane = min(int(car.y / track.lane_width), track.num_lanes - 1)
                if car_lane != lane:
                    continue
                gap = abs(car.x - ego.x) - 0.5 * (car.length + ego.length)
                gap = min(max(gap, 0.0), d_max)
                if car.x > ego.x:
                    ahead.append(gap)
                else:
                    behind.append(gap)
            if ahead:
                front = min(ahead)
            if behind:
                back = min(behind)
        out[f"front_{name}"] = front
        out[f"back_{name}"] = back
    out["lane_offset"] = ego.y - (ego_lane + 0.5) * track.lane_width
    return out


def masked_sigmoid(x: np.ndarray, margin: float) -> np.ndarray:
    """Logistic function by sign masks: exp(-x) where x >= 0, exp(x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, margin, 1.0 - margin)


def _rectangle_corners(car):
    rad = math.radians(car.heading_deg)
    c, s = math.cos(rad), math.sin(rad)
    hl, hw = 0.5 * car.length, 0.5 * car.width
    return [
        (car.x + a * c - b * s, car.y + a * s + b * c)
        for a, b in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
    ]


def rectangles_overlap(a, b) -> bool:
    """Separating-axis test over both rectangles' edge normals, in plain loops."""
    ca, cb = _rectangle_corners(a), _rectangle_corners(b)
    for car in (a, b):
        rad = math.radians(car.heading_deg)
        for ax, ay in ((math.cos(rad), math.sin(rad)), (-math.sin(rad), math.cos(rad))):
            pa = [x * ax + y * ay for x, y in ca]
            pb = [x * ax + y * ay for x, y in cb]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True


def brute_force_collision(ego, traffic, track) -> bool:
    """Ego body off the track laterally, or overlapping any car: every car is tested."""
    rad = math.radians(ego.heading_deg)
    half_extent = 0.5 * (ego.width * abs(math.cos(rad)) + ego.length * abs(math.sin(rad)))
    if ego.y - half_extent < 0.0 or ego.y + half_extent > track.width:
        return True
    return any([rectangles_overlap(ego, car) for car in traffic])


def brute_force_follow_speeds(traffic, ego, track, follow_gap: float) -> list[float]:
    """Next speed of every traffic car from an all-pairs leader search.

    The leader of car i is the car j != i (the ego included, last) in the same
    lane and strictly ahead with the smallest bumper gap; the first such j in
    order wins a tie. Inside `follow_gap` car i takes min(cruise, leader speed).
    """
    cars = [tc.car for tc in traffic] + [ego]
    lanes = [min(int(c.y / track.lane_width), track.num_lanes - 1) for c in cars]
    speeds = []
    for i, tc in enumerate(traffic):
        lead_gap, lead_speed = math.inf, None
        for j, other in enumerate(cars):
            if j == i or lanes[j] != lanes[i] or not other.x > tc.car.x:
                continue
            gap = other.x - tc.car.x - 0.5 * (other.length + tc.car.length)
            if gap < lead_gap:
                lead_gap, lead_speed = gap, other.speed_kmh
        v = tc.cruise_kmh
        if lead_speed is not None and lead_gap < follow_gap:
            v = min(v, lead_speed)
        speeds.append(v)
    return speeds


def brute_force_min_gap(ego, traffic) -> float:
    """Smallest axis-aligned bumper gap over every car; inf with no traffic."""
    gaps = [
        math.hypot(
            max(abs(car.x - ego.x) - 0.5 * (car.length + ego.length), 0.0),
            max(abs(car.y - ego.y) - 0.5 * (car.width + ego.width), 0.0),
        )
        for car in traffic
    ]
    return min(gaps, default=math.inf)


def brute_force_center_lane_speeds(ego, traffic, track):
    """Speeds (m/s) of the nearest car strictly ahead and the nearest car at or
    behind the ego in its lane, over every car; the first in order wins a tie,
    and a side with no car reads None."""
    def lane_of(y):
        return min(int(y / track.lane_width), track.num_lanes - 1)

    ahead, behind = [], []
    for i, car in enumerate(traffic):
        if lane_of(car.y) != lane_of(ego.y):
            continue
        dx = car.x - ego.x
        (ahead if dx > 0 else behind).append((abs(dx), i))
    return tuple(
        traffic[min(side)[1]].speed_kmh * (1.0 / 3.6) if side else None
        for side in (ahead, behind)
    )
