"""Reference computations the benchmark checks the program's outputs against.

Shares no code with `mdnuq`: it reads the documented model file layout on
its own, runs the tanh MLP with plain numpy, applies the documented mixture
head (softmax of the logits, `sigma_max * sigmoid` of the variance logits)
and splits the predictive variance with explicit loops over the mixtures.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"MDNUQ1"
LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Head:
    num_mixtures: int
    output_dim: int
    sigma_max: float
    nll_epsilon: float


@dataclass
class OracleNet:
    """Dense layers (weights shaped (out, in), biases (out,)) plus an optional head."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    head: Head | None = None

    @classmethod
    def from_file(cls, path) -> "OracleNet":
        """Parse a model file: magic, uint32 LE header length, JSON header,
        then row-major float64 LE weights and biases per layer."""
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise ValueError(f"{path}: bad magic")
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            mlp = header["mlp"]
            dims = [mlp["input_dim"], *mlp["hidden_dims"], mlp["output_dim"]]
            layers = []
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                w = np.frombuffer(fh.read(8 * fan_in * fan_out), dtype="<f8")
                b = np.frombuffer(fh.read(8 * fan_out), dtype="<f8")
                layers.append((w.reshape(fan_out, fan_in), b))
        h = header.get("mdn")
        head = None
        if h is not None:
            head = Head(h["num_mixtures"], h["output_dim"], h["sigma_max"], h["nll_epsilon"])
        return cls(layers, head)

    @classmethod
    def from_arrays(cls, weights_biases, head: Head | None = None) -> "OracleNet":
        return cls([(np.array(w), np.array(b)) for w, b in weights_biases], head)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw outputs for rows of x: tanh on every hidden layer, linear last layer."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for i, (w, b) in enumerate(self.layers):
            z = np.dot(h, w.T) + b
            h = z if i == len(self.layers) - 1 else np.tanh(z)
        return h

    def mixture(self, x: np.ndarray):
        """Mixture weights (n, K), means (n, K, d) and variances (n, K, d)."""
        raw = self.forward(x)
        k, d = self.head.num_mixtures, self.head.output_dim
        n = raw.shape[0]
        logits = raw[:, :k]
        means = raw[:, k : k + k * d].reshape(n, k, d)
        var_logits = raw[:, k + k * d :].reshape(n, k, d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        variances = self.head.sigma_max / (1.0 + np.exp(-var_logits))
        return weights, means, variances

    def split(self, x: np.ndarray):
        """(total mean, explained, unexplained), each (n, d), by loops over mixtures."""
        weights, means, variances = self.mixture(x)
        n, k, d = means.shape
        mean = np.zeros((n, d))
        for j in range(k):
            mean += weights[:, j : j + 1] * means[:, j]
        explained = np.zeros((n, d))
        unexplained = np.zeros((n, d))
        for j in range(k):
            dev = means[:, j] - mean
            explained += weights[:, j : j + 1] * dev * dev
            unexplained += weights[:, j : j + 1] * variances[:, j]
        return mean, explained, unexplained

    def nll(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean of -log(sum_j pi_j N(y; mu_j, diag var_j) + eps), by log-sum-exp."""
        weights, means, variances = self.mixture(x)
        y = np.atleast_2d(y)
        k = weights.shape[1]
        log_terms = np.empty_like(weights)
        for j in range(k):
            diff = y - means[:, j]
            log_terms[:, j] = np.log(weights[:, j]) - 0.5 * np.sum(
                LOG_2PI + np.log(variances[:, j]) + diff * diff / variances[:, j], axis=1
            )
        top = log_terms.max(axis=1)
        lse = top + np.log(np.exp(log_terms - top[:, None]).sum(axis=1))
        return float(-np.mean(np.logaddexp(lse, math.log(self.head.nll_epsilon))))


def normalize_features(raw: np.ndarray, lane_width: float, d_max: float) -> np.ndarray:
    """Network input scaling: the six gaps by d_max, the lane offset by half a lane."""
    x = np.array(raw, dtype=np.float64)
    x[..., :6] /= d_max
    x[..., 6] /= 0.5 * lane_width
    return x


def switching_rule(uncertainty: float, front_gap: float, switch_distance: float,
                   log_threshold: float) -> str:
    """The gate: safe on a short frontal gap or when log(uncertainty) passes the threshold."""
    if front_gap < switch_distance:
        return "safe"
    if uncertainty > 0 and math.log(uncertainty) > log_threshold:
        return "safe"
    return "learned"


def close(got: np.ndarray, want: np.ndarray, rtol: float, atol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - want) <= atol + rtol * np.abs(want)))
