"""Minimal feed-forward network with manual backpropagation.

Plain numpy, float64 throughout. Hidden layers use tanh; the output layer
is linear so it can carry an arbitrary head (mixture parameters, regression
targets). Dropout, when enabled, is applied after each hidden activation
with inverted scaling (activations divided by the keep probability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Invalid network, head, or training configuration."""


class StateError(RuntimeError):
    """Operation called out of order (e.g. backward without forward)."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


@dataclass
class MlpConfig:
    input_dim: int
    hidden_dims: list[int]
    output_dim: int
    activation: str = "tanh"
    dropout_keep_prob: float = 1.0
    weight_decay: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ConfigError("input_dim and output_dim must be positive")
        if len(self.hidden_dims) < 1:
            raise ConfigError("at least one hidden layer is required")
        if any(h <= 0 for h in self.hidden_dims):
            raise ConfigError("hidden layer sizes must be positive")
        if self.activation != "tanh":
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if not 0.0 < self.dropout_keep_prob <= 1.0:
            raise ConfigError("dropout_keep_prob must be in (0, 1]")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be nonnegative")


class DenseLayer:
    """Fully connected layer: y = x @ w.T + b, weights shaped (out, in)."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.biases = np.asarray(biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ConfigError("layer weights must be (out, in) with matching bias")

    def linear(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.T + self.biases


@dataclass
class _LayerCache:
    inputs: np.ndarray
    activation: np.ndarray | None  # tanh output before dropout; None for the head
    mask: np.ndarray | None


class MlpNetwork:
    """MLP with cached-activation backprop; see `init_mlp` for construction."""

    def __init__(self, config: MlpConfig, layers: list[DenseLayer]):
        self.config = config
        self.layers = layers
        self._cache: list[_LayerCache] | None = None

    @property
    def num_parameters(self) -> int:
        return sum(l.weights.size + l.biases.size for l in self.layers)

    def parameter_arrays(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def forward(
        self,
        x: np.ndarray,
        mode: str = "eval",
        rng: np.random.Generator | None = None,
        stochastic_eval: bool = False,
    ) -> np.ndarray:
        """Run the network on a single input vector or a batch of rows.

        `mode="train"` caches activations for `backward` and applies dropout
        when the keep probability is below one. In eval mode nothing is
        cached; `stochastic_eval=True` still applies dropout masks, which is
        what the Monte Carlo dropout estimator needs.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        h = np.atleast_2d(arr)
        if h.shape[1] != self.config.input_dim:
            raise ConfigError(
                f"input has {h.shape[1]} features, expected {self.config.input_dim}"
            )
        train = mode == "train"
        keep = self.config.dropout_keep_prob
        use_dropout = keep < 1.0 and (train or stochastic_eval)
        if use_dropout and rng is None:
            raise ValueError("dropout requires an rng")

        cache: list[_LayerCache] | None = [] if train else None
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            pre = layer.linear(h)
            if i == last:
                if cache is not None:
                    cache.append(_LayerCache(h, None, None))
                h = pre
                continue
            act = np.tanh(pre)
            mask = None
            if use_dropout:
                mask = (rng.random(act.shape) < keep) / keep
                out = act * mask
            else:
                out = act
            if cache is not None:
                cache.append(_LayerCache(h, act, mask))
            h = out
        self._cache = cache
        return h[0] if single else h

    def backward(self, grad_output: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Backpropagate d(loss)/d(output) to per-layer (dW, db) gradients.

        Gradients are summed over batch rows; the caller bakes any 1/N into
        `grad_output`. Weight decay adds `weight_decay * w` to each weight
        gradient. Requires a preceding train-mode forward pass.
        """
        if self._cache is None:
            raise StateError("backward requires a prior forward in train mode")
        g = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        wd = self.config.weight_decay
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)  # type: ignore[list-item]
        for i in reversed(range(len(self.layers))):
            cached = self._cache[i]
            if cached.activation is not None:
                if cached.mask is not None:
                    g = g * cached.mask
                g = g * (1.0 - cached.activation**2)
            layer = self.layers[i]
            dw = g.T @ cached.inputs
            if wd:
                dw += wd * layer.weights
            db = g.sum(axis=0)
            grads[i] = (dw, db)
            if i > 0:
                g = g @ layer.weights
        return grads


def init_mlp(config: MlpConfig) -> MlpNetwork:
    """Build a network with Glorot-uniform weights, reproducible from the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    dims = [config.input_dim, *config.hidden_dims, config.output_dim]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    return MlpNetwork(config, layers)


@dataclass
class Optimizer:
    """First-order parameter update: plain SGD or Adam with bias correction.

    `max_grad_norm`, when set, rescales each step's gradients to that global
    norm; mixture likelihoods can produce near-cliff gradients when a target
    dimension carries almost no conditional variance.
    """

    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_grad_norm: float | None = None
    step_count: int = 0
    _m: list[np.ndarray] = field(default_factory=list, repr=False)
    _v: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")

    def apply(self, net: MlpNetwork, grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        params = net.parameter_arrays()
        flat = [g for pair in grads for g in pair]
        if len(flat) != len(params):
            raise ValueError("gradient structure does not match the network")
        if self.max_grad_norm is not None:
            total = np.sqrt(sum(float((g * g).sum()) for g in flat))
            if total > self.max_grad_norm:
                scale = self.max_grad_norm / total
                flat = [g * scale for g in flat]
        if self.kind == "adam" and not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.step_count += 1
        lr = self.learning_rate
        if self.kind == "sgd":
            for p, g in zip(params, flat):
                p -= lr * g
            return
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for p, g, m, v in zip(params, flat, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def mse_loss(raw: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over the batch of the squared error norm, with its raw-output gradient."""
    raw = np.atleast_2d(raw)
    targets = np.atleast_2d(targets)
    diff = raw - targets
    n = raw.shape[0]
    loss = float(np.sum(diff**2) / n)
    return loss, 2.0 * diff / n


def train_network(
    net: MlpNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss_fn,
    *,
    epochs: int,
    batch_size: int,
    optimizer: Optimizer,
    seed: int = 0,
) -> list[float]:
    """Mini-batch training loop shared by the mixture and regression heads.

    `loss_fn(raw_batch, target_batch)` returns the batch-mean loss and its
    gradient w.r.t. the raw network outputs. Shuffling and dropout draw from
    one generator seeded here, so the trace is reproducible. Returns the
    per-epoch mean loss; raises `TrainingDiverged` on a non-finite loss.
    """
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = inputs.shape[0]
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            raw = net.forward(inputs[idx], mode="train", rng=rng)
            loss, grad_raw = loss_fn(raw, targets[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, loss)
            grads = net.backward(grad_raw)
            optimizer.apply(net, grads)
            total += loss * len(idx)
        trace.append(total / n)
    return trace
