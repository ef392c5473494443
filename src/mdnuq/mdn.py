"""Mixture density head: raw network outputs to Gaussian mixture parameters,
negative log likelihood training, and MAP prediction.

Raw head layout for K mixtures over d outputs, length K*(1+2d):
``[logits (K), means (K*d), variance logits (K*d)]``. Mixture weights come
from a softmax with max-subtraction; variances are ``sigma_max * sigmoid``
of the variance logits, so every entry stays strictly inside (0, sigma_max).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import modelio
from .nn import ConfigError, MlpConfig, MlpNetwork, Optimizer, init_mlp, train_network

# keeps sigmoid output away from exactly 0/1 even for saturated logits
_SIGMOID_MARGIN = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MdnConfig:
    num_mixtures: int
    output_dim: int
    sigma_max: float = 5.0
    nll_epsilon: float = 1e-6

    @property
    def raw_dim(self) -> int:
        return self.num_mixtures * (1 + 2 * self.output_dim)

    def validate(self) -> None:
        if self.num_mixtures < 1 or self.output_dim < 1:
            raise ConfigError("num_mixtures and output_dim must be positive")
        if self.sigma_max <= 0 or self.nll_epsilon <= 0:
            raise ConfigError("sigma_max and nll_epsilon must be positive")


@dataclass
class GmmParams:
    """One input's mixture: weights (K,), means (K, d), diagonal variances (K, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def num_mixtures(self) -> int:
        return self.weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.means.shape[1]

    def validate(self, sigma_max: float | None = None) -> None:
        if abs(float(self.weights.sum()) - 1.0) > 1e-12 or np.any(self.weights < 0):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("mixture variances must be strictly positive")
        if sigma_max is not None and np.any(self.variances >= sigma_max):
            raise ValueError(f"mixture variances must stay below {sigma_max}")


class GmmBatch(NamedTuple):
    """Stacked mixture parameters for a batch: (n,K), (n,K,d), (n,K,d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def row(self, i: int) -> GmmParams:
        return GmmParams(self.weights[i], self.means[i], self.variances[i])


@dataclass
class TrainingSet:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ConfigError("inputs and targets must have the same length")
        if self.inputs.shape[0] < 1:
            raise ConfigError("training set must contain at least one sample")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise ConfigError("training data contains non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) for x >= 0 and exp(x) below, so it never overflows;
    # min(x, -x) rather than -abs(x) keeps the sign bit of a NaN input as is
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    # np.clip's bounds applied in place; NaN passes through both the same way
    np.maximum(out, _SIGMOID_MARGIN, out=out)
    return np.minimum(out, 1.0 - _SIGMOID_MARGIN, out=out)


def _split_raw(raw: np.ndarray, cfg: MdnConfig):
    n = raw.shape[0]
    k, d = cfg.num_mixtures, cfg.output_dim
    logits = raw[:, :k]
    means = raw[:, k : k + k * d].reshape(n, k, d)
    var_logits = raw[:, k + k * d :].reshape(n, k, d)
    return logits, means, var_logits


def transform_batch(raw: np.ndarray, cfg: MdnConfig) -> GmmBatch:
    """Map raw head outputs (n, K*(1+2d)) to mixture parameters."""
    raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    if raw.shape[1] != cfg.raw_dim:
        raise ConfigError(f"raw head width {raw.shape[1]} != {cfg.raw_dim}")
    logits, means, var_logits = _split_raw(raw, cfg)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=1, keepdims=True)
    variances = cfg.sigma_max * _stable_sigmoid(var_logits)
    return GmmBatch(weights, means.copy(), variances)


def head_transform(raw: np.ndarray, cfg: MdnConfig) -> GmmParams:
    """Single-input version of `transform_batch`. Only tests call it; it stays
    because perfbench's tracer resolves it by name when it installs its wrappers."""
    batch = transform_batch(np.asarray(raw, dtype=np.float64).reshape(1, -1), cfg)
    return batch.row(0)


def nll_loss(params: GmmBatch, targets: np.ndarray, cfg: MdnConfig):
    """Mean negative log likelihood of a batch, -(1/N) sum log(sum_j pi_j N_j + eps),
    and its gradient w.r.t. the raw head outputs.

    Per-mixture densities use the diagonal-covariance product form, evaluated
    in log space; underflowed densities floor at zero and the epsilon inside
    the log keeps the loss finite and bounded by -log(eps).
    """
    weights, means, variances = params
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    n, k, d = means.shape
    eps = cfg.nll_epsilon
    diff = targets[:, None, :] - means  # (n, K, d)
    quad = diff * diff / variances
    log_density = -0.5 * np.sum(np.log(variances) + quad + _LOG_2PI, axis=2)  # (n, K)
    with np.errstate(divide="ignore"):
        log_w = np.where(weights > 0, np.log(np.maximum(weights, 1e-300)), -np.inf)
    a = log_w + log_density
    anchor = np.maximum(a.max(axis=1), np.log(eps))  # (n,)
    lse = anchor + np.log(
        np.exp(a - anchor[:, None]).sum(axis=1) + eps * np.exp(-anchor)
    )
    loss = float(-lse.mean())

    # responsibilities r_j = pi_j * N_j / (p + eps)
    r = np.exp(a - lse[:, None])
    r_total = r.sum(axis=1)  # (n,)
    grad_logits = (weights * r_total[:, None] - r) / n
    grad_means = -(r[:, :, None] * diff / variances) / n
    dl_dvar = r[:, :, None] * (0.5 / variances - 0.5 * quad / variances) / n
    s = variances / cfg.sigma_max
    grad_var_logits = dl_dvar * cfg.sigma_max * s * (1.0 - s)
    grad_raw = np.concatenate(
        [grad_logits, grad_means.reshape(n, k * d), grad_var_logits.reshape(n, k * d)],
        axis=1,
    )
    return loss, grad_raw


@dataclass
class MdnModel:
    """An MLP whose output layer parameterizes a Gaussian mixture."""

    net: MlpNetwork
    cfg: MdnConfig

    def __post_init__(self):
        self.cfg.validate()
        if self.net.config.output_dim != self.cfg.raw_dim:
            raise ConfigError(
                f"network output dim {self.net.config.output_dim} does not match "
                f"head width {self.cfg.raw_dim}"
            )

    def gmm(self, x: np.ndarray) -> GmmParams:
        """Mixture for a single input: a batch of one through `gmm_batch`."""
        return self.gmm_batch(np.reshape(x, (1, -1))).row(0)

    def gmm_batch(self, x: np.ndarray) -> GmmBatch:
        """Mixtures for a batch of inputs (n, in): one forward pass, one transform."""
        return transform_batch(self.net.forward(np.atleast_2d(x)), self.cfg)

    def save(self, path) -> None:
        modelio.save_model(path, self.net, self.cfg)


def build_mdn(
    input_dim: int,
    hidden_dims: list[int],
    num_mixtures: int,
    output_dim: int,
    *,
    sigma_max: float = 5.0,
    dropout_keep_prob: float = 1.0,
    weight_decay: float = 0.0,
    seed: int = 0,
) -> MdnModel:
    cfg = MdnConfig(num_mixtures, output_dim, sigma_max)
    cfg.validate()
    net = init_mlp(
        MlpConfig(
            input_dim=input_dim,
            hidden_dims=list(hidden_dims),
            output_dim=cfg.raw_dim,
            dropout_keep_prob=dropout_keep_prob,
            weight_decay=weight_decay,
            seed=seed,
        )
    )
    return MdnModel(net, cfg)


def load_mdn(path) -> MdnModel:
    net, cfg = modelio.load_model(path)
    if cfg is None:
        raise ConfigError(f"{path}: file holds a plain network, not a mixture model")
    return MdnModel(net, cfg)


@dataclass
class TrainSchedule:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    max_grad_norm: float | None = None


@dataclass
class PolicyTrainConfig:
    """One training recipe: network, mixture head and schedule. The defaults
    are the driving recipe; `synthetic.scenario_recipe` gives each scenario's."""

    hidden_dims: tuple[int, ...] = (256, 256)
    num_mixtures: int = 10
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 1e-6
    dropout_keep_prob: float = 1.0
    sigma_max: float = 5.0
    # the trig heading encoding leaves the cos dimension almost variance-free,
    # which makes raw NLL gradients spiky; clipping keeps training stable
    max_grad_norm: float | None = 5.0

    def schedule(self) -> TrainSchedule:
        return TrainSchedule(self.epochs, self.batch_size, self.learning_rate, self.max_grad_norm)

    def fresh_mdn(self, input_dim: int, output_dim: int, seed: int) -> MdnModel:
        """An untrained mixture model with this recipe's network and head."""
        return build_mdn(
            input_dim, list(self.hidden_dims), self.num_mixtures, output_dim,
            sigma_max=self.sigma_max, dropout_keep_prob=self.dropout_keep_prob,
            weight_decay=self.weight_decay, seed=seed,
        )


def train_mdn(
    model: MdnModel, data: TrainingSet, schedule: TrainSchedule, seed: int = 0
) -> list[float]:
    """Train the mixture head by NLL; returns the per-epoch mean loss trace."""
    if data.targets.shape[1] != model.cfg.output_dim:
        raise ConfigError("target dimension does not match the mixture head")

    def loss_fn(raw, y):
        return nll_loss(transform_batch(raw, model.cfg), y, model.cfg)

    opt = Optimizer(
        learning_rate=schedule.learning_rate, max_grad_norm=schedule.max_grad_norm
    )
    return train_network(
        model.net,
        data.inputs,
        data.targets,
        loss_fn,
        epochs=schedule.epochs,
        batch_size=schedule.batch_size,
        optimizer=opt,
        seed=seed,
    )


def predict_map(model: MdnModel, x: np.ndarray):
    """MAP prediction: mean/variance of the heaviest mixture (ties -> lowest index)."""
    g = model.gmm(x)
    j = int(np.argmax(g.weights))
    return g.means[j].copy(), g.variances[j].copy(), j
