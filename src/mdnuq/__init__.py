"""Mixture density network regression with a sampling-free split of the
predictive variance into explained (model-ignorance) and unexplained (noise)
parts, plus a synthetic benchmark and an uncertainty-gated driving policy."""

from .nn import (
    ConfigError,
    DenseLayer,
    MlpConfig,
    MlpNetwork,
    Optimizer,
    StateError,
    TrainingDiverged,
    init_mlp,
    mse_loss,
    train_network,
)
from .mdn import (
    GmmBatch,
    GmmParams,
    MdnConfig,
    MdnModel,
    TrainSchedule,
    TrainingSet,
    build_mdn,
    head_transform,
    load_mdn,
    nll_loss,
    predict_map,
    train_mdn,
    transform_batch,
)
from .uncertainty import (
    McDropoutReport,
    UncertaintyReport,
    explained_variance,
    mc_dropout_variance,
    report,
    report_from_gmm,
    total_mean,
    total_variance,
    unexplained_variance,
)
from .modelio import load_model, save_model

__all__ = [name for name in dir() if not name.startswith("_")]
