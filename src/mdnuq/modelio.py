"""Versioned binary model files.

Layout: 6-byte magic, uint32 little-endian header length, UTF-8 JSON header,
then for each layer the weight matrix (row-major, out x in) followed by the
bias vector, all float64 little-endian. The header records the MLP config
and, for mixture models, the head config, so a file loads back to the exact
same object; round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .nn import ConfigError, DenseLayer, MlpConfig, MlpNetwork

MAGIC = b"MDNUQ1"
FORMAT_VERSION = 1
_F8 = np.dtype("<f8")


def _header(net: MlpNetwork, mdn_cfg) -> dict:
    cfg = net.config
    head = None
    if mdn_cfg is not None:
        head = {
            "num_mixtures": mdn_cfg.num_mixtures,
            "output_dim": mdn_cfg.output_dim,
            "sigma_max": mdn_cfg.sigma_max,
            "nll_epsilon": mdn_cfg.nll_epsilon,
        }
    return {
        "format_version": FORMAT_VERSION,
        "mlp": {
            "input_dim": cfg.input_dim,
            "hidden_dims": list(cfg.hidden_dims),
            "output_dim": cfg.output_dim,
            "activation": cfg.activation,
            "dropout_keep_prob": cfg.dropout_keep_prob,
            "weight_decay": cfg.weight_decay,
            "seed": cfg.seed,
        },
        "mdn": head,
    }


def save_model(path: str | Path, net: MlpNetwork, mdn_cfg=None) -> None:
    header = json.dumps(_header(net, mdn_cfg), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for layer in net.layers:
            fh.write(np.ascontiguousarray(layer.weights, dtype=_F8).tobytes())
            fh.write(np.ascontiguousarray(layer.biases, dtype=_F8).tobytes())


def _read(fh, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ConfigError(f"{path}: truncated model file")
    return data


def load_model(path: str | Path):
    """Load a model file; returns (network, mdn_config_or_None). A file cut
    short, with bytes after the last layer, or with a header that is not JSON
    or lacks a key is refused with a ConfigError naming it."""
    from .mdn import MdnConfig  # local import to avoid a cycle

    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a model file (bad magic)")
        (hlen,) = struct.unpack("<I", _read(fh, 4, path))
        try:
            header = json.loads(_read(fh, hlen, path).decode("utf-8"))
            if header.get("format_version") != FORMAT_VERSION:
                raise ConfigError(f"{path}: unsupported format version")
            m = header["mlp"]
            cfg = MlpConfig(
                input_dim=m["input_dim"],
                hidden_dims=list(m["hidden_dims"]),
                output_dim=m["output_dim"],
                activation=m["activation"],
                dropout_keep_prob=m["dropout_keep_prob"],
                weight_decay=m["weight_decay"],
                seed=m["seed"],
            )
            head = header.get("mdn")
            mdn_cfg = None
            if head is not None:
                mdn_cfg = MdnConfig(
                    num_mixtures=head["num_mixtures"],
                    output_dim=head["output_dim"],
                    sigma_max=head["sigma_max"],
                    nll_epsilon=head["nll_epsilon"],
                )
        except (KeyError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: unreadable model header ({type(exc).__name__}: {exc})") from exc
        dims = [cfg.input_dim, *cfg.hidden_dims, cfg.output_dim]
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = np.frombuffer(_read(fh, 8 * fan_out * fan_in, path), dtype=_F8)
            b = np.frombuffer(_read(fh, 8 * fan_out, path), dtype=_F8)
            layers.append(DenseLayer(w.reshape(fan_out, fan_in).copy(), b.copy()))
        if fh.read(1):
            raise ConfigError(f"{path}: unexpected bytes after the last layer")
        return MlpNetwork(cfg, layers), mdn_cfg
