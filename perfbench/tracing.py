"""Span tracing around the program's public functions, installed from outside.

Each wrapper is set where the caller looks the name up (for example
`mdnuq.policy.detect_collision`, not only `mdnuq.sim.detect_collision`);
methods are patched on their class. Spans stay in memory as
[label, parent, root, start_ns, end_ns, attr] and are written out once, at
the end. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

LEARNED_POLICIES = ("ualfd", "ualfd2", "mdn_k10", "mdn_k1", "regnet")


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _forward_label(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "eval")
    return "nn.forward_train" if mode == "train" else "nn.forward_eval"


# (module, attribute names it is looked up under, label, attr extractor).
# A label that is a function gets (args, kwargs) and returns the label.
TARGETS = [
    ("mdnuq.nn", ["MlpNetwork.forward"], _forward_label, lambda a, k: _rows(a[1])),
    ("mdnuq.nn", ["MlpNetwork.backward"], "nn.backward", None),
    ("mdnuq.nn", ["Optimizer.apply"], "nn.optimizer_apply", None),
    ("mdnuq.mdn", ["transform_batch"], "mdn.transform_batch", lambda a, k: _rows(a[0])),
    ("mdnuq.mdn", ["head_transform", "mdnuq.uncertainty.head_transform"], "mdn.head_transform", None),
    ("mdnuq.mdn", ["nll_loss"], "mdn.nll_loss", None),
    ("mdnuq.mdn", ["predict_map", "mdnuq.policy.predict_map"], "mdn.predict_map", None),
    ("mdnuq.mdn", ["train_mdn"], "mdn.train_mdn", None),
    ("mdnuq.modelio", ["load_model"], "modelio.load_model", None),
    ("mdnuq.uncertainty", ["report", "mdnuq.synthetic.report"], "uncertainty.report", None),
    ("mdnuq.uncertainty", ["mc_dropout_variance"], "uncertainty.mc_dropout_variance", None),
    ("mdnuq.synthetic", ["evaluate_grid"], "synthetic.evaluate_grid", lambda a, k: a[1] ** 2),
    ("mdnuq.sim", ["detect_collision", "mdnuq.policy.detect_collision"], "sim.detect_collision", None),
    ("mdnuq.sim", ["extract_features", "mdnuq.policy.extract_features"], "sim.extract_features", None),
    ("mdnuq.sim", ["Simulation.step"], "sim.step", None),
    ("mdnuq.sim", ["center_lane_speeds", "mdnuq.policy.center_lane_speeds"], "sim.center_lane_speeds", None),
    ("mdnuq.sim", ["min_gap_to_cars", "mdnuq.policy.min_gap_to_cars"], "sim.min_gap_to_cars", None),
    ("mdnuq.sim", ["spawn_traffic", "mdnuq.policy.spawn_traffic"], "sim.spawn_traffic", None),
    ("mdnuq.policy", ["run_episode"], "policy.run_episode", lambda a, k: a[0].value),
    ("mdnuq.policy", ["learned_policy"], "policy.learned_policy", None),
]

LABELS = sorted({t[2] for t in TARGETS if isinstance(t[2], str)} | {"nn.forward_eval", "nn.forward_train"})


def _resolve(dotted: str, default_module):
    """'Cls.attr' relative to the default module, or 'pkg.mod.attr' absolute."""
    head, _, attr = dotted.rpartition(".")
    if head.startswith("mdnuq."):
        return importlib.import_module(head), attr
    return (getattr(default_module, head) if head else default_module), attr


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, label, attr_fn=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, stack[0] if stack else idx, 0, 0,
                   attr_fn(args, kwargs) if attr_fn else None]
            spans.append(rec)
            stack.append(idx)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, names, label, attr_fn in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr = _resolve(names[0], module)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, label, attr_fn)
            for dotted in names:
                o, a = _resolve(dotted, module)
                if getattr(o, a) is not original:
                    raise RuntimeError(f"{dotted} is not the function it should wrap")
                self._saved.append((o, a, original))
                setattr(o, a, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("label,parent,root,start_ns,end_ns,attr\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in s) + "\n")


def per_layer(spans: list[list], wall_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from finished spans: calls and self-time share per label,
    rows through the network, forwards per grid cell and per learned tick."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    rows: Counter = Counter()
    child_ns = [0] * len(spans)
    for label, parent, _root, start, end, _attr in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (label, _parent, _root, start, end, attr) in enumerate(spans):
        calls[label] += 1
        self_ns[label] += end - start - child_ns[i]
        if label.startswith("nn.forward"):
            rows[label] += attr

    grid_forwards = grid_cells = 0
    learned = Counter()
    learned_forwards = Counter()
    episode: dict = {}
    for i, (label, _parent, root, _start, _end, attr) in enumerate(spans):
        root_label = spans[root][0]
        if root_label == "synthetic.evaluate_grid":
            if i == root:
                grid_cells += attr
            elif label == "nn.forward_eval":
                grid_forwards += 1
        elif root_label == "policy.run_episode":
            if i == root:
                episode = {"tick": 0, "forwards": Counter(), "learned": set(), "policy": attr}
            elif label == "sim.step":
                episode["tick"] += 1
            elif label == "nn.forward_eval":
                episode["forwards"][episode["tick"]] += 1
            elif label == "policy.learned_policy":
                episode["learned"].add(episode["tick"])
            if i + 1 == len(spans) or spans[i + 1][2] != root:
                policy = episode["policy"]
                learned[policy] += len(episode["learned"])
                learned_forwards[policy] += sum(episode["forwards"][t] for t in episode["learned"])

    out: dict[str, tuple[float, str]] = {}
    for label in LABELS:
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.self_pct"] = (100.0 * self_ns[label] / wall_ns, "%")
    out["nn.forward_eval.rows"] = (rows["nn.forward_eval"], "count")
    out["nn.forward_train.rows"] = (rows["nn.forward_train"], "count")
    out["synthetic.forwards_per_cell"] = (grid_forwards / grid_cells if grid_cells else 0.0, "ratio")
    for policy in LEARNED_POLICIES:
        out[f"policy.learned_ticks.{policy}"] = (learned[policy], "count")
        ratio = learned_forwards[policy] / learned[policy] if learned[policy] else 0.0
        out[f"policy.forwards_per_learned_tick.{policy}"] = (ratio, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out
