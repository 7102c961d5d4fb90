"""JSON (de)serialization for every fitted model in the package.

A model is written as its dataclass fields plus the ``kind`` naming its
class in :data:`KINDS`, and read back by walking the fields' annotations.
Floats survive a round trip exactly (the json module prints shortest
round-trip decimals), so a reloaded model reproduces its predictions
bit for bit.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np

from .data import LabeledDataset, read_json
from .ensembles import BoostModel, BoostRound, Ensemble
from .features import PipelineClassifier, Poly2Expand, Select, Standardize
from .generative import LdaModel, ParzenModel
from .kernels import Kernel, KernelMachine
from .linear import LinearHypothesis
from .neighbors import KnnClassifier
from .neural import OneHiddenLayerNet
from .trees import DecisionTree, TreeNode

KINDS = {
    "lda": LdaModel,
    "parzen": ParzenModel,
    "linear": LinearHypothesis,
    "kernel_machine": KernelMachine,
    "knn": KnnClassifier,
    "tree": DecisionTree,
    "ensemble": Ensemble,
    "boost": BoostModel,
    "net": OneHiddenLayerNet,
    "pipeline": PipelineClassifier,
    "standardize": Standardize,
    "poly2": Poly2Expand,
    "select": Select,
}
_KIND_OF = {cls: kind for kind, cls in KINDS.items()}
_RECORDS = (Kernel, BoostRound)  # nested field groups, written without a kind
_KEYS = {"member_feature_masks": "masks"}  # field name -> JSON key, where they differ


# tree nodes use a compact leaf form and never store an inner node's label
def _node_to_dict(node):
    if node.is_leaf:
        return {"leaf": node.label}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(obj):
    if "leaf" in obj:
        return TreeNode(label=obj["leaf"])
    return TreeNode(
        feature=obj["feature"],
        threshold=obj["threshold"],
        left=_node_from_dict(obj["left"]),
        right=_node_from_dict(obj["right"]),
    )


def _stored_fields(cls):
    return [f.name for f in fields(cls) if f.name != "info"]  # training info is not saved


def _encode(value):
    if isinstance(value, (str, int, float, type(None))):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, TreeNode):
        return _node_to_dict(value)
    if isinstance(value, KnnClassifier):  # files carry the data, not a dataset
        return {
            "kind": "knn",
            "k": value.k,
            "features": value.dataset.features.tolist(),
            "labels": value.dataset.labels.tolist(),
        }
    if type(value) not in _KIND_OF and not isinstance(value, _RECORDS):
        raise ValueError(f"cannot serialize model of type {type(value).__name__}")
    out = {_KEYS.get(k, k): _encode(getattr(value, k)) for k in _stored_fields(type(value))}
    if type(value) in _KIND_OF:
        out["kind"] = _KIND_OF[type(value)]
    if isinstance(value, OneHiddenLayerNet):
        out["threshold"] = value.threshold  # derived; ignored on load
    return out


def _decode(hint, value):
    if value is None:
        return None
    if isinstance(hint, types.UnionType):  # an optional field: X | None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if hint is np.ndarray:
        return np.array(value)
    if hint is TreeNode:
        return _node_from_dict(value)
    if is_dataclass(hint):
        return _from_fields(hint, value)
    if isinstance(value, dict):
        return model_from_dict(value)
    if isinstance(value, list):
        item = (typing.get_args(hint) or (object,))[0]
        return tuple(_decode(item, v) for v in value)
    return value


def _from_fields(cls, obj):
    if cls is KnnClassifier:
        ds = LabeledDataset(np.array(obj["features"]), np.array(obj["labels"]))
        return KnnClassifier(obj["k"], ds)
    hints = typing.get_type_hints(cls)
    return cls(**{k: _decode(hints[k], obj[_KEYS.get(k, k)]) for k in _stored_fields(cls)})


def model_to_dict(model) -> dict:
    return _encode(model)


def model_from_dict(obj: dict):
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _from_fields(KINDS[kind], obj)


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path):
    return model_from_dict(read_json(path))
