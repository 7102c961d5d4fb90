"""JSON (de)serialization for every fitted model in the package.

A model is written as its dataclass fields plus the ``kind`` naming its
class in :data:`KINDS`, and read back by walking the fields' annotations.
Floats survive a round trip exactly (the json module prints shortest
round-trip decimals), so a reloaded model reproduces its predictions
bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np

from .data import _get, _shown, _typed, read_json
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
    obj = _typed(obj, dict, "a tree node")
    if "leaf" in obj:
        return TreeNode(label=_get(obj, "leaf", int, what="a tree node"))
    feature, threshold, left, right = (
        _get(obj, k, t, what="a tree node")
        for k, t in (("feature", int), ("threshold", float), ("left", object), ("right", object))
    )
    return TreeNode(feature, threshold, left=_node_from_dict(left), right=_node_from_dict(right))


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
    if type(value) not in _KIND_OF and not isinstance(value, _RECORDS):
        raise ValueError(f"cannot serialize model of type {type(value).__name__}")
    out = {_KEYS.get(k, k): _encode(getattr(value, k)) for k in _stored_fields(type(value))}
    if type(value) in _KIND_OF:
        out["kind"] = _KIND_OF[type(value)]
    if isinstance(value, OneHiddenLayerNet):
        out["threshold"] = value.threshold  # derived; ignored on load
    return out


def _array(value, what):
    """A JSON list of numbers, or of equal-length lists of them, as an array."""
    arr = None
    if isinstance(value, list):
        with contextlib.suppress(ValueError):  # ragged lists
            arr = np.array(value)
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a JSON list of numbers, or of equal-length "
                         f"lists of them, got {_shown(value)}")
    return arr


def _decode(hint, value, what):
    """The field value of type ``hint`` that JSON ``value`` stands for.

    Every field is typed here; the range of a number is the model's own to
    check, so a file gets the fit's range checks and their messages.
    """
    if isinstance(hint, types.UnionType):  # an optional field: X | None
        if value is None:
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if hint is np.ndarray:
        return _array(value, what)
    if hint is TreeNode:
        return _node_from_dict(value)
    if is_dataclass(hint):
        return _from_fields(hint, _typed(value, dict, what), what)
    if hint is tuple or typing.get_origin(hint) is tuple:
        item = (typing.get_args(hint) or (object,))[0]
        return tuple(_decode(item, v, f"each of {what}") for v in _typed(value, list, what))
    if hint is object:  # a model, or a row of a tuple such as a feature mask
        if isinstance(value, dict):
            return model_from_dict(value)
        return _decode(tuple, value, what) if isinstance(value, list) else value
    return _typed(value, hint, what)  # a scalar field: float, int or str


def _from_fields(cls, obj, what):
    hints = typing.get_type_hints(cls)
    keys = {name: _KEYS.get(name, name) for name in _stored_fields(cls)}
    return cls(**{
        name: _decode(hints[name], _get(obj, key, object, what=what), f"{what} {key!r}")
        for name, key in keys.items()
    })


def model_to_dict(model) -> dict:
    return _encode(model)


def model_from_dict(obj: dict):
    obj = _typed(obj, dict, "a model")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown model kind {_shown(kind)}")
    return _from_fields(KINDS[kind], obj, f"{kind} model")


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path):
    return model_from_dict(read_json(path))
