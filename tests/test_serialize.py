"""Every model kind must survive a JSON round trip bit-for-bit."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import claslab as cl
from claslab.features import make_pipeline_trainer, parse_transform_spec
from claslab.neural import NetTrainConfig, train_net
from claslab.serialize import load_model, model_from_dict, model_to_dict, save_model

FIXTURES = Path(__file__).parent / "fixtures" / "models"
PROBLEM = cl.equal_cov_problem(0.5, [1.0, 0.4], [-1.0, -0.4])
DS = cl.sample(PROBLEM, 50, seed=1)
QUERIES = cl.sample(PROBLEM, 30, seed=2).features


def fitted_models():
    return {
        "lda": cl.fit_lda(DS, laplace_priors=True, ridge_cov=1e-6),
        "parzen": cl.fit_parzen(DS, 0.8),
        "linear": cl.train_logistic(DS, 1e-2, max_iters=200),
        "least_squares": cl.train_least_squares(DS, 0.1),
        "kernel_machine": cl.train_kernel_machine(DS, cl.Kernel("rbf", sigma=1.5), 0.5),
        "knn": cl.fit_knn(DS, 5),
        "tree": cl.fit_tree(DS, 3),
        "bagging": cl.bagging(DS, cl.TreeConfig(2, 1), 4, seed=3),
        "subspace": cl.random_subspace(DS, cl.TreeConfig(2, 1), 3, 1, seed=4),
        "boost": cl.adaboost(DS, 5),
        "net": train_net(DS, NetTrainConfig(hidden_units=3, max_iters=100, seed=5)),
        "pipeline": make_pipeline_trainer(
            parse_transform_spec("standardize+poly2"), lambda d: cl.train_least_squares(d, 0.1)
        )(DS),
    }


@pytest.mark.parametrize("name", list(fitted_models()))
def test_dict_roundtrip_preserves_predictions(name):
    model = fitted_models()[name]
    again = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(model.predict(QUERIES), again.predict(QUERIES))
    if hasattr(model, "decision_function"):
        np.testing.assert_array_equal(
            np.asarray(model.decision_function(QUERIES), dtype=float),
            np.asarray(again.decision_function(QUERIES), dtype=float),
        )


@pytest.mark.parametrize("name", list(fitted_models()))
def test_saved_json_matches_golden_bytes(name, tmp_path):
    # fixtures were written by the code before field-driven serialization
    save_model(fitted_models()[name], tmp_path / "m.json")
    assert (tmp_path / "m.json").read_bytes() == (FIXTURES / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", list(fitted_models()))
def test_golden_model_reloads_with_identical_scores(name):
    expected = json.loads((FIXTURES / "decision_values.json").read_text())[name]
    scores = load_model(FIXTURES / f"{name}.json").decision_function(QUERIES)
    np.testing.assert_array_equal(np.asarray(scores, dtype=float), expected)


@pytest.mark.parametrize("name", ["tree", "bagging", "subspace", "boost"])
def test_tree_model_equals_its_reload(name):
    model = fitted_models()[name]
    assert model_from_dict(model_to_dict(model)) == model


def test_file_roundtrip_is_exact(tmp_path):
    model = cl.train_least_squares(DS, 0.1)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    np.testing.assert_array_equal(model.weight, again.weight)
    assert model.bias == again.bias


def test_subspace_masks_survive(tmp_path):
    model = cl.random_subspace(DS, cl.TreeConfig(2, 1), 3, 1, seed=6)
    path = tmp_path / "ens.json"
    save_model(model, path)
    again = load_model(path)
    assert again.member_feature_masks == model.member_feature_masks


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("knn", "k", -1, r"k must lie in \[1, N=50\]"),
        ("knn", "k", 0, r"k must lie in \[1, N=50\]"),
        ("knn", "k", 52, r"k must lie in \[1, N=50\]"),
        ("knn", "k", 2, "even k"),
        ("parzen", "bandwidth", 0.0, "bandwidth must be positive"),
        ("parzen", "bandwidth", -0.5, "bandwidth must be positive"),
    ],
    ids=["k=-1", "k=0", "k=N+2", "k=2", "bandwidth=0", "bandwidth=-0.5"],
)
def test_a_model_file_gets_the_fits_parameter_checks(kind, field, value, message):
    obj = model_to_dict(fitted_models()[kind])
    obj[field] = value
    with pytest.raises(ValueError, match=message):
        model_from_dict(obj)


def test_numpy_integer_k_and_numpy_float_bandwidth_stay_valid():
    models = fitted_models()
    knn = cl.KnnClassifier(np.int64(5), models["knn"].features, models["knn"].labels)
    parzen = replace(models["parzen"], bandwidth=np.float64(0.8))
    for name, model in [("knn", knn), ("parzen", parzen)]:
        want = models[name].decision_function(QUERIES)
        assert model.decision_function(QUERIES).tobytes() == want.tobytes()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"kind": "mystery"})
    with pytest.raises(ValueError, match="unknown model kind"):
        model_from_dict({"kind": ["lda"]})


# (fixture, change to its JSON, message): each file must raise a ValueError
# naming the field, not an AttributeError, a TypeError or a bare KeyError
MALFORMED_FILES = {
    "top_level_list": ("lda", lambda obj: [obj], "a model must be a JSON object"),
    "object_weight": ("lda", lambda obj: {**obj, "weight": {"a": 1}},
                      "lda model 'weight' must be a JSON list"),
    "missing_weight": ("lda", lambda obj: {k: v for k, v in obj.items() if k != "weight"},
                       "lda model needs 'weight'"),
    "ragged_cov": ("lda", lambda obj: {**obj, "pooled_cov": [[1.0], [0.0, 1.0]]},
                   "lda model 'pooled_cov' must be a JSON list of numbers"),
    "string_in_weight": ("lda", lambda obj: {**obj, "weight": ["1", 2.0]},
                         "lda model 'weight' must be a JSON list of numbers"),
    "null_offset": ("lda", lambda obj: {**obj, "offset": None},
                    "lda model 'offset' must be a JSON number, got None"),
    "list_offset": ("lda", lambda obj: {**obj, "offset": [0.5]},
                    "lda model 'offset' must be a JSON number"),
    "string_offset": ("lda", lambda obj: {**obj, "offset": "x"},
                      "lda model 'offset' must be a JSON number, got 'x'"),
    "string_bandwidth": ("parzen", lambda obj: {**obj, "bandwidth": "0.7"},
                         "parzen model 'bandwidth' must be a JSON number, got '0.7'"),
    "string_node_feature": ("tree", lambda obj: {**obj, "root": {**obj["root"], "feature": "a"}},
                            "a tree node 'feature' must be a JSON integer, got 'a'"),
    "string_node_threshold": (
        "tree", lambda obj: {**obj, "root": {**obj["root"], "threshold": "x"}},
        "a tree node 'threshold' must be a JSON number, got 'x'",
    ),
    "float_leaf": ("tree", lambda obj: {**obj, "root": {"leaf": 1.5}},
                   "a tree node 'leaf' must be a JSON integer, got 1.5"),
    "feature_past_dim": ("tree", lambda obj: {**obj, "root": {**obj["root"], "feature": 5}},
                         "a tree split 'feature' must lie in [0, 2), got 5"),
    "negative_feature": ("tree", lambda obj: {**obj, "root": {**obj["root"], "feature": -1}},
                         "a tree split 'feature' must lie in [0, 2), got -1"),
    "leaf_label_7": ("tree", lambda obj: {**obj, "root": {"leaf": 7}},
                     "a tree leaf 'label' must be -1 or +1, got 7"),
    "node_without_threshold": (
        "tree", lambda obj: {**obj, "root": {"feature": 0, "left": {"leaf": 1}}},
        "a tree node needs 'threshold'",
    ),
    "string_kernel": ("kernel_machine", lambda obj: {**obj, "kernel": "rbf"},
                      "kernel_machine model 'kernel' must be a JSON object"),
    "float_k": ("knn", lambda obj: {**obj, "k": 3.0},
                "knn model 'k' must be a JSON integer, got 3.0"),
    "boolean_k": ("knn", lambda obj: {**obj, "k": True},
                  "knn model 'k' must be a JSON integer, got True"),
    "knn_object_labels": ("knn", lambda obj: {**obj, "labels": {"a": 1}},
                          "knn model 'labels' must be a JSON list"),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_a_malformed_model_file_is_a_value_error_naming_the_field(tmp_path, case):
    name, change, message = MALFORMED_FILES[case]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(change(json.loads((FIXTURES / f"{name}.json").read_text()))))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(path)


def test_a_deeply_nested_model_file_is_a_value_error(tmp_path):
    # json.load gives up with a RecursionError, a RuntimeError; the file is at fault
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError, match="is nested too deeply"):
        load_model(path)
