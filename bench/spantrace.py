"""Span tracer that wraps claslab's public functions from outside the package.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces every
binding of each traced function in every loaded ``claslab`` module (so
``claslab.cli.sample`` and ``claslab.evaluation.sample`` are both caught),
wraps ``decision_function`` per model class, and :meth:`Tracer.uninstall`
puts the originals back.  Spans live in memory as ``[name, parent, t0, t1]``
rows and are turned into per-layer metrics at the end.

A call into the ``fit`` or ``predict`` layer made while a span of the same
layer is open is not a span of its own: its time stays with the outer one,
so an ensemble's member trees count as the ensemble's fit and
``train_logistic``'s call into ``train_linear`` counts as the logistic fit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRAINERS = (
    "lda", "parzen", "logistic", "least_squares", "linear", "kernel_ridge",
    "knn", "tree", "bagging", "random_subspace", "adaboost", "net",
)
MODELS = (
    "lda", "linear", "parzen", "knn", "kernel_ridge", "tree", "ensemble",
    "boost", "net", "bayes",
)
ESTIMATORS = ("loo", "kfold", "e632", "bootstrap_corrected", "learning_curve", "feature_curve")

# (module, attribute, span name, recorder)
FUNCTIONS = (
    ("claslab.cli", "main", "cli", None),
    ("claslab.oracle", "sample", "oracle.sample", "n_arg1"),
    ("claslab.oracle", "true_error", "oracle.true_error", "mc_points"),
    ("claslab.data", "load_csv", "data.load_csv", "rows_result"),
    ("claslab.data", "save_csv", "data.save_csv", "rows_ds_arg0"),
    ("claslab.data", "make_folds", "data.resample_idx", None),
    ("claslab.data", "split_holdout", "data.resample_idx", None),
    ("claslab.data", "bootstrap_sample", "data.resample_idx", None),
    ("claslab.features", "fit_transform_chain", "features.fit_chain", None),
    ("claslab.serialize", "save_model", "serialize.save_model", None),
    ("claslab.evaluation", "loo_cv", "evaluation.loo", None),
    ("claslab.evaluation", "kfold_cv", "evaluation.kfold", None),
    ("claslab.evaluation", "e632", "evaluation.e632", None),
    ("claslab.evaluation", "bootstrap_corrected", "evaluation.bootstrap_corrected", None),
    ("claslab.evaluation", "learning_curve", "evaluation.learning_curve", None),
    ("claslab.evaluation", "feature_curve", "evaluation.feature_curve", None),
    ("claslab.generative", "fit_lda", "fit.lda", None),
    ("claslab.generative", "fit_parzen", "fit.parzen", None),
    ("claslab.linear", "train_logistic", "fit.logistic", "gd_info"),
    ("claslab.linear", "train_least_squares", "fit.least_squares", None),
    ("claslab.linear", "train_linear", "fit.linear", "gd_info"),
    ("claslab.kernels", "train_kernel_machine", "fit.kernel_ridge", None),
    ("claslab.neighbors", "fit_knn", "fit.knn", None),
    ("claslab.trees", "fit_tree", "fit.tree", None),
    ("claslab.ensembles", "bagging", "fit.bagging", None),
    ("claslab.ensembles", "random_subspace", "fit.random_subspace", None),
    ("claslab.ensembles", "adaboost", "fit.adaboost", None),
    ("claslab.neural", "train_net", "fit.net", None),
)

# (module, class, method, span name, recorder)
METHODS = (
    ("claslab.generative", "LdaModel", "decision_function", "predict.lda", "rows_arg1"),
    ("claslab.linear", "LinearHypothesis", "decision_function", "predict.linear", "rows_arg1"),
    ("claslab.generative", "ParzenModel", "decision_function", "predict.parzen", "rows_arg1"),
    ("claslab.neighbors", "KnnClassifier", "decision_function", "predict.knn", "rows_arg1"),
    ("claslab.kernels", "KernelMachine", "decision_function", "predict.kernel_ridge", "rows_arg1"),
    ("claslab.trees", "DecisionTree", "decision_function", "predict.tree", "rows_arg1"),
    ("claslab.ensembles", "Ensemble", "decision_function", "predict.ensemble", "rows_arg1"),
    ("claslab.ensembles", "BoostModel", "decision_function", "predict.boost", "rows_arg1"),
    ("claslab.neural", "OneHiddenLayerNet", "decision_function", "predict.net", "rows_arg1"),
    ("claslab.oracle", "BayesClassifier", "decision_function", "predict.bayes", "rows_arg1"),
    ("claslab.features", "PipelineClassifier", "_map", "features.pipeline_map", "rows_arg1"),
    ("claslab.data", "LabeledDataset", "subset", "data.subset", None),
    ("claslab.data", "FoldAssignment", "train_indices", "data.resample_idx", None),
    ("claslab.data", "FoldAssignment", "test_indices", "data.resample_idx", None),
)
# (module, class, method, counter): calls are counted, with no span, because
# the GD line search makes tens of thousands of them per op
COUNTED = (("claslab.losses", "Loss", "value", "losses.value.calls"),)

MERGED_LAYERS = ("fit", "predict")
MARK = "__bench_span__"


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _record(tracer, kind, name, args, kwargs, result):
    counts = tracer.counts
    if kind == "rows_arg1":
        counts[name + ".rows"] += _rows(args[1] if len(args) > 1 else kwargs["X"])
    elif kind == "n_arg1":
        counts[name + ".rows"] += int(args[1] if len(args) > 1 else kwargs["n"])
    elif kind == "rows_ds_arg0":
        counts[name + ".rows"] += args[0].n
    elif kind == "rows_result":
        counts[name + ".rows"] += result.n
    elif kind == "mc_points":
        counts[name + ".mc_points"] += int(args[2] if len(args) > 2 else kwargs["n_mc"])
    elif kind == "gd_info":
        info = result.info
        counts["fit.gd.fits"] += 1
        counts["fit.gd.iterations"] += info.iterations
        counts["fit.gd.max_iters"] += info.termination == "max_iters"


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or -1, t0, t1]
        self.counts = Counter()
        self._open = []  # indices of open spans, innermost last
        self._patches = []  # (owner, attribute, original)

    # -- spans

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._open.pop()

    def _nested_in_layer(self, name: str) -> bool:
        layer = name.split(".", 1)[0]
        return (
            layer in MERGED_LAYERS
            and bool(self._open)
            and self.spans[self._open[-1]][0].split(".", 1)[0] == layer
        )

    def _wrap(self, original, name, recorder):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._nested_in_layer(name):
                return original(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if recorder is not None:
                _record(tracer, recorder, name, args, kwargs, result)
            return result

        setattr(traced, MARK, name)
        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def _counter(self, original, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(counted, MARK, key)
        counted.__wrapped__ = original
        return counted

    # -- patching

    def install(self) -> "Tracer":
        import claslab.cli  # noqa: F401  (loads every claslab module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "claslab" or n.startswith("claslab.")]
        for mod_name, attr, name, recorder in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, recorder)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        methods = [(m, c, a, self._wrap, (name, rec)) for m, c, a, name, rec in METHODS]
        methods += [(m, c, a, self._counter, (key,)) for m, c, a, key in COUNTED]
        for mod_name, cls_name, attr, make, extra in methods:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original, *extra))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results

    def self_times(self):
        """Per span: its duration minus the part of it its children cover."""
        children = defaultdict(list)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = []
        for idx, (_, _, t0, t1) in enumerate(self.spans):
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((t1 - t0) - covered)
        return out

    def totals(self):
        """Per span name: (calls, summed self time, summed inclusive time)."""
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        for (name, _, t0, t1), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
            incl_s[name] += t1 - t0
        return calls, self_s, incl_s

    def fits_under_evaluation(self) -> int:
        """Fit spans with an ``evaluation.*`` span among their ancestors."""
        under = [False] * len(self.spans)
        fits = 0
        for idx, (name, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                under[idx] = under[parent] or self.spans[parent][0].startswith("evaluation.")
            fits += under[idx] and name.startswith("fit.")
        return fits


def installed_wrappers() -> list:
    """Every claslab binding that is still a tracer wrapper (empty when clean)."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "claslab" and not mod_name.startswith("claslab."):
            continue
        for key, value in list(vars(mod).items()):
            if hasattr(value, MARK):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type):
                found += [
                    f"{mod_name}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, MARK)
                ]
    return found


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metric values, each a mean per traced op."""
    calls, self_s, incl_s = tracer.totals()
    counts = tracer.counts
    per = 1.0 / max(n_ops, 1)
    out = {}

    def put(name, value, unit):
        out[name] = (value * per, unit)

    put("oracle.sample.calls", calls["oracle.sample"], "count")
    put("oracle.sample.rows", counts["oracle.sample.rows"], "count")
    put("oracle.sample.self_s", self_s["oracle.sample"], "s")
    put("oracle.true_error.calls", calls["oracle.true_error"], "count")
    put("oracle.true_error.mc_points", counts["oracle.true_error.mc_points"], "count")
    put("oracle.true_error.self_s", self_s["oracle.true_error"], "s")
    put("oracle.bayes.predict_s", incl_s["predict.bayes"], "s")
    for m in MODELS:
        rows = counts[f"predict.{m}.rows"]
        put(f"predict.{m}.rows", rows, "count")
        put(f"predict.{m}.self_s", self_s[f"predict.{m}"], "s")
        s_per_10k = self_s[f"predict.{m}"] / rows * 1e4 if rows else 0.0
        out[f"predict.{m}.s_per_10k"] = (s_per_10k, "s")
    put("evaluation.fits", tracer.fits_under_evaluation(), "count")
    for e in ESTIMATORS:
        put(f"evaluation.{e}.self_s", self_s[f"evaluation.{e}"], "s")
    for t in TRAINERS:
        put(f"fit.{t}.calls", calls[f"fit.{t}"], "count")
        put(f"fit.{t}.self_s", self_s[f"fit.{t}"], "s")
    put("fit.gd.iterations", counts["fit.gd.iterations"], "count")
    gd_fits = counts["fit.gd.fits"]
    share = counts["fit.gd.max_iters"] / gd_fits if gd_fits else 0.0
    out["fit.gd.max_iters_share"] = (share, "ratio")
    put("losses.value.calls", counts["losses.value.calls"], "count")
    for key in ("load_csv", "save_csv"):
        put(f"data.{key}.rows", counts[f"data.{key}.rows"], "count")
        put(f"data.{key}.self_s", self_s[f"data.{key}"], "s")
    put("data.subset.calls", calls["data.subset"], "count")
    put("data.subset.self_s", self_s["data.subset"], "s")
    put("data.resample_idx.self_s", self_s["data.resample_idx"], "s")
    put("features.fit_chain.calls", calls["features.fit_chain"], "count")
    put("features.fit_chain.self_s", self_s["features.fit_chain"], "s")
    put("features.pipeline_map.rows", counts["features.pipeline_map.rows"], "count")
    put("features.pipeline_map.self_s", self_s["features.pipeline_map"], "s")
    put("serialize.save_model.calls", calls["serialize.save_model"], "count")
    put("serialize.save_model.self_s", self_s["serialize.save_model"], "s")
    put("cli.self_s", self_s["cli"], "s")
    return out
