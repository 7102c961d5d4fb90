"""One-hidden-layer net: forward pass, backprop, training behavior."""

import numpy as np
import pytest
from scipy.special import expit

from claslab.data import LabeledDataset
from claslab.exceptions import DivergenceError
from claslab.neural import (
    HIDDEN_ACTIVATIONS,
    OUTPUT_ACTIVATIONS,
    NetTrainConfig,
    OneHiddenLayerNet,
    net_gradient,
    net_objective,
    train_net,
)
from claslab.oracle import equal_cov_problem, sample

XOR = LabeledDataset([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [-1, -1, 1, 1])


def random_net(rng, d=2, D=3, hidden="logistic_sigmoid", out="identity"):
    return OneHiddenLayerNet(
        rng.normal(size=(D, d)),
        rng.normal(size=D),
        rng.normal(size=D),
        float(rng.normal()),
        hidden,
        out,
    )


def flatten_params(net):
    return np.concatenate(
        [
            net.hidden_weights.ravel(),
            net.hidden_biases,
            net.output_weights,
            [net.output_bias],
        ]
    )


def rebuild(net, flat):
    D, d = net.hidden_weights.shape
    W = flat[: D * d].reshape(D, d)
    b = flat[D * d : D * d + D]
    v = flat[D * d + D : D * d + 2 * D]
    c = float(flat[-1])
    return OneHiddenLayerNet(W, b, v, c, net.hidden_activation, net.output_activation)


class TestForward:
    def test_relu_clips_inside_the_pass(self):
        # pre-activations land at -3 and 2; relu keeps only the 2
        net = OneHiddenLayerNet(
            np.array([[-3.0], [2.0]]), np.zeros(2), np.array([1.0, 1.0]), 0.0,
            "relu", "identity",
        )
        assert net.forward([1.0]) == 2.0

    def test_zero_weights_sigmoid_output_is_half_and_positive(self):
        net = OneHiddenLayerNet(
            np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0,
            "logistic_sigmoid", "logistic_sigmoid",
        )
        x = np.array([[0.4, -0.9]])
        assert net.forward(x[0]) == 0.5
        assert net.predict(x)[0] == 1  # threshold tie goes positive

    def test_hand_composition(self):
        net = OneHiddenLayerNet(
            np.array([[2.0]]), np.array([-1.0]), np.array([3.0]), 0.25,
            "logistic_sigmoid", "identity",
        )
        for x in (-1.0, 0.0, 2.0):
            sigma = 1.0 / (1.0 + np.exp(-(2.0 * x - 1.0)))
            assert net.forward([x]) == pytest.approx(3.0 * sigma + 0.25, rel=1e-12)

    def test_dimension_mismatch(self):
        net = OneHiddenLayerNet(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            net.forward([1.0])

    def test_hidden_unit_permutation_invariance(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, D=4)
        perm = rng.permutation(4)
        permuted = OneHiddenLayerNet(
            net.hidden_weights[perm],
            net.hidden_biases[perm],
            net.output_weights[perm],
            net.output_bias,
        )
        X = rng.normal(size=(20, 2))
        np.testing.assert_allclose(net.forward(X), permuted.forward(X), atol=1e-12)


class TestGradient:
    @pytest.mark.parametrize("hidden", ["logistic_sigmoid", "relu"])
    @pytest.mark.parametrize("out", ["identity", "logistic_sigmoid"])
    def test_matches_finite_differences(self, hidden, out):
        rng = np.random.default_rng(42)
        checks = 0
        while checks < 50:
            net = random_net(rng, hidden=hidden, out=out)
            X = rng.normal(size=(6, 2))
            if hidden == "relu":
                # stay away from the kink: |pre-activation| > 1e-3 everywhere
                pre = X @ net.hidden_weights.T + net.hidden_biases
                if np.min(np.abs(pre)) < 1e-3:
                    continue
            t = rng.choice([-1.0, 1.0], size=6)
            if out == "logistic_sigmoid":
                t = (t + 1) / 2
            dW, db, dv, dc = net_gradient(net, X, t)
            grad = np.concatenate([dW.ravel(), db, dv, [dc]])
            flat = flatten_params(net)
            h = 1e-6
            for i in rng.choice(flat.size, size=4, replace=False):
                e = np.zeros(flat.size)
                e[i] = h
                up = net_objective(rebuild(net, flat + e), X, t)
                dn = net_objective(rebuild(net, flat - e), X, t)
                fd = (up - dn) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-5 * (1 + abs(grad[i]))
            checks += 1

    def test_zero_output_weights_cut_hidden_gradient(self):
        rng = np.random.default_rng(1)
        net = OneHiddenLayerNet(
            rng.normal(size=(3, 2)), rng.normal(size=3), np.zeros(3), 0.5,
            "logistic_sigmoid", "identity",
        )
        X = rng.normal(size=(5, 2))
        dW, db, _, _ = net_gradient(net, X, np.ones(5))
        np.testing.assert_array_equal(dW, np.zeros((3, 2)))
        np.testing.assert_array_equal(db, np.zeros(3))

    def test_perfect_fit_has_zero_gradient(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        X = rng.normal(size=(4, 2))
        targets = net.forward(X)  # outputs themselves: loss is exactly 0
        for g in net_gradient(net, X, targets):
            np.testing.assert_allclose(np.asarray(g), 0.0, atol=1e-15)


class TestTrainNet:
    def test_separable_line_is_learned(self):
        ds = sample(equal_cov_problem(0.5, [2.0], [-2.0]), 30, seed=0)
        cfg = NetTrainConfig(hidden_units=4, learning_rate=0.2, max_iters=1500, seed=0)
        net = train_net(ds, cfg)
        assert np.mean(net.predict(ds.features) != ds.labels) == 0.0

    def test_xor_solved_for_most_seeds(self):
        wins = 0
        for seed in range(10):
            cfg = NetTrainConfig(
                hidden_units=4, learning_rate=0.5, max_iters=3000,
                init_scale=1.0, seed=seed,
            )
            net = train_net(XOR, cfg)
            wins += np.mean(net.predict(XOR.features) != XOR.labels) == 0.0
        assert wins >= 8

    def test_zero_init_relu_never_breaks_symmetry(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.5], [-1.0, -0.5]), 40, seed=3)
        cfg = NetTrainConfig(
            hidden_units=4, learning_rate=0.1, max_iters=300,
            init_scale=0.0, seed=1, hidden_activation="relu",
        )
        net = train_net(ds, cfg)
        # all hidden rows stay identical, so the net is a constant classifier
        for row in net.hidden_weights[1:]:
            np.testing.assert_array_equal(row, net.hidden_weights[0])
        majority_error = min(ds.n_pos, ds.n_neg) / ds.n
        assert np.mean(net.predict(ds.features) != ds.labels) == pytest.approx(
            majority_error, abs=1e-12
        )

    def test_best_iterate_no_worse_than_init(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 30, seed=4)
        cfg = NetTrainConfig(hidden_units=3, learning_rate=0.05, max_iters=50, seed=5)
        rng = np.random.default_rng(5)
        init = OneHiddenLayerNet(
            rng.uniform(-0.5, 0.5, size=(3, 1)),
            rng.uniform(-0.5, 0.5, size=3),
            rng.uniform(-0.5, 0.5, size=3),
            float(rng.uniform(-0.5, 0.5)),
        )
        trained = train_net(ds, cfg)
        targets = ds.labels.astype(float)
        assert net_objective(trained, ds.features, targets) <= net_objective(
            init, ds.features, targets
        )
        assert trained.info.objective == pytest.approx(
            net_objective(trained, ds.features, targets), rel=1e-12
        )

    def test_one_forward_pass_per_iteration(self, monkeypatch):
        calls = []
        layers = OneHiddenLayerNet._layers

        def counting(net, X):
            calls.append(X.shape)
            return layers(net, X)

        monkeypatch.setattr(OneHiddenLayerNet, "_layers", counting)
        train_net(XOR, NetTrainConfig(hidden_units=2, max_iters=10, seed=1))
        assert calls == [(4, 2)] * 11

    def test_divergence_raises_with_iteration_number(self):
        ds = sample(equal_cov_problem(0.5, [2.0], [-2.0]), 20, seed=6)
        cfg = NetTrainConfig(hidden_units=4, learning_rate=1e12, max_iters=200, seed=0)
        with pytest.raises(DivergenceError, match="iteration"):
            train_net(ds, cfg)

    def test_single_hidden_unit_gives_linear_boundary(self):
        ds = sample(equal_cov_problem(0.5, [1.5, 0.0], [-1.5, 0.0]), 60, seed=7)
        cfg = NetTrainConfig(hidden_units=1, learning_rate=0.3, max_iters=2000, seed=2)
        net = train_net(ds, cfg)
        assert np.mean(net.predict(ds.features) != ds.labels) < 0.5
        # out = v sigma(w.x + b) + c is monotone in the projection w.x, so
        # sorting queries by that projection must show one single label flip
        w = net.hidden_weights[0]
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 2), scale=2.0)
        pred_sorted = net.predict(X)[np.argsort(X @ w)]
        assert np.sum(np.diff(pred_sorted) != 0) <= 1


# The activation branches as they stood before the tables in claslab.neural,
# kept as the reference the tables must reproduce bit for bit.
def _reference_act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    return expit(z)


def _reference_act_deriv(name, z, activated):
    if name == "relu":
        return (z > 0.0).astype(float)
    return activated * (1.0 - activated)


def _reference_targets(labels, output_activation):
    if output_activation == "logistic_sigmoid":
        return (labels + 1.0) / 2.0
    return labels.astype(float)


def _reference_layers(net, X):
    z = X @ net.hidden_weights.T + net.hidden_biases
    hidden = _reference_act(net.hidden_activation, z)
    pre = hidden @ net.output_weights + net.output_bias
    return z, hidden, pre if net.output_activation == "identity" else expit(pre)


def _reference_decision(net, X):
    threshold = 0.5 if net.output_activation == "logistic_sigmoid" else 0.0
    return _reference_layers(net, X)[2] - threshold


def _reference_objective_and_gradient(net, X, targets):
    with np.errstate(over="ignore", invalid="ignore"):
        z, hidden, out = _reference_layers(net, X)
        obj = float(np.mean((out - targets) ** 2))
        dout_dpre = 1.0 if net.output_activation == "identity" else out * (1.0 - out)
        dpre = 2.0 * (out - targets) * dout_dpre / X.shape[0]
        dv = hidden.T @ dpre
        dc = float(dpre.sum())
        dhidden = np.outer(dpre, net.output_weights)
        dz = dhidden * _reference_act_deriv(net.hidden_activation, z, hidden)
        dW = dz.T @ X
        db = dz.sum(axis=0)
    return obj, (dW, db, dv, dc)


def _reference_train_net(ds, config):
    """(best net, best objective) of the training loop, on the reference branches."""
    rng = np.random.default_rng(config.seed)
    d, D = ds.dim, config.hidden_units
    span = config.init_scale
    W = rng.uniform(-span, span, size=(D, d))
    b = rng.uniform(-span, span, size=D)
    v = rng.uniform(-span, span, size=D)
    c = float(rng.uniform(-span, span))
    targets = _reference_targets(ds.labels, config.output_activation)
    activations = (config.hidden_activation, config.output_activation)
    net = OneHiddenLayerNet(W, b, v, c, *activations)
    obj, grads = _reference_objective_and_gradient(net, ds.features, targets)
    best, best_obj = net, obj
    for _ in range(config.max_iters):
        params = (net.hidden_weights, net.hidden_biases, net.output_weights, net.output_bias)
        net = OneHiddenLayerNet(
            *(p - config.learning_rate * g for p, g in zip(params, grads)), *activations
        )
        obj, grads = _reference_objective_and_gradient(net, ds.features, targets)
        if obj < best_obj:
            best, best_obj = net, obj
    return best, best_obj


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("hidden", list(HIDDEN_ACTIVATIONS))
@pytest.mark.parametrize("out", list(OUTPUT_ACTIVATIONS))
def test_activation_tables_match_the_reference_branches_bit_for_bit(hidden, out):
    rng = np.random.default_rng(11)
    for _ in range(20):
        d, D, n = (int(k) for k in rng.integers(1, 6, size=3))
        net = random_net(rng, d=d, D=D, hidden=hidden, out=out)
        X = rng.normal(size=(n, d), scale=2.0)
        ref_z, ref_hidden, ref_out = _reference_layers(net, X)
        z, hidden_layer, output = net._layers(X)
        assert same_bits(z, ref_z) and same_bits(hidden_layer, ref_hidden)
        assert same_bits(output, ref_out) and same_bits(net.forward(X), ref_out)
        assert same_bits(net.decision_function(X), _reference_decision(net, X))
        targets = _reference_targets(rng.choice([-1, 1], size=n), out)
        ref_obj, ref_grads = _reference_objective_and_gradient(net, X, targets)
        assert net_objective(net, X, targets) == ref_obj
        for g, ref_g in zip(net_gradient(net, X, targets), ref_grads):
            assert same_bits(g, ref_g)
    problem = equal_cov_problem(0.5, [1.0, -0.5], [-1.0, 0.5])
    for seed in range(3):
        ds = sample(problem, 40, seed=seed)
        cfg = NetTrainConfig(
            hidden_units=3, learning_rate=0.2, max_iters=30, seed=seed,
            hidden_activation=hidden, output_activation=out,
        )
        trained = train_net(ds, cfg)
        ref_net, ref_obj = _reference_train_net(ds, cfg)
        assert trained.info.objective == ref_obj
        assert same_bits(flatten_params(trained), flatten_params(ref_net))


@pytest.mark.parametrize("field, message", [
    ("hidden_activation", "unknown hidden activation 'tanh'"),
    ("output_activation", "unknown output activation 'tanh'"),
])
def test_unknown_activation_rejected_by_the_net_and_by_training(field, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OneHiddenLayerNet(np.zeros((1, 1)), np.zeros(1), np.zeros(1), 0.0, **{field: "tanh"})
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_net(XOR, NetTrainConfig(max_iters=1, **{field: "tanh"}))
