"""One-hidden-layer network trained by backpropagation.

The hypothesis is  out(x) = s_out( v . s(W x + b) + c )  with D hidden
units, hidden activation s in {logistic_sigmoid, relu} and output
activation s_out in {identity, logistic_sigmoid}.  Training is plain
full-batch gradient descent on the mean squared loss at a fixed
learning rate; the returned parameters are the best iterate seen, which
keeps runs reproducible despite the non-convex objective.

Classification thresholds the output at 0 (identity) or 0.5 (sigmoid),
with the threshold itself going to +1.  Targets are the labels for an
identity output and {0, 1} for a sigmoid output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .base import DecisionFunction, as_matrix, freeze
from .data import LabeledDataset
from .exceptions import DivergenceError
from .linear import TrainInfo

# name -> (s(z), s'(z, s(z))); relu takes the subgradient 0 at the kink
HIDDEN_ACTIVATIONS = {
    "logistic_sigmoid": (expit, lambda z, a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(float)),
}
# name -> (s_out(pre), s_out'(out), decision threshold, targets(labels))
OUTPUT_ACTIVATIONS = {
    "identity": (lambda pre: pre, lambda out: 1.0, 0.0, lambda y: y.astype(float)),
    "logistic_sigmoid": (expit, lambda out: out * (1.0 - out), 0.5, lambda y: (y + 1.0) / 2.0),
}


@dataclass(frozen=True)
class OneHiddenLayerNet(DecisionFunction):
    hidden_weights: np.ndarray  # (D, d)
    hidden_biases: np.ndarray  # (D,)
    output_weights: np.ndarray  # (D,)
    output_bias: float
    hidden_activation: str = "logistic_sigmoid"
    output_activation: str = "identity"
    info: TrainInfo | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        for name in ("hidden_weights", "hidden_biases", "output_weights"):
            freeze(self, name)

    @property
    def dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def threshold(self) -> float:
        _, _, threshold, _ = OUTPUT_ACTIVATIONS[self.output_activation]
        return threshold

    def _layers(self, X):
        """(hidden pre-activations, hidden activations, output) of an (n, d) batch."""
        act, _ = HIDDEN_ACTIVATIONS[self.hidden_activation]
        out_act, _, _, _ = OUTPUT_ACTIVATIONS[self.output_activation]
        z = X @ self.hidden_weights.T + self.hidden_biases
        hidden = act(z)
        return z, hidden, out_act(hidden @ self.output_weights + self.output_bias)

    def forward(self, X) -> np.ndarray:
        return self._layers(as_matrix(X, self.dim))[2]

    def decision_function(self, X):
        return self.forward(X) - self.threshold


@dataclass(frozen=True)
class NetTrainConfig:
    hidden_units: int = 4
    learning_rate: float = 0.1
    max_iters: int = 2000
    init_scale: float = 0.5
    seed: int = 0
    hidden_activation: str = "logistic_sigmoid"
    output_activation: str = "identity"

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.init_scale < 0:
            raise ValueError("init_scale must be nonnegative")


def _objective_and_gradient(net: OneHiddenLayerNet, X, targets):
    """Mean squared loss and its exact gradient (dW, db, dv, dc) from one forward pass."""
    X = as_matrix(X, net.dim)
    _, act_deriv = HIDDEN_ACTIVATIONS[net.hidden_activation]
    _, out_deriv, _, _ = OUTPUT_ACTIVATIONS[net.output_activation]
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan is the divergence signal
        z, hidden, out = net._layers(X)
        obj = float(np.mean((out - targets) ** 2))
        dpre = 2.0 * (out - targets) * out_deriv(out) / X.shape[0]
        dv = hidden.T @ dpre
        dc = float(dpre.sum())
        dhidden = np.outer(dpre, net.output_weights)
        dz = dhidden * act_deriv(z, hidden)
        dW = dz.T @ X
        db = dz.sum(axis=0)
    return obj, (dW, db, dv, dc)


def net_objective(net: OneHiddenLayerNet, X, targets) -> float:
    return _objective_and_gradient(net, X, targets)[0]


def net_gradient(net: OneHiddenLayerNet, X, targets):
    """Exact mean-squared-loss gradient (dW, db, dv, dc), shaped like the net's fields."""
    return _objective_and_gradient(net, X, targets)[1]


def train_net(ds: LabeledDataset, config: NetTrainConfig) -> OneHiddenLayerNet:
    """Gradient descent from a seeded uniform init; best iterate wins."""
    rng = np.random.default_rng(config.seed)
    d, D = ds.dim, config.hidden_units
    span = config.init_scale
    W = rng.uniform(-span, span, size=(D, d))
    b = rng.uniform(-span, span, size=D)
    v = rng.uniform(-span, span, size=D)
    c = float(rng.uniform(-span, span))
    X = ds.features
    activations = (config.hidden_activation, config.output_activation)
    net = OneHiddenLayerNet(W, b, v, c, *activations)  # validates the names
    _, _, _, to_targets = OUTPUT_ACTIVATIONS[net.output_activation]
    targets = to_targets(ds.labels)
    obj, grads = _objective_and_gradient(net, X, targets)
    best, best_obj = net, obj
    for it in range(config.max_iters):
        params = (net.hidden_weights, net.hidden_biases, net.output_weights, net.output_bias)
        net = OneHiddenLayerNet(
            *(p - config.learning_rate * g for p, g in zip(params, grads)), *activations
        )
        obj, grads = _objective_and_gradient(net, X, targets)
        if not np.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at iteration {it + 1}")
        if obj < best_obj:
            best, best_obj = net, obj
    info = TrainInfo(iterations=config.max_iters, termination="max_iters", objective=best_obj)
    return replace(best, info=info)
