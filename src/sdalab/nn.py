"""Small dense MLP with hand-written backpropagation.

Everything operates on float64 numpy arrays shaped (batch, features). The
network is a fixed topology: affine layers with ReLU between them and either
a softmax head (multiclass) or an independent sigmoid per output
(multi-finding binary mode). The backward pass is exact for this topology,
which is what the finite-difference tests lean on.

All randomness comes from a caller-supplied ``numpy.random.Generator`` so a
run is reproducible from its seed alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# Floor applied to probabilities inside logs. Keeps losses finite; well below
# every tolerance used in tests.
PROB_EPS = 1e-12

SOFTMAX = "softmax"
SIGMOID = "sigmoid"

MODEL_FORMAT = "sdalab-model-v1"


def _layout(weight_shapes, bias_sizes):
    """Where each weight matrix, then each bias vector, sits in one flat
    vector: ([(start, stop, shape), ...], [(start, stop), ...])."""
    weights, start = [], 0
    for rows, cols in weight_shapes:
        weights.append((start, start + rows * cols, (rows, cols)))
        start += rows * cols
    biases = []
    for size in bias_sizes:
        biases.append((start, start + size))
        start += size
    return weights, biases


def _views(flat, layout):
    """(weights, biases) as views into ``flat`` at ``layout``."""
    weight_spans, bias_spans = layout
    return (
        [flat[start:stop].reshape(shape) for start, stop, shape in weight_spans],
        [flat[start:stop] for start, stop in bias_spans],
    )


def _pack(arrays):
    """One new float64 vector holding ``arrays`` end to end, in order."""
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


class MlpModel:
    """Fully connected network: layer_dims[0] inputs -> ... -> outputs.

    weights[i] has shape (layer_dims[i], layer_dims[i+1]); biases[i] has
    shape (layer_dims[i+1],). ``head`` selects the output nonlinearity.

    Every parameter lives in one float64 vector, ``params``: each weight
    matrix in layer order, then each bias vector. ``weights`` and ``biases``
    are views into it, so an in-place change to either shows in the other;
    rebinding ``params`` or a list entry would break that link. The
    constructor copies the given arrays and never aliases them.
    """

    def __init__(self, layer_dims, weights, biases, head=SOFTMAX):
        layer_dims = [int(d) for d in layer_dims]
        if len(layer_dims) < 3:
            raise ConfigError("model needs at least one hidden layer")
        if head not in (SOFTMAX, SIGMOID):
            raise ConfigError(f"unknown head kind: {head!r}")
        if head == SOFTMAX and layer_dims[-1] < 2:
            raise ConfigError("softmax head requires at least 2 outputs")
        if len(weights) != len(layer_dims) - 1 or len(biases) != len(layer_dims) - 1:
            raise ShapeError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(weights, biases)):
            expect = (layer_dims[i], layer_dims[i + 1])
            if w.shape != expect:
                raise ShapeError(f"layer {i} weight shape {w.shape}, expected {expect}")
            if b.shape != (layer_dims[i + 1],):
                raise ShapeError(f"layer {i} bias shape {b.shape}, expected ({layer_dims[i + 1]},)")
        self.layer_dims = layer_dims
        self.head = head
        self._layout = _layout(zip(layer_dims[:-1], layer_dims[1:]), layer_dims[1:])
        self.params = _pack([*weights, *biases])
        self.weights, self.biases = _views(self.params, self._layout)

    @classmethod
    def init(cls, layer_dims, head, rng):
        """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(layer_dims, weights, biases, head=head)

    @property
    def input_dim(self):
        return self.layer_dims[0]

    @property
    def output_dim(self):
        return self.layer_dims[-1]

    def copy(self):
        return MlpModel(self.layer_dims, self.weights, self.biases, head=self.head)

    def to_json_dict(self):
        return {
            "format": MODEL_FORMAT,
            "layer_dims": self.layer_dims,
            "head": self.head,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_json_dict(cls, doc):
        if doc.get("format") != MODEL_FORMAT:
            raise ConfigError(f"unsupported model format: {doc.get('format')!r}")
        weights = [np.array(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
        return cls(doc["layer_dims"], weights, biases, head=doc["head"])

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class ForwardTrace:
    """Per-layer intermediates of one forward pass, kept for backprop."""

    inputs: np.ndarray
    pre_activations: list  # z_l for every layer, in order
    activations: list  # post-nonlinearity outputs for hidden layers
    probs: np.ndarray
    layer_dims: list


class GradientSet:
    """d(loss)/d(parameter), shape-congruent with an MlpModel.

    ``flat`` is laid out like ``MlpModel.params``; ``weights`` and
    ``biases`` are views into it. Built from lists, the arrays are copied.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ShapeError("one weight and one bias gradient per layer required")
        self.flat = _pack([*weights, *biases])
        layout = _layout([np.shape(w) for w in weights], [np.size(b) for b in biases])
        self.weights, self.biases = _views(self.flat, layout)

    @classmethod
    def _wrap(cls, flat, layout):
        """A GradientSet over ``flat`` itself, without a copy."""
        self = cls.__new__(cls)
        self.flat = flat
        self.weights, self.biases = _views(flat, layout)
        return self

    @classmethod
    def zeros_like(cls, model):
        return cls._wrap(np.zeros_like(model.params), model._layout)


def softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(x):
    # exp(-x) where x >= 0 and exp(x) elsewhere: it never overflows, and a
    # NaN keeps its sign, as in the one-side-at-a-time form.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def _checked_inputs(model, inputs):
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise ShapeError(
            f"inputs shape {inputs.shape}, expected (batch, {model.input_dim})"
        )
    return inputs


def forward(model, inputs):
    """Run the network, keeping every intermediate needed by backward()."""
    inputs = _checked_inputs(model, inputs)
    pre_acts, acts = [], []
    a = inputs
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_acts.append(z)
        if i < n_layers - 1:
            a = np.maximum(z, 0.0)
            acts.append(a)
    logits = pre_acts[-1]
    if model.head == SOFTMAX:
        probs = softmax_rows(logits)
    else:
        probs = sigmoid(logits)
    return ForwardTrace(
        inputs=inputs,
        pre_activations=pre_acts,
        activations=acts,
        probs=probs,
        layer_dims=list(model.layer_dims),
    )


def loss_ce(probs, targets, mask=None):
    """Mean cross-entropy against integer class targets.

    Returns (loss, d_loss/d_probs, n_effective). ``mask`` holds 0/1 sample
    weights; masked-out rows contribute nothing and the mean runs over the
    unmasked count. An all-masked batch yields (0.0, zeros, 0) so the caller
    can flag it instead of dividing by zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    n = probs.shape[0]
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape}, expected ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= probs.shape[1]):
        raise ShapeError("class index out of range for probability matrix")
    if mask is None:
        n_eff = n
    else:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (n,):
            raise ShapeError(f"mask length {mask.shape}, expected ({n},)")
        n_eff = int(round(mask.sum()))
    dprobs = np.zeros_like(probs)
    if n_eff == 0:
        return 0.0, dprobs, 0
    rows = np.arange(n)
    p_t = probs[rows, targets]
    clamped = np.maximum(p_t, PROB_EPS)
    losses = -np.log(clamped)
    # Below the floor the clamped loss is flat, so the exact derivative is 0.
    grad_vals = np.where(p_t > PROB_EPS, -1.0 / clamped, 0.0)
    if mask is not None:  # without one every weight is 1.0, and x * 1.0 == x
        losses = losses * mask
        grad_vals = grad_vals * mask
    loss = float(losses.sum() / n_eff)
    dprobs[rows, targets] = grad_vals / n_eff
    return loss, dprobs, n_eff


def loss_bce(probs, targets):
    """Mean binary cross-entropy over every (sample, output) cell.

    ``targets`` is a 0/1 matrix shaped like ``probs``. Returns
    (loss, d_loss/d_probs).
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != probs.shape:
        raise ShapeError(f"targets shape {targets.shape}, expected {probs.shape}")
    if not ((targets == 0.0) | (targets == 1.0)).all():
        raise ConfigError("binary targets must be 0 or 1")
    n_cells = probs.size
    p = np.maximum(probs, PROB_EPS)
    q = np.maximum(1.0 - probs, PROB_EPS)
    loss = float(-(targets * np.log(p) + (1.0 - targets) * np.log(q)).sum() / n_cells)
    dprobs = np.where(
        targets == 1.0,
        np.where(probs > PROB_EPS, -1.0 / p, 0.0),
        np.where(1.0 - probs > PROB_EPS, 1.0 / q, 0.0),
    )
    return loss, dprobs / n_cells


def loss_bce_masked(probs, targets, mask):
    """BCE restricted to cells with mask 1; mean over the masked count.

    Used for per-finding feedback where only some (sample, output) cells
    carry ground truth. Returns (loss, d_loss/d_probs, n_cells).
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if targets.shape != probs.shape or mask.shape != probs.shape:
        raise ShapeError("targets and mask must match probs shape")
    n_eff = int(round(mask.sum()))
    if n_eff == 0:
        return 0.0, np.zeros_like(probs), 0
    p = np.maximum(probs, PROB_EPS)
    q = np.maximum(1.0 - probs, PROB_EPS)
    cell = -(targets * np.log(p) + (1.0 - targets) * np.log(q))
    loss = float((cell * mask).sum() / n_eff)
    dprobs = np.where(
        targets == 1.0,
        np.where(probs > PROB_EPS, -1.0 / p, 0.0),
        np.where(1.0 - probs > PROB_EPS, 1.0 / q, 0.0),
    )
    return loss, dprobs * mask / n_eff, n_eff


def backward(model, trace, dprobs):
    """Exact gradients of a scalar loss given d(loss)/d(probabilities).

    Pushes the upstream gradient through the head (softmax Jacobian or
    elementwise sigmoid derivative), then through each affine+ReLU layer:

        dW_l = a_{l-1}^T dz_l,  db_l = sum(dz_l),  dz_{l-1} = (dz_l W_l^T) * [z_{l-1} > 0]
    """
    if trace.layer_dims != model.layer_dims:
        raise ShapeError(
            f"trace built for dims {trace.layer_dims}, model has {model.layer_dims}"
        )
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if dprobs.shape != probs.shape:
        raise ShapeError(f"upstream gradient shape {dprobs.shape}, expected {probs.shape}")
    if model.head == SOFTMAX:
        # dz_j = p_j * (g_j - sum_k g_k p_k), rowwise
        inner = (dprobs * probs).sum(axis=1, keepdims=True)
        dz = probs * (dprobs - inner)
    else:
        dz = dprobs * probs * (1.0 - probs)

    # Every entry is written below, so the vector needs no zero-fill. For
    # these 2-D float64 operands np.dot gives the bits of `@`, and writes
    # into a view at less cost than np.matmul(out=).
    grads = GradientSet._wrap(np.empty(model.params.size), model._layout)
    for i in range(len(model.weights) - 1, -1, -1):
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        np.dot(a_prev.T, dz, out=grads.weights[i])
        np.add.reduce(dz, axis=0, out=grads.biases[i])
        if i > 0:
            da = dz @ model.weights[i].T
            dz = da * (trace.pre_activations[i - 1] > 0.0)
    return grads


@dataclass
class SgdConfig:
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")


@dataclass
class SgdState:
    """Momentum buffer laid out like ``MlpModel.params``, carried between
    sgd_step calls."""

    velocity: np.ndarray

    @classmethod
    def zeros_like(cls, model):
        return cls(np.zeros_like(model.params))


def sgd_step(model, grads, cfg, state):
    """In-place SGD update: v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Every operation is elementwise, so updating the whole parameter vector
    at once gives the same bits as updating each array on its own.
    """
    if not np.isfinite(grads.flat).all():
        for kind, arrays in (("weight", grads.weights), ("bias", grads.biases)):
            for i, g in enumerate(arrays):
                if not np.isfinite(g).all():
                    raise NumericError(f"non-finite {kind} gradient in layer {i}")
    theta, v = model.params, state.velocity
    v *= cfg.momentum
    v += grads.flat + cfg.weight_decay * theta
    theta -= cfg.learning_rate * v
    return model, state


def argmax_rows(matrix):
    """Rowwise argmax; ties resolve to the lowest index (np.argmax contract)."""
    return np.argmax(matrix, axis=1)


def predict(model, inputs, thresholds=None):
    """Class index per sample (softmax) or 0/1 matrix vs thresholds (sigmoid)."""
    probs = forward(model, inputs).probs
    if model.head == SOFTMAX:
        return argmax_rows(probs)
    if thresholds is None:
        raise ConfigError("sigmoid head needs one threshold per output")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (model.output_dim,):
        raise ShapeError(
            f"thresholds shape {thresholds.shape}, expected ({model.output_dim},)"
        )
    return (probs >= thresholds).astype(np.int64)


def confidence(model, inputs, thresholds=None):
    """Max softmax probability per sample, or |p - threshold| per output."""
    probs = forward(model, inputs).probs
    if model.head == SOFTMAX:
        return probs.max(axis=1)
    if thresholds is None:
        raise ConfigError("sigmoid head needs one threshold per output")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    return np.abs(probs - thresholds)


def penultimate_features(model, inputs):
    """Activations of the last hidden layer, one row per input.

    Runs the hidden layers only, with the same arithmetic as forward(), so
    the rows equal ``forward(model, inputs).activations[-1]`` bit for bit.
    """
    return _hidden_layers(model, _checked_inputs(model, inputs))


def one_row_features(model, inputs):
    """penultimate_features of each input on its own, as a stack of one-row
    passes: row i has the bits of ``penultimate_features(model, inputs[i:i + 1])[0]``,
    which one pass over several rows does not promise."""
    return _hidden_layers(model, _checked_inputs(model, inputs)[:, None, :])[:, 0]


def _hidden_layers(model, a):
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return a
