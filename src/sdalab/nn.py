"""Small dense MLP with hand-written backpropagation.

Everything operates on float64 numpy arrays shaped (batch, features). The
network is a fixed topology: affine layers with ReLU between them and either
a softmax head (multiclass) or an independent sigmoid per output
(multi-finding binary mode). The backward pass is exact for this topology,
which is what the finite-difference tests lean on.

All randomness comes from a caller-supplied ``numpy.random.Generator`` so a
run is reproducible from its seed alone.

A run takes tens of thousands of small steps on matrices 2-4 columns wide,
so some calls take a cheaper route to the bits of the plain form
(tests/test_nn.py checks each against it):
- The passes call numpy's C functions directly: ``_dot`` is
  ``np.dot.__wrapped__``, ``_where`` is ``np.where.__wrapped__`` and
  ``_c_einsum`` is the ``c_einsum`` that ``np.einsum`` calls (unless asked
  to optimize). The wrappers only dispatch in Python before calling them,
  at 0.3-4 us a call, so the bits are theirs. Where numpy keeps one of
  them under no such name, the public function is bound instead, with the
  same bits. ``argmax_rows`` calls ``ndarray.argmax``, which ``np.argmax``
  calls.
- 2-D products use ``_dot``, which gives the bits of ``@`` on the layouts
  the layers make: a C- or F-ordered left operand, or a row slice of one,
  times a C-ordered weight or its transpose. It need not elsewhere, for
  instance on a left operand with strided columns. Stacks of one-row passes
  keep ``@``: ``np.dot`` on 3-D operands forms another product.
- Row max and row sum below 8 columns are column folds, in the order
  numpy's axis-1 reduction takes there (``_fold_steps``).
- Bias sums are ``_c_einsum('ij->j')`` from 2 columns, at every row count.
  There it sums the rows in order from +0.0, as ``np.add.reduce(axis=0)``
  does, so the two give the same bits (signed zeros, NaN and inf included),
  and it costs less from 1 row up. At 1 column ``add.reduce`` sums pairwise
  and the two differ, so a 1-wide layer keeps it. A BLAS product with a
  ones vector gives neither's bits.
- ``loss_bce`` takes one log per cell: for a 0/1 target the other side's
  term is +-0, and adding +-0 changes no log it meets.

A training loop hands one ``StepBuffers`` to each ``forward`` and
``backward``. A pass runs on the buffers' plan for its row count
(``_RowArrays``): every array it writes and every view of them it reads
(the head's column views and fold column, the activations' transposes),
and one ``ForwardTrace``, all made once and bound as the pass walks them,
so it runs one flat loop over the plan's tuples. Both heads' losses run
one core, ``_terms``, on a ``_LossPlan``: the arrays it writes and each
term's views of them, for one layout of scored values and term bounds,
which picks the head's gather and scatter. A loop makes one per layout its
steps take (an adaptation one per defending count, pretraining one per
batch row count) and reuses it. So a step allocates no array that scales
with the batch, except the sigmoid head's temporaries (a sigmoid through
``where=``, and BCE's target picks by mask, ran slower).
What a buffered call returns holds until the next call with the same
buffers for the same row count, or on the same loss plan. An unbuffered
pass, and ``loss_ce`` or ``loss_bce``, runs on a new plan, so every array
it returns is new. The buffers keep nothing of the model: the weights, and
their transposes, are read per call, so models of one shape may share
them. ``out=`` keeps the bits: ``np.dot`` into a C-ordered array is the
same BLAS call, a ufunc computes a cell alike wherever it goes, and
``sgd_step``'s ``theta*wd + g`` is ``g + wd*theta`` (IEEE ops commute).

What is left is mostly numpy's per-call floor. On a 64-row [2, 10, 10, 3]
step (tools/pass_costs.py: 2-core Xeon, numpy 2.4.6, in-process minima) a
forward pass takes about 14-15 us: about 1 us per product and 0.8 us per
ReLU, 1.4 us per bias add, and 6 us for the softmax's seven numpy calls.
The pretraining loss gradient takes about 6 us, a backward pass 17 us and
``sgd_step`` 3.4 us, and a default pretraining (900 such steps) 37-41 ms.
A bias sum takes 0.8-1.7 us from 1 to 176 rows, against 0.9-5.4 us for
``add.reduce``. Bias adds run one numpy inner loop per row on matrices
this narrow, so they cost more than the products. The same numpy calls
made straight-line, with every operand a local, take about 1.5 us less per
forward or backward pass: that rest is the input checks, the plan lookup
and the loops over the plan's tuples.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# The C functions behind np.dot, np.where and np.einsum (module docstring).
# Where numpy keeps one under none of these private names, the public
# function stands in: it calls the same C function, so the bits agree.
_dot = getattr(np.dot, "__wrapped__", np.dot)
_where = getattr(np.where, "__wrapped__", np.where)
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:
    try:  # numpy 1.x
        from numpy.core.multiarray import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum

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


def _weight_views(flat, layout):
    """Each weight matrix as a view into ``flat`` at ``layout``."""
    return [flat[start:stop].reshape(shape) for start, stop, shape in layout[0]]


def _bias_views(flat, layout):
    """Each bias vector as a view into ``flat`` at ``layout``."""
    return [flat[start:stop] for start, stop in layout[1]]


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
        self.weights = _weight_views(self.params, self._layout)
        self.biases = _bias_views(self.params, self._layout)

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

    @functools.cached_property
    def transposed(self):
        """Each hidden activation's transpose, as backward reads them."""
        return [a.T for a in self.activations]


class GradientSet:
    """d(loss)/d(parameter), shape-congruent with an MlpModel.

    ``flat`` is laid out like ``MlpModel.params``; ``weights`` and
    ``biases`` are views into it, built when first read. Built from lists,
    the arrays are copied.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ShapeError("one weight and one bias gradient per layer required")
        self.flat = _pack([*weights, *biases])
        self._layout = _layout([np.shape(w) for w in weights], [np.size(b) for b in biases])

    @classmethod
    def _wrap(cls, flat, layout):
        """A GradientSet over ``flat`` itself, without a copy."""
        self = cls.__new__(cls)
        self.flat, self._layout = flat, layout
        return self

    @classmethod
    def zeros_like(cls, model):
        return cls._wrap(np.zeros_like(model.params), model._layout)

    @functools.cached_property
    def weights(self):
        return _weight_views(self.flat, self._layout)

    @functools.cached_property
    def biases(self):
        return _bias_views(self.flat, self._layout)


class StepBuffers:
    """One training loop's workspace for one model (module docstring): the
    _RowArrays plan of each batch row count, made at first use, and a
    gradient. It keeps nothing of the model's values, so models of the same
    dims and head may share it."""

    def __init__(self, model):
        self.dims, self.head, self.by_rows = model.layer_dims, model.head, {}
        flat, layout = np.empty(model.params.size), model._layout
        self.gradient = GradientSet._wrap(flat, layout)
        self.views = _weight_views(flat, layout), _bias_views(flat, layout)

    def rows(self, n):
        plan = self.by_rows.get(n)
        if plan is None:
            plan = self.by_rows[n] = _RowArrays(self.dims, self.head, n, self.views)
        return plan


class _RowArrays:
    """The plan of every pass over n rows, bound once: the arrays a forward
    and a backward pass write, and every view of them a pass reads, grouped
    as each pass walks them, so that a pass runs one flat loop. forward
    walks ``hidden``, each hidden layer's (index, z, ReLU out), then the
    head's z, ``logits``, and under softmax runs _softmax on
    ``softmax_args`` (the head's column views as fold steps into ``col``).
    backward walks ``back`` (the head's dz and its fold steps, then each
    layer's operands, the last layer first), on the gradient views of the
    StepBuffers that made the plan. What only backward reads is made at
    first use, so a forward pass alone, as unbuffered evaluation runs it,
    makes no more than it writes."""

    def __init__(self, dims, head, n, grad_views=None):
        self.softmax, self.grad_views = head == SOFTMAX, grad_views
        self.z = [np.empty((n, w)) for w in dims[1:]]  # per layer, head last
        self.a = [np.empty((n, w)) for w in dims[1:-1]]  # per hidden layer
        self.probs, self.col = np.empty((n, dims[-1])), np.empty(n)  # col: the head's row folds
        self.trace = ForwardTrace(None, self.z, self.a, self.probs, dims)
        self.hidden = tuple(zip(range(len(self.a)), self.z, self.a))
        self.logits = self.z[-1]
        self.softmax_args = _softmax_args(self.logits, self.probs, self.col) if self.softmax else None

    @functools.cached_property
    def back(self):
        """(head dz, head fold, layers): the fold is None under sigmoid, else
        (col, col as (n, 1), the head dz's fold steps); per layer, the last
        first, (index, weight gradient, bias gradient, whether einsum sums
        the bias, the dz of the layer below and its ReLU mask, both None at
        the first layer)."""
        dz = [np.empty(z.shape) for z in self.z]
        relu = [np.empty(a.shape, bool) for a in self.a]
        weight_grads, bias_grads = self.grad_views
        layers = tuple(
            (i, weight_grads[i], bias_grads[i], len(bias_grads[i]) > 1,
             dz[i - 1] if i else None, relu[i - 1] if i else None)
            for i in range(len(dz) - 1, -1, -1)
        )
        head = (self.col, self.col[:, None], _fold_steps(dz[-1], self.col)) if self.softmax else None
        return dz[-1], head, layers


class _LossPlan:
    """The arrays and views of the loss core (_terms) for one layout, made
    once and reused by every call on it: probabilities of n rows and width
    outputs, scored at row_cells, the flat index of each scored row's first
    cell (row * width), one value per row, as cross-entropy scores them; or,
    with row_cells None, at every cell, as BCE does. The layout binds the
    head's gather and scatter. bounds holds each term's (start, stop) among
    the scored values. The plan holds each value's gradient and whether the
    floor spares it, and each term's view of the gradients; under
    cross-entropy also the scored cells, their probabilities, each term's
    view of those, and the dprobs it scatters into."""

    def __init__(self, n, width, bounds, row_cells=None):
        self.row_cells, self.slices = row_cells, tuple(slice(start, stop) for start, stop in bounds)
        shape = (n, width) if row_cells is None else (len(row_cells),)
        self.grads, self.above = np.empty(shape), np.empty(shape, bool)
        self.grad_terms = tuple(self.grads[s] for s in self.slices)
        self.gather, self.scatter = _gather_cells, _scatter_cells
        if row_cells is not None:
            self.gather, self.scatter = _gather_rows, _scatter_rows
            self.cells, self.chosen = np.empty(shape, np.intp), np.empty(shape)
            self.dprobs = np.empty((n, width))
            self.chosen_terms = tuple(self.chosen[s] for s in self.slices)


def _fold_steps(x, acc):
    """A row fold of x into acc planned once: below 8 columns, the operand
    pairs of ufunc(left, right, out=acc) over x's columns left to right, the
    order numpy's axis-1 reduction takes there, so the fold gives the
    reduction's bits, unless a row holds only -0.0 (the reduction may give
    +0.0). From 8 columns numpy sums pairwise; those (and a single column)
    get None and go to the reduction."""
    if not 2 <= x.shape[1] < 8:
        return None
    cols = [x[:, j] for j in range(x.shape[1])]
    return ((cols[0], cols[1]), *((acc, col) for col in cols[2:]))


def softmax_rows(logits):
    # The row max and row sum as column folds: the bits of .max() and .sum()
    # (a max of -0.0 for +0.0 only moves exp(+-0) = 1; a sum here is > 0).
    probs = np.empty(np.shape(logits))
    return _softmax(*_softmax_args(logits, probs, np.empty(len(probs))))


def _softmax_args(logits, probs, acc):
    """_softmax's arguments for logits into probs, folding rows into acc."""
    return logits, probs, acc, acc[:, None], _fold_steps(logits, acc), _fold_steps(probs, acc)


def _softmax(logits, probs, acc, column, logit_steps, prob_steps):
    """softmax_rows of logits into probs: the row max, then the row sum,
    folds into acc by its _fold_steps (column is acc as (n, 1)), or by the
    reduction where the steps are None."""
    top = total = column
    if logit_steps is None:
        top = np.maximum.reduce(logits, axis=1, keepdims=True)
    else:
        for left, right in logit_steps:
            np.maximum(left, right, out=acc)
    e = np.subtract(logits, top, out=probs)
    np.exp(e, out=e)
    if prob_steps is None:
        total = np.add.reduce(e, axis=1, keepdims=True)
    else:
        for left, right in prob_steps:
            np.add(left, right, out=acc)
    e /= total
    return e


def sigmoid(x, out=None):
    # exp(-x) where x >= 0 and exp(x) elsewhere: it never overflows, and a
    # NaN keeps its sign, as in the one-side-at-a-time form.
    pos = x >= 0
    e = np.exp(_where(pos, -x, x))
    return np.divide(_where(pos, 1.0, e), 1.0 + e, out=out)


def _checked_inputs(model, inputs):
    # C-ordered, as np.dot's bits can depend on the layout (copies no C input)
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != model.layer_dims[0]:
        raise ShapeError(
            f"inputs shape {inputs.shape}, expected (batch, {model.input_dim})"
        )
    return inputs


def forward(model, inputs, buffers=None):
    """Run the network, keeping every intermediate needed by backward(): in
    the plan of buffers for len(inputs) rows, else in a new plan."""
    inputs, n = _checked_inputs(model, inputs), len(inputs)
    plan = _RowArrays(model.layer_dims, model.head, n) if buffers is None else buffers.rows(n)
    weights, biases = model.weights, model.biases
    a = inputs
    for i, z, relu in plan.hidden:
        _dot(a, weights[i], z)
        z += biases[i]
        a = np.maximum(z, 0.0, out=relu)
    z = plan.logits
    _dot(a, weights[-1], z)
    z += biases[-1]
    if plan.softmax_args is not None:
        _softmax(*plan.softmax_args)
    else:
        sigmoid(z, plan.probs)
    plan.trace.inputs = inputs
    return plan.trace


def _term_rows(terms, n_rows):
    """(rows, bounds) for ``terms``, a list of (start, stop) row ranges of a
    matrix with n_rows rows, in increasing order and disjoint: the rows they
    name, in order, and each term's (start, stop) among those rows. rows is
    None when the terms cover every row, as the default single term does."""
    if terms is None:
        return None, ((0, n_rows),)
    bounds, at, end = [], 0, 0
    for start, stop in terms:
        if not end <= start <= stop <= n_rows:
            raise ShapeError(f"terms {terms} are not ordered disjoint rows of {n_rows}")
        bounds.append((at, at + stop - start))
        at, end = at + stop - start, stop
    if at == n_rows:
        return None, tuple(bounds)
    return np.concatenate([np.arange(start, stop) for start, stop in terms]), tuple(bounds)


def _counts(bounds, mask, cells_per_row):
    """Each term's count: its cells, or the sum of its mask."""
    if mask is None:
        return [(stop - start) * cells_per_row for start, stop in bounds]
    return [int(round(np.add.reduce(mask[start:stop], axis=None))) for start, stop in bounds]


def _terms(probs, targets, counts, mask, plan):
    """The loss core of loss_ce and loss_bce, on checked arrays, on plan,
    whose layout binds the head's gather and scatter: cross-entropy scores
    each row at its class in targets, BCE each cell (targets: which are 1).
    A scored value's loss is -log of its probability of its target floored
    at PROB_EPS, and its gradient sign / floored (0 where the floor binds:
    the clamped loss is flat there), both times ``mask`` if given. A term's
    loss is the pairwise sum of its values over its count, and its
    gradients, plan.grad_terms, are divided by the count in place; count 0
    gives loss 0.0 and zero gradient. Returns (losses, dprobs of the plan)."""
    chosen, sign, cell_terms = plan.gather(probs, targets, plan)
    grads = plan.grads
    cells = np.log(_floored(chosen, sign, grads, plan.above), out=chosen)
    np.negative(cells, out=cells)
    if mask is not None:
        cells *= mask
        grads *= mask
    losses = []
    for term_cells, term_grads, count in zip(cell_terms, plan.grad_terms, counts):
        if count:
            losses.append(float(np.add.reduce(term_cells, axis=None)) / count)
            term_grads /= count
        else:
            losses.append(0.0)
            term_grads.fill(0.0)
    return losses, plan.scatter(grads, plan)


def _gather_rows(probs, targets, plan):
    """Cross-entropy's gather: (each row's probability of its class, taken
    at its flat cell into plan.chosen, the sign of d(-log)/d(p), each
    term's view of chosen)."""
    cells = np.add(plan.row_cells, targets, out=plan.cells)
    # "clip" reads without numpy's bounds-check buffer: targets are checked
    return probs.take(cells, out=plan.chosen, mode="clip"), -1.0, plan.chosen_terms


def _scatter_rows(grads, plan):
    """Cross-entropy's scatter: grads put at their cells of a zeroed dprobs."""
    plan.dprobs.fill(0.0)
    plan.dprobs.put(plan.cells, grads)
    return plan.dprobs


def _gather_cells(probs, positive, plan):
    """BCE's gather, as _gather_rows for every cell, into new arrays (np.where
    ran faster than writes into buffers by mask); the term views are made
    only as they are read, as _term_gradient reads none."""
    # -(t log p + (1 - t) log q) for t in {0, 1} and p in [0, 1]
    chosen = _where(positive, probs, 1.0 - probs)
    return chosen, _where(positive, -1.0, 1.0), map(chosen.__getitem__, plan.slices)


def _scatter_cells(grads, plan):
    """BCE's scatter: every cell is scored, so grads are dprobs."""
    return grads


def _floored(chosen, sign, grads, above):
    """chosen floored at PROB_EPS in place, and d(-log)/d(p) through the
    floor into grads: sign over the floored value, 0.0 where the floor
    binds or chosen is NaN (above: where it does not)."""
    np.greater(chosen, PROB_EPS, out=above)
    clamped = np.maximum(chosen, PROB_EPS, out=chosen)
    grads.fill(0.0)
    np.divide(sign, clamped, out=grads, where=above)
    return clamped


def loss_ce(probs, targets, terms=None, mask=None):
    """Mean cross-entropy of each term against integer class targets.

    ``terms`` lists each term's rows of ``probs`` as (start, stop), in
    order; the default is one term over every row. ``targets`` holds one
    class per row of the terms, concatenated in term order, and ``mask`` a
    0/1 weight per such row. A term's loss is the sum over its unmasked rows
    divided by their count; rows outside every term get no gradient.

    Returns (losses, dprobs, counts): each term's loss, d(sum of the
    losses)/d(probs), and each term's unmasked count. A term with count 0
    has loss 0.0 and no gradient, so the caller can flag it instead of
    dividing by zero.

    No training path calls this or loss_bce, since the step and pretraining
    run the core on targets checked once; both stay as the checked reference
    that the README, gate criterion 01 and TestLossCore hold the core to.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    rows, bounds = _term_rows(terms, len(probs))
    if rows is None:
        rows = np.arange(len(probs))
    if targets.shape != rows.shape:
        raise ShapeError(f"targets shape {targets.shape}, expected {rows.shape}")
    _checked_targets(targets, probs.shape[1])
    mask = _checked_mask(mask, rows.shape)
    counts = _counts(bounds, mask, 1)
    plan = _LossPlan(*probs.shape, bounds, rows * probs.shape[1])
    losses, dprobs = _terms(probs, targets, counts, mask, plan)
    return losses, dprobs, counts


def _checked_mask(mask, shape):
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise ShapeError(f"mask shape {mask.shape}, expected {shape}")
    return mask


def _checked_targets(targets, n_classes=None):
    """Targets as loss_ce (given n_classes) or loss_bce checks their values:
    classes, returned as they are, or 0/1 cells, returned as which are 1."""
    if n_classes is not None:
        # one reduction: a negative class, seen unsigned, is at least 2**63
        if targets.size and np.maximum.reduce(targets.view(np.uint64)) >= n_classes:
            raise ShapeError("class index out of range for probability matrix")
        return targets
    positive = targets == 1.0
    if not (positive | (targets == 0.0)).all():
        raise ConfigError("binary targets must be 0 or 1")
    return positive


def loss_bce(probs, targets, terms=None, mask=None):
    """Mean binary cross-entropy of each term over its (sample, output) cells.

    ``terms`` as in loss_ce. ``targets`` is a 0/1 matrix with one row per
    row of the terms, concatenated in term order, and ``mask`` a 0/1 weight
    per cell of it, for feedback where only some cells carry ground truth.
    A term's loss is the sum over its unmasked cells divided by their count.
    Returns (losses, dprobs, counts) as loss_ce does, counts in cells.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    rows, bounds = _term_rows(terms, len(probs))
    scored = probs if rows is None else probs[rows]
    if targets.shape != scored.shape:
        raise ShapeError(f"targets shape {targets.shape}, expected {scored.shape}")
    mask = _checked_mask(mask, scored.shape)
    positive = _checked_targets(targets)
    counts = _counts(bounds, mask, probs.shape[1])
    losses, grads = _terms(scored, positive, counts, mask, _LossPlan(*scored.shape, bounds))
    if rows is None:
        return losses, grads, counts
    dprobs = np.zeros(probs.shape)
    dprobs[rows] = grads
    return losses, dprobs, counts


def _term_gradient(probs, targets, plan):
    """dprobs of the loss of one unmasked term over every row of probs, from
    the loss's own cells without its values; targets from _checked_targets,
    plan a _LossPlan of those rows (of their cells under BCE). It is an
    array of the plan, written in place; it holds until the next such call."""
    chosen, sign, _ = plan.gather(probs, targets, plan)
    _floored(chosen, sign, plan.grads, plan.above)
    plan.grads /= plan.grads.size
    return plan.scatter(plan.grads, plan)


def backward(model, trace, dprobs, buffers=None):
    """Exact gradients of a scalar loss given d(loss)/d(probabilities).

    Pushes the upstream gradient through the head (softmax Jacobian or
    elementwise sigmoid derivative), then through each affine+ReLU layer:

        dW_l = a_{l-1}^T dz_l,  db_l = sum(dz_l),  dz_{l-1} = (dz_l W_l^T) * [z_{l-1} > 0]

    It writes into the plan of buffers for len(dprobs) rows and buffers'
    gradient, else into a new plan and gradient.
    """
    if trace.layer_dims != model.layer_dims:
        raise ShapeError(
            f"trace built for dims {trace.layer_dims}, model has {model.layer_dims}"
        )
    dprobs = np.asarray(dprobs, dtype=np.float64)
    probs = trace.probs
    if dprobs.shape != probs.shape:
        raise ShapeError(f"upstream gradient shape {dprobs.shape}, expected {probs.shape}")
    work = buffers or StepBuffers(model)
    dz_head, head, layers = work.rows(len(probs)).back
    dz = np.multiply(dprobs, probs, out=dz_head)
    if head is not None:
        # dz_j = p_j * (g_j - sum_k g_k p_k), rowwise. A loss_ce row of
        # g * p holds +0.0 off its target, so it is never a row of -0.0.
        acc, total, steps = head
        if steps is None:
            total = np.add.reduce(dz, axis=1, keepdims=True)
        else:
            for left, right in steps:
                np.add(left, right, out=acc)
        np.subtract(dprobs, total, out=dz)
        dz *= probs
    else:
        dz *= 1.0 - probs

    # Every entry is written below, so the vector needs no zero-fill. For
    # these 2-D float64 operands np.dot gives the bits of `@`, and writes
    # into a view at less cost than np.matmul(out=).
    weights, transposed, pre = model.weights, trace.transposed, trace.pre_activations
    for i, weight_grad, bias_grad, einsum, dz_below, relu in layers:
        _dot(transposed[i - 1] if i else trace.inputs.T, dz, weight_grad)
        if einsum:
            _c_einsum("ij->j", dz, out=bias_grad)
        else:
            np.add.reduce(dz, axis=0, out=bias_grad)
        if i:
            dz = _dot(dz, weights[i].T, dz_below)
            dz *= np.greater(pre[i - 1], 0.0, out=relu)
    return work.gradient


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
    sgd_step calls, and a vector of that size for the step's temporaries."""

    velocity: np.ndarray
    scratch: np.ndarray

    @classmethod
    def zeros_like(cls, model):
        return cls(np.zeros_like(model.params), np.empty_like(model.params))


def sgd_step(model, grads, cfg, state):
    """In-place SGD update: v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Every operation is elementwise, so updating the whole parameter vector
    at once gives the same bits as updating each array on its own.
    """
    # a finite sum of squares has no NaN or inf term; an infinite one may
    # come from finite entries whose squares overflow, which step as any do
    if not math.isfinite(_dot(grads.flat, grads.flat)):
        for kind, arrays in (("weight", grads.weights), ("bias", grads.biases)):
            for i, g in enumerate(arrays):
                if not np.isfinite(g).all():
                    raise NumericError(f"non-finite {kind} gradient in layer {i}")
    theta, v, tmp = model.params, state.velocity, state.scratch
    v *= cfg.momentum
    v += np.add(np.multiply(theta, cfg.weight_decay, out=tmp), grads.flat, out=tmp)
    theta -= np.multiply(v, cfg.learning_rate, out=tmp)
    return model, state


def argmax_rows(matrix, out=None):
    """Rowwise argmax; ties resolve to the lowest index (np.argmax contract)."""
    return matrix.argmax(1, out)


def predict(model, inputs, thresholds=None, buffers=None):
    """Class index per sample (softmax) or 0/1 matrix vs thresholds (sigmoid),
    from a forward pass on buffers if given."""
    probs = forward(model, inputs, buffers).probs
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


def penultimate_features(model, inputs):
    """Activations of the last hidden layer, one row per input.

    Runs the hidden layers only, with the same arithmetic as forward(), so
    the rows equal ``forward(model, inputs).activations[-1]`` bit for bit.
    """
    return _hidden_layers(model, _checked_inputs(model, inputs), _dot)


def one_row_features(model, inputs):
    """penultimate_features of each input on its own, as a stack of one-row
    passes: row i has the bits of ``penultimate_features(model, inputs[i:i + 1])[0]``,
    which one pass over several rows does not promise."""
    return _hidden_layers(model, _checked_inputs(model, inputs)[:, None, :], np.matmul)[:, 0]


def _hidden_layers(model, a, product):
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = product(a, w)
        a += b
        np.maximum(a, 0.0, out=a)
    return a
