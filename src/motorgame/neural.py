"""Dense-network kernel: forward pass, exact backprop, Adam, softmax head.

Everything is float64 numpy and deliberately small: affine layers with
tanh hidden activations and an identity output, trained by hand-written
reverse-mode gradients.  No autodiff framework is involved, which keeps
the gradient path independently checkable against finite differences.
Each network is one flat float64 vector with per-layer views, and so are
its gradients and Adam moments: the optimizer and the norm clip are
whole-vector operations.  The kernel works in place where that keeps the
arithmetic: forward adds the bias and applies tanh in the product's own
array, and backward writes into a caller-owned gradient buffer, so a
training loop allocates one per network and reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, TrainingDivergedError


class MlpParams:
    """One network's parameters, gradients or Adam moment, zero at first:
    one float64 vector ``flat`` (W0, b0, W1, b1, ...), with ``weights[l]``
    (sizes[l], sizes[l+1]) and ``biases[l]`` (sizes[l+1],) as C-contiguous
    views into it that are filled in place."""

    def __init__(self, sizes: tuple[int, ...] | list[int]):
        self.sizes = tuple(int(s) for s in sizes)
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ContractViolationError(f"invalid layer sizes {self.sizes}")
        shapes = [shape for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:])
                  for shape in ((fan_in, fan_out), (fan_out,))]
        self.flat = np.zeros(sum(math.prod(shape) for shape in shapes))
        views, start = [], 0
        for shape in shapes:
            views.append(self.flat[start:start + math.prod(shape)].reshape(shape))
            start += views[-1].size
        self.weights, self.biases = views[0::2], views[1::2]

    def tensors(self) -> list[np.ndarray]:
        """All per-layer views in flat order (W0, b0, W1, b1, ...)."""
        return [t for pair in zip(self.weights, self.biases) for t in pair]


def init(sizes: tuple[int, ...] | list[int], seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases; deterministic in ``seed``."""
    params = MlpParams(sizes)
    rng = np.random.default_rng(seed)
    for w in params.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a (batch, features) matrix; returns the
    (batch, outputs) output and the cache for backward, which holds each
    layer's input activations."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.sizes[0]:
        raise ContractViolationError(
            f"input shape {a.shape} incompatible with sizes {params.sizes}")
    cache = [a]
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w  # a fresh array: the input and the cache are not written
        a += b
        if layer != last:
            np.tanh(a, out=a)
            cache.append(a)
    return a, cache


def backward(params: MlpParams, cache: list[np.ndarray],
             output_grad: np.ndarray, grads: MlpParams) -> MlpParams:
    """Exact gradients of the scalar loss whose output gradient is given.

    ``output_grad`` has the forward output's (batch, outputs) shape; the
    rows are summed into ``grads``, which has the params' sizes.  Every
    entry of ``grads`` is overwritten, so one buffer serves every call.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    n_layers = len(params.weights)
    if grads.sizes != params.sizes or len(cache) != n_layers or [
            a.shape for a in cache + [g]] != [
            (cache[0].shape[0], size) for size in params.sizes]:
        raise ContractViolationError("cache/grads do not match params/output_grad")

    for layer in range(n_layers - 1, -1, -1):
        a_in = cache[layer]
        np.matmul(a_in.T, g, out=grads.weights[layer])
        g.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            # a_in is the tanh output of the previous layer; its slope is
            # 1 - a_in**2
            slope = a_in * a_in
            np.subtract(1.0, slope, out=slope)
            g = g @ params.weights[layer].T
            g *= slope
    return grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: MlpParams
    v: MlpParams
    step: int = 0

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        return cls(m=MlpParams(params.sizes), v=MlpParams(params.sizes))


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState,
              learning_rate: float) -> tuple[MlpParams, AdamState]:
    """Bias-corrected adaptive-moment update at ``learning_rate``, in place."""
    if not params.sizes == grads.sizes == state.m.sizes == state.v.sizes:
        raise ContractViolationError("grads/state do not match params")
    g, m, v = grads.flat, state.m.flat, state.v.flat
    if not np.all(np.isfinite(g)):
        raise TrainingDivergedError("non-finite gradient")
    state.step += 1
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    params.flat -= learning_rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    return params, state


def clip_grad_norm(grads: MlpParams, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the pre-clip norm.  The squares are taken once over ``flat``
    and summed per tensor in tensor order: each slice is the same pairwise
    sum as ``np.sum(g * g)`` on its tensor."""
    squares = grads.flat * grads.flat
    total, start = 0.0, 0
    for g in grads.tensors():
        total += float(squares[start:start + g.size].sum())
        start += g.size
    total = float(np.sqrt(total))
    if total > max_norm and total > 0.0:
        grads.flat *= max_norm / total
    return total


class Categorical:
    """Discrete distributions over a (batch, actions) matrix of logits.

    Probabilities come from a max-shifted softmax, so arbitrarily large
    finite logits cannot overflow.
    """

    def __init__(self, logits: np.ndarray):
        z = np.asarray(logits, dtype=np.float64)
        if z.ndim != 2:
            raise ContractViolationError(f"logits shape {z.shape} is not (batch, actions)")
        shifted = z - z.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        self.logits_log_probs = shifted - lse
        self.probs = np.exp(self.logits_log_probs)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities per row, the last entry at infinity
        because rounding can leave it below 1, so below a draw."""
        cdf = np.cumsum(self.probs, axis=-1)
        cdf[:, -1] = np.inf
        return cdf

    def sample(self, rng: np.random.Generator, rows: np.ndarray | None = None) -> np.ndarray:
        """One action for each given row (default: all): the number of its
        ``cdf`` entries below its draw from one ``rng.random(len(rows))``
        call.  The CDF is built once, so a sample gathers rows."""
        cdf = self.cdf if rows is None else self.cdf.take(rows, axis=0)
        u = rng.random(len(cdf))
        # the entries below u are a prefix of the row, so the first entry
        # not below u is their count
        return (cdf < u[:, None]).argmin(axis=-1)

    def entropy(self) -> np.ndarray:
        return -(self.probs * self.logits_log_probs).sum(axis=-1)

