"""Dense-network kernel: forward pass, exact backprop, Adam, softmax head.

Everything is float64 numpy and deliberately small: affine layers with
tanh hidden activations and an identity output, trained by hand-written
reverse-mode gradients.  No autodiff framework is involved, which keeps
the gradient path independently checkable against finite differences.
Each network is one flat float64 vector with per-layer views, and so are
its gradients and Adam moments: the optimizer and the norm clip are
whole-vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, TrainingDivergedError


def _checked_sizes(sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ContractViolationError(f"invalid layer sizes {sizes}")
    return sizes


class MlpParams:
    """One network's parameters, gradients or Adam moment: the arrays are
    copied into one float64 vector ``flat`` (W0, b0, W1, b1, ...), and
    ``weights[l]`` (sizes[l], sizes[l+1]) and ``biases[l]`` (sizes[l+1],)
    are C-contiguous views into it."""

    def __init__(self, sizes: tuple[int, ...], weights: list[np.ndarray],
                 biases: list[np.ndarray]):
        self.sizes = _checked_sizes(sizes)
        shapes = [shape for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:])
                  for shape in ((fan_in, fan_out), (fan_out,))]
        arrays = [t for pair in zip(weights, biases) for t in pair]
        if len(weights) != len(biases) or [np.shape(t) for t in arrays] != shapes:
            raise ContractViolationError(
                f"weight/bias shapes do not match sizes {self.sizes}")
        self.flat = np.empty(sum(math.prod(shape) for shape in shapes))
        views, start = [], 0
        for shape, t in zip(shapes, arrays):
            views.append(self.flat[start:start + math.prod(shape)].reshape(shape))
            views[-1][...] = t
            start += views[-1].size
        self.weights, self.biases = views[0::2], views[1::2]

    def tensors(self) -> list[np.ndarray]:
        """All per-layer views in flat order (W0, b0, W1, b1, ...)."""
        return [t for pair in zip(self.weights, self.biases) for t in pair]


def init(sizes: tuple[int, ...] | list[int], seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases; deterministic in ``seed``."""
    sizes = _checked_sizes(sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, weights, biases)


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network; returns (output, cache for backward).

    ``x`` may be a single vector or a (batch, features) matrix; the
    output matches.  The cache holds each layer's input activations.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.ndim != 2 or a.shape[1] != params.sizes[0]:
        raise ContractViolationError(
            f"input shape {x.shape} incompatible with sizes {params.sizes}")
    cache = [a]
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if layer == last else np.tanh(z)
        if layer != last:
            cache.append(a)
    return (a[0] if single else a), cache


def backward(params: MlpParams, cache: list[np.ndarray],
             output_grad: np.ndarray) -> MlpParams:
    """Exact gradients of the scalar loss whose output gradient is given.

    ``output_grad`` has the forward output's shape; batched rows are
    summed into one gradient of the params' layout.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    n_layers = len(params.weights)
    if len(cache) != n_layers or [a.shape for a in cache + [g]] != [
            (cache[0].shape[0], size) for size in params.sizes]:
        raise ContractViolationError("cache does not match params/output_grad")

    grad_w: list[np.ndarray | None] = [None] * n_layers
    grad_b: list[np.ndarray | None] = [None] * n_layers
    for layer in range(n_layers - 1, -1, -1):
        a_in = cache[layer]
        grad_w[layer] = a_in.T @ g
        grad_b[layer] = g.sum(axis=0)
        if layer > 0:
            # a_in is the tanh output of the previous layer
            g = (g @ params.weights[layer].T) * (1.0 - a_in * a_in)
    return MlpParams(params.sizes, grad_w, grad_b)


@dataclass
class AdamState:
    learning_rate: float
    m: MlpParams
    v: MlpParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: MlpParams, learning_rate: float) -> "AdamState":
        zeros = ([np.zeros_like(w) for w in params.weights],
                 [np.zeros_like(b) for b in params.biases])
        return cls(learning_rate=learning_rate, m=MlpParams(params.sizes, *zeros),
                   v=MlpParams(params.sizes, *zeros))


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState,
              ) -> tuple[MlpParams, AdamState]:
    """Bias-corrected adaptive-moment update, in place."""
    if not params.sizes == grads.sizes == state.m.sizes == state.v.sizes:
        raise ContractViolationError("grads/state do not match params")
    g, m, v = grads.flat, state.m.flat, state.v.flat
    if not np.all(np.isfinite(g)):
        raise TrainingDivergedError("non-finite gradient")
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    params.flat -= state.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params, state


def clip_grad_norm(grads: MlpParams, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the pre-clip norm, summed per tensor in tensor order."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.tensors())))
    if total > max_norm and total > 0.0:
        grads.flat *= max_norm / total
    return total


class Categorical:
    """Discrete distribution over action logits (single vector or batch).

    Probabilities come from a max-shifted softmax, so arbitrarily large
    finite logits cannot overflow.
    """

    def __init__(self, logits: np.ndarray):
        logits = np.asarray(logits, dtype=np.float64)
        self._single = logits.ndim == 1
        z = logits[None, :] if self._single else logits
        shifted = z - z.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        self._log_probs = shifted - lse
        self._probs = np.exp(self._log_probs)

    @property
    def probs(self) -> np.ndarray:
        p = self._probs
        return p[0] if self._single else p

    @property
    def logits_log_probs(self) -> np.ndarray:
        lp = self._log_probs
        return lp[0] if self._single else lp

    def sample(self, rng: np.random.Generator):
        """Inverse-CDF sample; deterministic in the generator state."""
        cdf = np.cumsum(self._probs, axis=-1)
        u = rng.random(self._probs.shape[0])
        idx = (cdf < u[:, None]).sum(axis=-1)
        idx = np.minimum(idx, self._probs.shape[-1] - 1)
        return int(idx[0]) if self._single else idx

    def log_prob(self, actions):
        actions = np.atleast_1d(np.asarray(actions, dtype=np.intp))
        lp = self._log_probs[np.arange(self._log_probs.shape[0]), actions]
        return float(lp[0]) if self._single else lp

    def entropy(self):
        h = -(self._probs * self._log_probs).sum(axis=-1)
        return float(h[0]) if self._single else h

