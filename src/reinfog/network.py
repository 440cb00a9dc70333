"""Minimal dense network: forward pass, backprop for the DQN loss, optimizers,
and JSON persistence for trained policies."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

POLICY_FORMAT_VERSION = "1"
ACTIVATIONS = ("relu", "tanh")
OPTIMIZERS = ("sgd", "adam")


class PolicyFormatError(ValueError):
    """Raised for unreadable, corrupt, or version-mismatched policy files."""


@dataclass
class NetworkParams:
    """Fully connected net; weights[l] has shape (layer_sizes[l], layer_sizes[l+1]).

    Hidden layers apply the configured activation, the output layer is linear.
    All parameters live in one contiguous float64 buffer `flat`, laid out
    [W0, b0, W1, b1, ...]; `weights` and `biases` are tuples of views into
    it, so writing through a view writes `flat` and copying is one memcpy.
    The constructor copies the given arrays into a fresh buffer.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "relu"
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.layer_sizes) - 1 or \
                len(self.biases) != len(self.weights):
            raise ValueError("parameter count does not match layer sizes")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[l], self.layer_sizes[l + 1])
            if w.shape != expect or b.shape != (expect[1],):
                raise ValueError(f"layer {l}: bad parameter shape {w.shape}")
        self.flat = _pack(self.weights, self.biases)
        self.weights, self.biases = _layer_views(self.layer_sizes, self.flat)

    @classmethod
    def _on(cls, layer_sizes: tuple[int, ...], flat: np.ndarray,
            activation: str) -> "NetworkParams":
        """Parameters whose buffer is `flat` itself, not a copy of it."""
        params = cls.__new__(cls)
        params.layer_sizes, params.activation, params.flat = layer_sizes, activation, flat
        params.weights, params.biases = _layer_views(layer_sizes, flat)
        return params

    @classmethod
    def from_flat(cls, layer_sizes: Sequence[int], flat: np.ndarray,
                  activation: str = "relu") -> "NetworkParams":
        """Parameters copied out of a buffer in the flat layout; ValueError
        unless the sizes are positive and the buffer fits them exactly."""
        sizes = tuple(layer_sizes)
        need = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        if min(sizes, default=0) < 1 or flat.shape != (need,):
            raise ValueError(f"{flat.size} parameters do not fit layer sizes {sizes}")
        return cls(sizes, *_layer_views(sizes, flat), activation)

    def __reduce__(self):  # unpickling rebinds the views into the new `flat`
        return (NetworkParams._on, (self.layer_sizes, self.flat, self.activation))

    def __eq__(self, other: object) -> bool:  # by layer sizes, activation and bytes
        if not isinstance(other, NetworkParams):
            return NotImplemented
        return (self.layer_sizes, self.activation, self.flat.dtype, self.flat.tobytes()) \
            == (other.layer_sizes, other.activation, other.flat.dtype, other.flat.tobytes())

    @classmethod
    def glorot(cls, layer_sizes: Sequence[int], activation: str = "relu",
               rng: np.random.Generator | int | None = None) -> "NetworkParams":
        """Glorot-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases."""
        gen = np.random.default_rng(rng)
        sizes = tuple(int(s) for s in layer_sizes)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(gen.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(sizes, weights, biases, activation)

    def copy(self) -> "NetworkParams":
        return NetworkParams._on(self.layer_sizes, self.flat.copy(), self.activation)


def _layer_views(sizes: tuple[int, ...], flat: np.ndarray):
    """(weight views, bias views) of `flat` in the [W0, b0, W1, b1, ...] layout."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        mid = start + fan_in * fan_out
        weights.append(flat[start:mid].reshape(fan_in, fan_out))
        biases.append(flat[mid:mid + fan_out])
        start = mid + fan_out
    return tuple(weights), tuple(biases)


def _pack(weights, biases) -> np.ndarray:
    """Per-layer arrays copied into one new buffer in the flat layout."""
    return np.concatenate([np.ravel(a) for pair in zip(weights, biases) for a in pair],
                          dtype=float)


def _activate(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out) if kind == "relu" else np.tanh(z, out=out)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    t = np.tanh(z)
    return 1.0 - t * t


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Network output for one vector (in,) or a batch (B, in)."""
    a = np.asarray(x, dtype=float)
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a.dot(w)  # a fresh array, so the caller's `x` is never written; same bits as @
        a += b
        if l != last:
            _activate(a, params.activation, out=a)
    return a


def _forward_trace(params: NetworkParams, x: np.ndarray):
    """Forward keeping inputs and pre-activations of every layer."""
    acts = [np.atleast_2d(np.asarray(x, dtype=float))]
    pres = []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        pres.append(z)
        acts.append(z if l == last else _activate(z, params.activation))
    return acts, pres


def dqn_loss_grads(params: NetworkParams, states: np.ndarray, actions: np.ndarray,
                   targets: np.ndarray):
    """MSE between Q(s, a) of the taken actions and the targets.

    Returns:
        (loss, weight gradients, bias gradients); gradients match parameter
        shapes layer by layer.
    """
    acts, pres = _forward_trace(params, states)
    q_all = acts[-1]
    batch = q_all.shape[0]
    rows = np.arange(batch)
    err = q_all[rows, actions] - targets
    loss = float(np.mean(err * err))
    delta = np.zeros_like(q_all)
    delta[rows, actions] = 2.0 * err / batch
    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l].T) * _activate_grad(
                pres[l - 1], params.activation)
    return loss, grads_w, grads_b


class SgdOptimizer:
    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate

    def step(self, params: NetworkParams, grads_w, grads_b) -> None:
        params.flat -= self.learning_rate * _pack(grads_w, grads_b)


class AdamOptimizer:
    """Adam over the whole flat parameter buffer; every operation is
    elementwise, so one pass gives the same bits as one pass per tensor."""

    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, params: NetworkParams, grads_w, grads_b) -> None:
        g = _pack(grads_w, grads_b)
        if self._m is None:
            self._m = np.zeros_like(params.flat)
            self._v = np.zeros_like(params.flat)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self._m = b1 * self._m + (1 - b1) * g
        self._v = b2 * self._v + (1 - b2) * g * g
        m_hat = self._m / (1 - b1 ** self.t)
        v_hat = self._v / (1 - b2 ** self.t)
        params.flat -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(kind: str, learning_rate: float):
    if kind == "sgd":
        return SgdOptimizer(learning_rate)
    if kind == "adam":
        return AdamOptimizer(learning_rate)
    raise ValueError(f"unknown optimizer {kind!r}")


def dqn_update(params: NetworkParams, states: np.ndarray, actions: np.ndarray,
               targets: np.ndarray, optimizer) -> float:
    """One gradient step on the DQN regression loss; returns the loss."""
    loss, grads_w, grads_b = dqn_loss_grads(params, states, actions, targets)
    optimizer.step(params, grads_w, grads_b)
    return loss


# ---------------------------------------------------------------------------
# Persistence


def policy_to_doc(params: NetworkParams, metadata: dict | None = None) -> dict:
    return {
        "version": POLICY_FORMAT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "activation": params.activation,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "metadata": dict(metadata or {}),
    }


def policy_from_doc(doc: dict) -> tuple[NetworkParams, dict]:
    if not isinstance(doc, dict):
        raise PolicyFormatError("policy document is not an object")
    version = doc.get("version")
    if version != POLICY_FORMAT_VERSION:
        raise PolicyFormatError(
            f"unsupported policy version {version!r}, expected {POLICY_FORMAT_VERSION!r}")
    try:
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        params = NetworkParams(sizes, weights, biases, str(doc["activation"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PolicyFormatError(f"malformed policy document: {exc}") from exc
    if not all(np.isfinite(a).all() for a in params.weights + params.biases):
        raise PolicyFormatError("policy weights and biases must be finite")
    return params, dict(doc.get("metadata", {}))


def save_policy(params: NetworkParams, path: str, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(policy_to_doc(params, metadata), fh)


def load_policy(path: str) -> tuple[NetworkParams, dict]:
    """Reads a policy file; float values round-trip bit-identically."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PolicyFormatError(f"corrupt policy file {path}: {exc}") from exc
    return policy_from_doc(doc)
