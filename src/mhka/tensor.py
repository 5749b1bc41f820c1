"""Dense tensors with reverse-mode automatic differentiation.

The graph is implicit: every tensor produced by an operation keeps its parent
tensors and a function that maps the upstream gradient to per-parent
gradients. Creation order gives a valid topological order (an input always
exists before its consumer), so `backward` replays nodes by descending
creation id.

All data lives in numpy arrays. float64 is the default; models may run in
float32, gradient checks must not. An op's output has its inputs' dtype, and
so do the gradients its backward returns; constants inside ops are Python
floats, which numpy treats as weakly typed, and operator constants
(`x + 1.0`) take the other operand's dtype. A float32 graph therefore never
widens to float64.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, LabelError, ParameterError

_ids = itertools.count()

YES, NO = "yes", "no"


class Tensor:
    """A dense n-dimensional array that can participate in autodiff.

    `grad` is populated by `backward` and has the same shape as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable] = None
        self._id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode accumulation from this scalar into every reachable
        tensor with requires_grad."""
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar root, got shape {self.data.shape}"
            )
        nodes = _reachable(self)
        self.grad = np.ones_like(self.data)
        for node in sorted(nodes, key=lambda t: t._id, reverse=True):
            if node._backward_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                g = np.asarray(g, dtype=parent.data.dtype)
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g.reshape(parent.data.shape)

    # Operator sugar; constants are wrapped as non-grad tensors.
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return add(self, scale(_wrap(other, self), -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)


def _reachable(root: Tensor) -> list[Tensor]:
    seen = {id(root)}
    out = [root]
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                out.append(p)
                stack.append(p)
    return out


def _wrap(x, like: Tensor) -> Tensor:
    """A constant operand as a non-grad tensor in `like`'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * s,)

    return _make(a.data * s, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul needs (m,k) by (k,n), got {a.data.shape} by {b.data.shape}"
        )

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _make(a.data @ b.data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gaussian error linear unit. Smooth, so finite-difference
    gradient checks are clean; backward differentiates this same form."""
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * x * (1.0 + _GELU_A * x2))

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return _make(0.5 * x * (1.0 + t), (a,), backward)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(
            f"softmax axis {axis} invalid for shape {a.data.shape}"
        )
    y = _softmax(a.data, axis)

    def backward(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _make(y, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"gamma/beta must have shape ({d},), got {gamma.data.shape} and {beta.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = gamma.data * xhat + beta.data

    def backward(g):
        gy = g * gamma.data
        dx = inv * (
            gy
            - gy.mean(axis=-1, keepdims=True)
            - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _make(data, (x, gamma, beta), backward)


def _log_sigmoid(z: float) -> float:
    # log(sigmoid(z)) computed without overflow
    return min(z, 0.0) - np.log1p(np.exp(-abs(z)))


def cross_entropy(logits: Tensor, gold) -> Tensor:
    """Negative log likelihood of `gold` under the logits.

    With n >= 2 logits, `gold` is a class index. With a single logit the
    label is "yes"/"no" and the logit goes through the logistic function.
    """
    if logits.data.ndim != 1:
        raise DimensionError(f"cross_entropy expects 1-D logits, got {logits.data.shape}")
    n = logits.data.shape[0]
    if n == 1:
        if gold not in (YES, NO):
            raise LabelError(f"binary gold must be 'yes' or 'no', got {gold!r}")
        z = float(logits.data[0])
        y = 1.0 if gold == YES else 0.0
        p = 1.0 / (1.0 + np.exp(-z))
        loss = -(_log_sigmoid(z) if y == 1.0 else _log_sigmoid(-z))

        def backward(g):
            return (np.array([p - y], dtype=logits.data.dtype) * g,)

        return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)

    if not isinstance(gold, (int, np.integer)) or not 0 <= int(gold) < n:
        raise LabelError(f"gold index {gold!r} out of range for {n} logits")
    gold = int(gold)
    z = logits.data - logits.data.max()
    logp = z - np.log(np.exp(z).sum())
    probs = np.exp(logp)

    def backward(g):
        d = probs.copy()
        d[gold] -= 1.0
        return (d * g,)

    return _make(np.asarray(-logp[gold], dtype=logits.data.dtype), (logits,), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix; gradient scatter-adds into rows."""
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids, g)
        return (dw,)

    return _make(weight.data[ids], (weight,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g):
        da = np.zeros_like(a.data)
        da[start:stop] = g
        return (da,)

    return _make(a.data[start:stop], (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        return (np.full_like(a.data, float(g)),)

    return _make(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), backward)


def mean(a: Tensor) -> Tensor:
    return scale(tsum(a), 1.0 / a.data.size)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = rng.random(a.data.shape, dtype=np.float32) >= rate
    mask = (keep / (1.0 - rate)).astype(a.data.dtype)

    def backward(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), backward)


def attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: Optional[np.ndarray] = None
) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention over full 2-D sequences.

    q is (m, d); k and v are (w, d); d must divide evenly into n_heads.
    `mask` is an additive (m, w) array (use -inf to forbid a key). Returns the
    concatenated head outputs (m, d) and the attention weights (n_heads, m, w)
    as a plain array for inspection.
    """
    m, d = q.data.shape
    w = k.data.shape[0]
    if k.data.shape[1] != d or v.data.shape != k.data.shape:
        raise DimensionError(
            f"attention shapes disagree: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}"
        )
    if d % n_heads:
        raise DimensionError(f"width {d} not divisible by {n_heads} heads")
    dz = d // n_heads
    qh = q.data.reshape(m, n_heads, dz).transpose(1, 0, 2)
    kh = k.data.reshape(w, n_heads, dz).transpose(1, 0, 2)
    vh = v.data.reshape(w, n_heads, dz).transpose(1, 0, 2)
    root = math.sqrt(dz)
    scores = qh @ kh.transpose(0, 2, 1) / root
    if mask is not None:
        scores = scores + mask.astype(scores.dtype, copy=False)
    weights = _softmax(scores, axis=-1)
    out = (weights @ vh).transpose(1, 0, 2).reshape(m, d)

    def backward(g):
        gh = g.reshape(m, n_heads, dz).transpose(1, 0, 2)
        dwts = gh @ vh.transpose(0, 2, 1)
        dvh = weights.transpose(0, 2, 1) @ gh
        ds = weights * (dwts - (dwts * weights).sum(axis=-1, keepdims=True))
        dqh = ds @ kh / root
        dkh = ds.transpose(0, 2, 1) @ qh / root
        return (
            dqh.transpose(1, 0, 2).reshape(m, d),
            dkh.transpose(1, 0, 2).reshape(w, d),
            dvh.transpose(1, 0, 2).reshape(w, d),
        )

    return _make(out, (q, k, v), backward), weights


def causal_mask(n: int, dtype=np.float64) -> np.ndarray:
    """Additive mask forbidding attention to later positions."""
    mask = np.zeros((n, n), dtype=dtype)
    mask[np.triu_indices(n, k=1)] = -np.inf
    return mask


def zero_grads(params: Iterable[Tensor]):
    for p in params:
        p.grad = None
