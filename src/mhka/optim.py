"""Adam optimizer over named parameter dictionaries."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor import Tensor


class Adam:
    """In-place Adam with bias-corrected moments. Gradients are read straight
    off the parameters; a parameter without one counts as a zero gradient."""

    def __init__(self, params: dict[str, Tensor], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ParameterError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps}")
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        """One update. The step counter increments before bias correction,
        so the first call uses t = 1."""
        self.t += 1
        t = self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name} shape {p.data.shape}"
                )
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
