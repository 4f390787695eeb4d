"""Adam with bias correction over named parameter collections."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .tensor import DimensionError, Tensor


@dataclass
class AdamState:
    """Per-parameter moment buffers plus the shared step counter.

    `lr` holds the current schedule value and is updated by the caller
    before each step.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Missing grads are skipped.

    Every product and quotient runs in the order of the textbook expression
    `p -= lr * (m / corr1) / (sqrt(v / corr2) + eps)`, through two scratch
    buffers shared by all parameters, so the update is bit for bit that
    expression without its temporaries.

    Raises NumericalError, naming the parameter, if an update overflows."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    size = max((p.data.size for p in params.values()), default=0)
    scratch = np.empty(size), np.empty(size)
    # an update that overflows would leave inf in a moment and freeze the
    # parameter at every later step
    with np.errstate(over="raise"):
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"adam_step: grad shape {g.shape} does not match param '{name}' "
                    f"shape {p.data.shape}")
            if name not in state.m:
                state.m[name] = np.zeros_like(p.data)
                state.v[name] = np.zeros_like(p.data)
            m = state.m[name]
            v = state.v[name]
            step, denom = (buf[:g.size].reshape(g.shape) for buf in scratch)
            try:
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=step)
                v *= b2
                np.multiply(g, g, out=step)
                v += np.multiply(step, 1.0 - b2, out=step)
                np.divide(m, corr1, out=step)
                step *= state.lr
                np.divide(v, corr2, out=denom)
                np.sqrt(denom, out=denom)
                denom += state.eps
                step /= denom
                p.data -= step
            except FloatingPointError:
                raise NumericalError(
                    f"non-finite Adam update of '{name}' at step {t}: it overflows") from None
