"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .tensor import ParameterError, Tape, Tensor, backward


@dataclass
class GradCheckReport:
    tol: float
    max_rel_error: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return all(np.isfinite(e) and e <= self.tol
                   for e in self.max_rel_error.values())


def check_settings(h: float, tol: float, seed: int) -> None:
    """Reject a step, tolerance or seed that no check can run with."""
    if not (math.isfinite(h) and h > 0):
        raise ParameterError(f"h must be finite and > 0, got {h}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be finite and >= 0, got {tol}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def grad_check(f, params: dict[str, Tensor], h: float = 1e-6, tol: float = 1e-5,
               max_coords_per_param: int = 16, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of a scalar function against central differences.

    `f()` must be deterministic and evaluate the loss from the current values
    of `params`. A seeded subset of up to `max_coords_per_param` coordinates
    per parameter is perturbed.

    Raises ParameterError for settings `check_settings` rejects and
    NumericalError if any evaluation is non-finite.
    """
    check_settings(h, tol, seed)
    rng = np.random.default_rng(seed)

    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.data):
        raise NumericalError("grad_check: non-finite loss evaluation")
    backward(loss, tape)
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for name, p in params.items()}

    report = GradCheckReport(tol=tol)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        size = flat.size
        if size <= max_coords_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
            coords.sort()
        worst = 0.0
        for c in coords:
            orig = flat[c]
            # a step that overflows is reported below as NumericalError
            with np.errstate(over="ignore", invalid="ignore"):
                flat[c] = orig + h
                up = f().item()
                flat[c] = orig - h
                down = f().item()
            flat[c] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"grad_check: non-finite evaluation at {name}[{c}]")
            numeric = (up - down) / (2.0 * h)
            a = analytic[name].reshape(-1)[c]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        report.max_rel_error[name] = worst
    return report
