"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value in the forward/backward computation is a `Tensor` wrapping a
row-major numpy float64 array. Operations are plain functions; when a `Tape`
is active and an input requires a gradient, the op appends a backward closure
to the tape. `backward(loss, tape)` replays the tape in exact reverse
execution order and accumulates gradients into the `.grad` buffers of every
reachable tensor that requires one. It drops each node as it replays it, so
what that node saved for its backward is freed before the next node runs.

Conventions:
  - `add` takes operands of one shape; nothing broadcasts.
  - A node whose output is cut into row blocks hands them out as views
    (`row_views`), not as nodes of their own. Once the node is recorded, its
    output's gradient exists from the forward on and each view's `.grad` is
    that gradient's rows, so a consumer adds into the node's gradient
    directly. The node replays whenever either view received a gradient,
    and with zeros when neither did: its gradient is never missing.
  - A composite block may record itself as one node through `_make_out`,
    with a backward closure that returns one gradient per input.
  - Tapes are eager, single-use and thread-confined: the tape stack is one
    module global, so only the calling thread records and replays. A
    node may hand array work to another thread, as DREAM's node does with
    its second modality (the lane, `dream._side_by_side`); that thread only
    computes arrays and never records. A tape may be entered more than once
    before its one replay, which replays every node it recorded as if they
    were recorded in one `with` block. Tensors themselves are
    value-semantic and safe to share once no tape references them.
  - The OpenBLAS that numpy bundles runs on one thread (`_pin_blas_threads`).
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ParameterError(ValueError):
    """A scalar argument (dilation, bandwidth, temperature, ...) is invalid."""


class UsageError(RuntimeError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


def _pin_blas_threads() -> None:
    """Run the OpenBLAS that numpy bundles on one thread.

    OpenBLAS rounds some products differently with one thread than with
    several, so with the host's thread count a run's bits would depend on
    the host. Only a library already loaded is pinned, so that no library
    and no thread pool is added. scipy's bundled OpenBLAS is left alone:
    importing the package does not load it, and the package calls no BLAS
    through scipy. Where numpy bundles no OpenBLAS, or it lacks the setter,
    nothing is done."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*.so*"):
        try:
            set_threads = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD) \
                .scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        set_threads(1)


_pin_blas_threads()


class Tensor:
    """Shape-checked float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a fresh array that owns its memory; `+ 0.0` turns -0.0 into
            # +0.0 as adding to zeros did (`g.copy()` would keep it)
            self.grad = g + 0.0
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed primitives, replayed backward once.

    It may be entered and exited several times before the replay; what it
    records across those `with` blocks is replayed as one record, so a
    forward recorded in one block can be differentiated together with a
    loss recorded in a later one. Backward closures may overwrite what their
    forward saved, so a second replay raises `UsageError`. The replay drops
    each node, leaving the tape empty.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self.replayed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if _TAPE_STACK.pop() is not self:
            raise UsageError("tape exited out of order")

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        self._nodes.append((out, inputs, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def recorded(inputs: tuple[Tensor, ...]) -> bool:
    """Whether `_make_out` records a node over `inputs`: a tape is active
    and an input requires a gradient."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def _make_out(values, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap a forward result, recording the node if grads are needed."""
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    if recorded(inputs):
        active_tape().record(out, inputs, backward_fn)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate `.grad` on every requires_grad ancestor of a scalar loss.

    Each tape is replayed once. Calls on new tapes without clearing
    gradients accumulate, matching the additive semantics of
    `Tensor.accumulate_grad`.
    """
    if loss.data.ndim != 0:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape.replayed:
        raise UsageError("backward: this tape was already replayed; record a new one")
    tape.replayed = True
    loss.accumulate_grad(np.ones((), dtype=np.float64))
    nodes = tape._nodes
    while nodes:
        # Popped, so that the node's closure and the arrays it saved are freed
        # before the next node runs, and with them its output and gradient
        # once no caller holds that output.
        out, inputs, backward_fn = nodes.pop()
        if out.grad is not None:  # else not on the path from the loss
            _accumulate(inputs, backward_fn(out.grad))


def _accumulate(inputs: tuple[Tensor, ...], grads) -> None:
    """Add each gradient into its input; a separate frame, so that no
    gradient outlives the node that made it."""
    for t, g in zip(inputs, grads):
        if g is not None and t.requires_grad:
            t.accumulate_grad(g)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), branching on sign so that exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def bw(g):
        return g, g

    return _make_out(a.data + b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        return (g * c,)

    return _make_out(a.data * c, (a,), bw)


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------

def row_views(out: Tensor, split: int) -> tuple[Tensor, Tensor]:
    """The rows of `out` before and after `split`, as tensors whose data and,
    when `out` was just recorded, whose gradients are views of `out`'s."""
    head = Tensor(out.data[:split], out.requires_grad)
    tail = Tensor(out.data[split:], out.requires_grad)
    if out.requires_grad and active_tape() is not None:
        out.grad = np.zeros_like(out.data)
        head.grad, tail.grad = out.grad[:split], out.grad[split:]
    return head, tail


def _row_index(index, n_rows: int, op: str) -> np.ndarray:
    """`index` as a 1-d int64 array of row numbers below `n_rows`."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"{op} expects a 1-d index, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"{op}: index out of range for {n_rows} rows")
    return idx


def _scatter_rows(idx: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Row `r` of the result sums the rows `g[j]` with `idx[j] == r`, in
    index order from 0.0, the order `np.add.at` adds them in."""
    m = idx.size  # one column per gathered row
    scatter = sp.csr_matrix((np.ones(m), (idx, np.arange(m))), shape=(n_rows, m))
    return scatter @ g


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by integer index; backward scatter-adds into the source."""
    n_rows = a.data.shape[0]
    idx = _row_index(index, n_rows, "gather_rows")

    def bw(g):
        return (_scatter_rows(idx, g, n_rows),)

    return _make_out(a.data[idx], (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul: shapes {ad.shape} and {bd.shape} do not agree")

    def bw(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _make_out(ad @ bd, (a, b), bw)
