"""Tensor engine: forward contracts, gradients vs finite differences, Adam."""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import alignrec
from alignrec.align import normalize_rows
from alignrec.diagnostics import build_suite, inner
from alignrec.dream import dilated_conv, pointwise_conv
from alignrec.errors import NumericalError
from alignrec.gradcheck import grad_check
from alignrec.optim import AdamState, adam_step
from alignrec.tensor import (
    DimensionError,
    ParameterError,
    Tape,
    Tensor,
    UsageError,
    _make_out,
    add,
    backward,
    gather_rows,
    matmul,
    scale,
    stable_sigmoid,
)


def numeric_grad(f, t: Tensor, h: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    for c in range(flat.size):
        orig = flat[c]
        flat[c] = orig + h
        up = f().item()
        flat[c] = orig - h
        down = f().item()
        flat[c] = orig
        out.reshape(-1)[c] = (up - down) / (2 * h)
    return out


def analytic_grad(f, t: Tensor) -> np.ndarray:
    t.zero_grad()
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    return t.grad.copy()


def sum_sq(t: Tensor) -> Tensor:
    """The sum of squares as one node, a scalar that is not linear in `t`."""
    return _make_out((t.data * t.data).sum(), (t,), lambda g: (g * 2.0 * t.data,))


def assert_grad_matches(f, t: Tensor, tol: float = 1e-5):
    a = analytic_grad(f, t)
    n = numeric_grad(f, t)
    rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                             np.full_like(a, 1e-6)])
    assert rel.max() <= tol, f"max rel error {rel.max()}"


# ---------------------------------------------------------------------------
# linear maps (matmul)
# ---------------------------------------------------------------------------

def test_linear_identity():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    out = matmul(x, Tensor(np.eye(3)))
    assert np.array_equal(out.data, x.data)


def test_linear_zero_weight():
    x = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
    assert np.array_equal(matmul(x, Tensor(np.zeros((3, 2)))).data, np.zeros((4, 2)))


def test_linear_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((3, 2))
    expected = np.zeros((2, 2))
    for n in range(2):
        for j in range(2):
            for i in range(3):
                expected[n, j] += x[n, i] * w[i, j]
    out = matmul(Tensor(x), Tensor(w))
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


# ---------------------------------------------------------------------------
# convolutions (plain numpy kernels of the refinement block, in dream.py)
# ---------------------------------------------------------------------------

def conv_oracle(x, kernel, dilation):
    c_out, c_in, _ = kernel.shape
    length = x.shape[1]
    out = np.zeros((c_out, length))
    for o in range(c_out):
        for l in range(length):
            for c in range(c_in):
                for k in (-1, 0, 1):
                    src = l + k * dilation
                    if 0 <= src < length:
                        out[o, l] += kernel[o, c, k + 1] * x[c, src]
    return out


def test_conv1d_zero_kernel():
    x = np.random.default_rng(2).standard_normal((2, 7))
    out, _ = dilated_conv(np.zeros((3, 2, 3)), x, 2)
    assert np.array_equal(out, np.zeros((3, 7)))


@pytest.mark.parametrize("dilation", [1, 2, 5, 18])
def test_conv1d_identity_tap(dilation):
    x = np.random.default_rng(3).standard_normal((1, 9))
    out, _ = dilated_conv(np.array([[[0.0, 1.0, 0.0]]]), x, dilation)
    assert np.array_equal(out, x)


def test_conv1d_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 9))
    kernel = rng.standard_normal((3, 2, 3))
    out, _ = dilated_conv(kernel, x, 2)
    assert np.max(np.abs(out - conv_oracle(x, kernel, 2))) <= 1e-12


@given(st.integers(1, 30), st.integers(1, 25))
def test_conv1d_preserves_length(length, dilation):
    x = np.linspace(-1, 1, 2 * length).reshape(2, length)
    out, taps = dilated_conv(np.full((1, 2, 3), 0.5), x, dilation)
    assert out.shape == (1, length)
    assert taps.shape == (2, 3, length)


def test_conv1x1_identity_and_zero():
    x = np.random.default_rng(4).standard_normal((3, 5))
    assert np.array_equal(pointwise_conv(np.eye(3), x), x)
    assert np.array_equal(pointwise_conv(np.zeros((2, 3)), x), np.zeros((2, 5)))


def test_conv1x1_equals_linear_on_transposed_view():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    kernel = rng.standard_normal((2, 3))
    out = pointwise_conv(kernel, x)
    via_linear = matmul(Tensor(x.T.copy()), Tensor(kernel.T.copy()))
    assert np.max(np.abs(out - via_linear.data.T)) <= 1e-12


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def test_sigmoid_symmetry_point():
    assert stable_sigmoid(np.float64(0.0)) == 0.5
    with np.errstate(over="raise"):  # neither branch overflows exp
        assert np.array_equal(stable_sigmoid(np.array([-1000.0, 1000.0])), [0.0, 1.0])


def test_binary_shape_error():
    """`add` does not broadcast: shapes numpy would broadcast are refused too."""
    for shape in ((4, 5), (2, 1), (3,)):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones(shape)))


# ---------------------------------------------------------------------------
# row normalization (the numpy helper the contrastive loss uses)
# ---------------------------------------------------------------------------

def test_l2_normalize_rows_cases():
    unit = np.array([[0.6, 0.8]])
    assert np.allclose(normalize_rows(unit)[0], unit)
    out, denom = normalize_rows(np.array([[3.0, 4.0]]))
    assert np.max(np.abs(out - [[0.6, 0.8]])) <= 1e-12
    assert denom[0, 0] == 5.0
    zero, denom = normalize_rows(np.zeros((1, 4)))  # the guard, not a 0/0
    assert np.array_equal(zero, np.zeros((1, 4)))
    assert denom[0, 0] == 1e-12


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
def test_l2_normalize_rows_unit_norm(row):
    arr = np.array([row])
    if np.linalg.norm(arr) < 1e-6:
        arr = arr + 1.0
    out, _ = normalize_rows(arr)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# backward pass semantics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(6).standard_normal((3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = inner(x, np.ones((3, 4)))
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_half_squared_norm_gives_x():
    x = Tensor(np.random.default_rng(7).standard_normal((5,)), requires_grad=True)
    with Tape() as tape:
        loss = scale(sum_sq(x), 0.5)
    backward(loss, tape)
    assert np.allclose(x.grad, x.data)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        out = add(x, x)
    with pytest.raises(UsageError):
        backward(out, tape)


def test_backward_accumulates_without_reset():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = inner(x, np.ones(3))
    backward(loss, tape)
    first = x.grad.copy()
    with Tape() as tape2:
        loss2 = inner(x, np.ones(3))
    backward(loss2, tape2)
    assert np.array_equal(x.grad, 2 * first)


def test_backward_twice_on_one_tape_raises():
    """Closures may overwrite what their forward saved, so a tape replays once."""
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = sum_sq(x)
    backward(loss, tape)
    first = x.grad.copy()
    with pytest.raises(UsageError, match="already replayed"):
        backward(loss, tape)
    assert np.array_equal(x.grad, first)


def test_tape_entered_again_replays_as_one_block():
    """A forward recorded, the tape exited and entered again for the loss,
    as training does with the validation forward: one replay gives the
    gradients of a single `with` block bit for bit, and the tape still
    replays once."""
    rng = np.random.default_rng(21)
    x0, w0 = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))

    def leaves():
        return Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)

    def loss_of(h):
        rows = gather_rows(h, np.array([0, 2, 2, 4]))
        return sum_sq(add(rows, scale(rows, 0.5)))

    x, w = leaves()
    with Tape() as tape:
        loss = loss_of(matmul(x, w))
    backward(loss, tape)
    want = x.grad, w.grad

    x, w = leaves()
    tape = Tape()
    with tape:
        h = matmul(x, w)
    with tape:
        loss = loss_of(h)
    backward(loss, tape)
    assert [g.tobytes() for g in (x.grad, w.grad)] == [g.tobytes() for g in want]
    with pytest.raises(UsageError, match="already replayed"):
        backward(loss, tape)


def test_backward_drops_every_node_and_what_it_saved():
    """The replay pops each node, so what a node saved dies before the step
    ends, and the tape stays single-use."""
    x = Tensor(np.ones(3), requires_grad=True)
    factor = np.full(3, 2.0)  # saved by the `inner` node alone
    saved = weakref.ref(factor)
    with Tape() as tape:
        loss = inner(scale(x, 1.0), factor)
    del factor
    assert saved() is not None and len(tape) == 2
    backward(loss, tape)
    assert len(tape) == 0
    assert saved() is None
    assert np.array_equal(x.grad, np.full(3, 2.0))
    with pytest.raises(UsageError, match="already replayed"):
        backward(loss, tape)


def test_matmul_backward_skips_constant_operand():
    a = Tensor(np.random.default_rng(12).standard_normal((3, 4)))
    w = Tensor(np.random.default_rng(13).standard_normal((4, 2)), requires_grad=True)
    with Tape() as tape:
        out = matmul(a, w)
    (_, _, bw), = tape._nodes
    g_a, g_w = bw(np.ones(out.shape))
    assert g_a is None
    assert np.array_equal(g_w, a.data.T @ np.ones(out.shape))


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    v = Tensor(rng.standard_normal((2, 2)), requires_grad=True)

    def f():
        a = matmul(x, w)  # `a` has two consumers
        b = matmul(matmul(a, v), v)
        return sum_sq(add(b, scale(gather_rows(a, np.array([2, 0, 2])), -0.5)))

    for t in (x, w, v):
        assert_grad_matches(f, t)


def test_forward_is_deterministic():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((4, 4))
    a = matmul(Tensor(data), Tensor(data)).data
    b = matmul(Tensor(data), Tensor(data)).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# per-primitive gradient checks
# ---------------------------------------------------------------------------

def _rand(shape, seed, offset=0.0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape) + offset,
                  requires_grad=True)


PRIMITIVE_CASES = []


def _case(name, build):
    PRIMITIVE_CASES.append(pytest.param(build, id=name))


_case("add", lambda: (lambda a, b: sum_sq(add(a, b)),
                      [_rand((3, 4), 1), _rand((3, 4), 2)]))
_case("scale", lambda: (lambda a: sum_sq(scale(a, -1.7)), [_rand((4,), 7)]))
_case("gather_rows",
      lambda: (lambda a: sum_sq(gather_rows(a, np.array([0, 2, 2, 1]))),
               [_rand((3, 4), 21)]))
_case("matmul", lambda: (lambda a, b: sum_sq(matmul(a, b)),
                         [_rand((3, 4), 25), _rand((4, 2), 26)]))


@pytest.mark.parametrize("build", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(build):
    f_raw, tensors = build()

    def f():
        return f_raw(*tensors)

    for t in tensors:
        assert_grad_matches(f, t, tol=1e-5)


def _make_out_callers(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_make_out"
                    for node in ast.walk(fn))}


def test_every_tape_node_has_a_gradient_check():
    """The engine keeps four primitives, each with a case above named after
    it; each block fused into one node elsewhere in the package is an entry
    of the gradcheck suite. The suite's own probe node, which turns the
    refinement block's output into a scalar, is not a model block."""
    package = Path(alignrec.__file__).parent
    primitives = _make_out_callers(package / "tensor.py")
    assert primitives == {"add", "scale", "gather_rows", "matmul"}
    unchecked = primitives - {case.id for case in PRIMITIVE_CASES}
    assert not unchecked, f"primitives without a gradient case: {sorted(unchecked)}"

    assert _make_out_callers(package / "diagnostics.py") == {"inner"}
    fused = set().union(*(_make_out_callers(path) for path in package.glob("*.py")
                          if path.name not in ("tensor.py", "diagnostics.py")))
    assert {"dream_forward", "mmd_squared", "infonce", "bpr_loss", "l2_penalty",
            "propagate"} <= fused
    suite = {name for name, _, _ in build_suite(0)}
    assert fused <= suite, f"fused nodes outside the suite: {sorted(fused - suite)}"


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState(lr=0.01)
    adam_step({"p": p}, {"p": np.zeros(2)}, state)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_constant_gradient_approaches_signed_lr():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    g = np.array([0.3, -2.0])
    state = AdamState(lr=0.01)
    prev = p.data.copy()
    for _ in range(300):
        prev = p.data.copy()
        adam_step({"p": p}, {"p": g}, state)
    delta = p.data - prev
    assert np.allclose(delta, -0.01 * np.sign(g), rtol=1e-3)


def test_adam_step_counter_and_shape_check():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = AdamState()
    for expected in (1, 2, 3):
        adam_step({"p": p}, {"p": np.ones(3)}, state)
        assert state.step == expected
    with pytest.raises(DimensionError):
        adam_step({"p": p}, {"p": np.ones(4)}, state)


@pytest.mark.parametrize("g", [1e155, -1.7e308])
def test_adam_overflow_names_the_parameter(g):
    """An update whose gradient's square overflows would leave inf in the
    second moment and freeze the parameter, so it stops the run instead."""
    params = {"a": Tensor(np.zeros(2)), "b": Tensor(np.zeros(3))}
    grads = {"a": np.ones(2), "b": np.array([1.0, g, 0.5])}
    with pytest.raises(NumericalError, match="'b' at step 1"):
        adam_step(params, grads, AdamState())


# ---------------------------------------------------------------------------
# grad_check utility
# ---------------------------------------------------------------------------

def test_grad_check_passes_linear_composite():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    report = grad_check(lambda: sum_sq(matmul(x, w)),
                        {"x": x, "w": w}, tol=1e-5)
    assert report.passed
    assert set(report.max_rel_error) == {"x", "w"}


@pytest.mark.parametrize("settings", [{"h": 0.0}, {"h": float("inf")},
                                      {"tol": float("nan")}, {"tol": -1.0},
                                      {"seed": -1}],
                         ids=["h-zero", "h-inf", "tol-nan", "tol-negative",
                              "seed-negative"])
def test_grad_check_rejects_unusable_settings(settings):
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ParameterError):
        grad_check(lambda: sum_sq(x), {"x": x}, **settings)


def test_grad_check_detects_broken_backward_rule():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

    def sum_sq_with_negated_grad():
        return _make_out((x.data * x.data).sum(), (x,),
                         lambda g: (-(g * 2.0 * x.data),))

    assert grad_check(lambda: sum_sq(x), {"x": x}).passed
    assert not grad_check(sum_sq_with_negated_grad, {"x": x}).passed


def test_grad_check_reports_non_finite():
    x = Tensor(np.array([1e200]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        grad_check(lambda: sum_sq(x), {"x": x})
