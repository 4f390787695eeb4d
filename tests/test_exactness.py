"""The in-place idioms of the hot kernels against the forms they replace.

Each check compares bytes, so a changed sign of zero or NaN payload fails it.
Inputs mix signed zeros, infinities, NaN, subnormals and values over many
decades, at lengths 1-70 and in views shifted by one element, so that both
the SIMD bodies and the scalar tails of numpy's loops and both alignments
of the data are exercised.
"""

import numpy as np
import scipy.sparse as sp

from alignrec.align import logsumexp_rows, mmd_squared, sqdist
from alignrec.diagnostics import inner
from alignrec.dream import (
    _channel_sum,
    _dilated_grads,
    _relu,
    attention_fuse,
    dilated_conv,
    pointwise_conv,
)
from alignrec.model import propagate
from alignrec.optim import AdamState, adam_step
from alignrec.tensor import Tape, Tensor, _make_out, add, backward, gather_rows

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, -1e-310, 1.0, -1.0, 1.7e308, -1.7e308])
LENGTHS = [*range(1, 71), 1000, 4097]


def mixed(rng, shape, offset=0, specials=SPECIAL):
    """Values over 600 decades with ~40% drawn from `specials`, returned as a
    view `offset` elements into a larger buffer."""
    size = int(np.prod(shape))
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    pick = rng.random(size) < 0.4
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    buffer = np.empty(size + offset)
    buffer[offset:] = values
    return buffer[offset:].reshape(shape)


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def test_relu_in_place_matches_where():
    rng = np.random.default_rng(0)
    for length in LENGTHS:
        for offset in (0, 1):
            a = mixed(rng, (length,), offset)
            expected = np.where(a > 0.0, a, 0.0)
            assert same_bits(_relu(a), expected), (length, offset)


def test_fuse_maximum_matches_where_on_gated_relu_maps():
    """Both responses are a ReLU map (no -0.0, no NaN) times a gate in [0, 1]."""
    rng = np.random.default_rng(1)
    positive = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7e308])
    gates = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0])
    for length in LENGTHS:
        for offset in (0, 1):
            fused = np.abs(mixed(rng, (length,), offset, positive))
            fused = np.where(np.isfinite(fused), fused, 0.0)
            channel = fused * rng.choice(gates, size=length)
            spatial = fused * rng.choice(gates, size=length)
            expected = np.where(channel >= spatial, channel, spatial)
            expected_take = channel >= spatial
            got, take_channel = attention_fuse(channel, spatial, out=channel)
            assert same_bits(got, expected), (length, offset)
            assert np.array_equal(take_channel, expected_take)


def test_mask_split_matches_where_up_to_the_sign_of_zero():
    """g * mask keeps g where the mask holds and gives a zero of g's sign
    elsewhere, where np.where gives +0.0. The DREAM backward only sums such
    zeros with numpy reductions and einsums, which start from +0.0; the DREAM
    digests pin the end result."""
    minus_zeros = np.full((3, 4), -0.0)
    assert not np.signbit(minus_zeros.sum(axis=0)).any()
    assert not np.signbit(np.einsum("ij,jk->ik", minus_zeros.T, np.ones((3, 2)))).any()
    rng = np.random.default_rng(2)
    finite = SPECIAL[np.isfinite(SPECIAL)]
    for length in LENGTHS:
        for offset in (0, 1):
            g = mixed(rng, (length,), offset, finite)
            mask = rng.random(length) < 0.5
            got = g * mask
            assert same_bits(got[mask], g[mask])
            assert np.all(got[~mask] == 0.0)
            assert np.array_equal(got, np.where(mask, g, 0.0))


def test_first_gradient_write_matches_adding_to_zeros():
    rng = np.random.default_rng(3)
    for length in LENGTHS:
        for offset in (0, 1):
            g = mixed(rng, (length,), offset)
            t = Tensor(np.zeros(length))
            t.accumulate_grad(g)
            assert same_bits(t.grad, np.zeros(length) + g), (length, offset)
            assert t.grad.flags.owndata
            with np.errstate(over="ignore"):  # 1.7e308 doubled is past the range
                t.accumulate_grad(g)
                assert same_bits(t.grad, (np.zeros(length) + g) + g)
    g = np.array([-0.0, 1.0])
    assert not same_bits(g.copy(), np.zeros(2) + g)  # why the write adds 0.0


def test_gather_rows_backward_matches_add_at():
    rng = np.random.default_rng(4)
    for case in range(60):
        rows, m, d = int(rng.integers(1, 40)), int(rng.integers(0, 300)), int(rng.integers(1, 6))
        idx = rng.integers(0, rows, m)  # repeats: up to ~300 rows onto one
        g = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 8, (m, 1))
        if case % 3 == 0:
            g[rng.random((m, d)) < 0.2] = rng.choice(SPECIAL)
        expected = np.zeros((rows, d))
        with np.errstate(over="ignore"):  # repeated rows of 1.7e308 sum past it
            np.add.at(expected, idx, g)
        src = Tensor(np.zeros((rows, d)), requires_grad=True)
        with Tape() as tape, np.errstate(invalid="ignore"):  # 0 * inf
            loss = inner(gather_rows(src, idx), g)
        backward(loss, tape)
        assert same_bits(src.grad, np.zeros((rows, d)) + expected), case


def test_spmm_transpose_view_matches_converted_transpose():
    """The propagation backward multiplies by the CSC view of the operator's
    transpose. Unsorted column indices and duplicate entries, as a sum of
    sparse products can leave them."""
    rng = np.random.default_rng(5)
    for case in range(20):
        n = int(rng.integers(2, 60))
        nnz = int(rng.integers(0, 4 * n))
        rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
        data = rng.standard_normal(nnz)
        order = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[order], np.arange(n + 1))
        op = sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))
        g = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        n_users = int(rng.integers(1, n))
        user_emb = Tensor(rng.standard_normal((n_users, 3)), requires_grad=True)
        item_emb = Tensor(rng.standard_normal((n - n_users, 3)), requires_grad=True)
        with Tape() as tape:
            p, q = propagate(user_emb, item_emb, op, 1)
            loss = add(inner(p, g[:n_users]), inner(q, g[n_users:]))
        backward(loss, tape)
        t = g * 0.5  # the one-hop mean's gradient
        expected = np.zeros((n, 3)) + (t + op.T.tocsr() @ t)
        grads = np.concatenate([user_emb.grad, item_emb.grad])
        assert same_bits(grads, expected), case


def _full_tap_grads(kernel, taps, g, dilation):
    """The three-tap gradients, with the zero-padded outer taps included."""
    length = g.shape[-1]
    spread = np.einsum("ock,...ol->...ckl", kernel, g)
    padded = np.zeros(spread.shape[:-2] + (length + 2 * dilation,))
    for k in range(3):
        padded[..., k * dilation:k * dilation + length] += spread[..., k, :]
    return (padded[..., dilation:dilation + length],
            np.einsum("nol,nckl->ock", g, taps))


def test_dead_taps_match_three_tap_convolution():
    rng = np.random.default_rng(6)
    for case in range(200):
        n, cb, length = int(rng.integers(1, 30)), int(rng.integers(1, 9)), int(rng.integers(1, 25))
        dilation = int(rng.integers(length, length + 20))
        kernel = rng.standard_normal((cb, 1, 3))
        x = rng.standard_normal((n, 1, length))
        x[rng.random((n, 1, length)) < 0.2] = 0.0
        out, taps = dilated_conv(kernel, x, dilation)
        full = np.einsum("ock,...ckl->...ol", kernel, taps)
        assert same_bits(out, full), case
        g = rng.standard_normal((n, cb, length))
        g[rng.random(n) < 0.3] = 0.0
        for got, expected in zip(_dilated_grads(kernel, taps, g, dilation),
                                 _full_tap_grads(kernel, taps, g, dilation)):
            assert same_bits(got, expected), case


def test_sqdist_in_place_matches_expression():
    rng = np.random.default_rng(7)
    for case in range(60):
        n, m, d = int(rng.integers(1, 50)), int(rng.integers(1, 50)), int(rng.integers(1, 20))
        a = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 5)
        b = rng.standard_normal((m, d))
        b[: min(n, m) // 2] = a[: min(n, m) // 2]  # cancellation, clamped at 0
        sq_a = (a * a).sum(axis=1)[:, None]
        sq_b = (b * b).sum(axis=1)[None, :]
        expected = np.maximum(sq_a + sq_b - 2.0 * (a @ b.T), 0.0)
        assert same_bits(sqdist(a, b), expected), case


def test_stacked_matvec_matches_per_user_rows():
    """`evaluate` scores a block of users with one stacked matmul; numpy runs
    it as one gemv per user, so each row keeps the bits of the mat-vec
    `rank_topk` computes."""
    rng = np.random.default_rng(8)
    for width in (1, 4, 64):
        for n_items in (1, 7, 200, 2001):
            items = rng.standard_normal((n_items, width)) * 10.0 ** rng.integers(-6, 6, (n_items, 1))
            users = rng.standard_normal((500, width)) * 10.0 ** rng.integers(-6, 6, (500, 1))
            for n_users in (1, 2, 3, 17, 128, 444):
                chunk = np.sort(rng.choice(500, n_users, replace=False))
                rows = np.empty((n_users, n_items))
                np.matmul(items, users[chunk][:, :, None], out=rows[:, :, None])
                expected = np.stack([np.matmul(items, users[u]) for u in chunk])
                assert same_bits(rows, expected), (width, n_items, n_users)


def test_partition_threshold_matches_argpartition():
    """The cut-th best score per row, with -inf entries and ties."""
    rng = np.random.default_rng(9)
    for case in range(300):
        n_rows, n_items = int(rng.integers(1, 20)), int(rng.integers(1, 60))
        rows = rng.integers(-3, 4, (n_rows, n_items)).astype(np.float64)  # ties
        rows[rng.random((n_rows, n_items)) < 0.3] = -np.inf
        rows[rng.random(n_rows) < 0.2] = -np.inf  # rows with nothing finite
        rows[rng.random((n_rows, n_items)) < 0.1] = -0.0
        cut = int(rng.integers(1, n_items + 1))
        kth = np.argpartition(-rows, cut - 1, axis=1)[:, cut - 1]
        expected = rows[np.arange(n_rows), kth]
        got = np.partition(rows, n_items - cut, axis=1)[:, n_items - cut]
        assert np.array_equal(got, expected), case  # -0.0 == 0.0 as a threshold


def test_adam_in_place_matches_expressions():
    """All parameters share the scratch buffers, and each gradient is a view
    shifted by one element."""
    rng = np.random.default_rng(10)
    shapes = [(1,), (7,), (70, 3), (2, 33, 5), (4097,)]
    for steps in (1, 2, 40, 300):
        params = {f"p{i}": Tensor(rng.standard_normal(shape)) for i, shape in enumerate(shapes)}
        ref = {name: p.data.copy() for name, p in params.items()}
        ref_m = {name: np.zeros_like(r) for name, r in ref.items()}
        ref_v = {name: np.zeros_like(r) for name, r in ref.items()}
        state = AdamState(lr=0.01)
        with np.errstate(invalid="ignore"):  # inf - inf, 0 / 0 and NaN inputs
            for t in range(1, steps + 1):
                grads = {name: mixed(rng, p.data.shape, offset=1) for name, p in params.items()}
                for g in grads.values():
                    g *= 1e-155  # every finite square stays finite: an update
                    # that overflows raises (test_adam_overflow_names_the_parameter)
                adam_step(params, grads, state)
                corr1, corr2 = 1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t
                for name, g in grads.items():
                    m, v = ref_m[name], ref_v[name]
                    m *= state.beta1
                    m += (1.0 - state.beta1) * g
                    v *= state.beta2
                    v += (1.0 - state.beta2) * (g * g)
                    ref[name] -= state.lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)
        for name, p in params.items():
            assert same_bits(p.data, ref[name]), (steps, name)
            assert same_bits(state.m[name], ref_m[name]), (steps, name)
            assert same_bits(state.v[name], ref_v[name]), (steps, name)


FINITE = SPECIAL[np.isfinite(SPECIAL)]
MAP_SHAPES = [(n, c, length) for n in (1, 3) for c in (1, 2, 5, 9, 40)
              for length in (1, 2, 3, 7, 12, 33)]


def relu_map(rng, shape, offset=0):
    """A ReLU output (no -0.0, no NaN) of `mixed` values in a view shifted by
    `offset`, or at offset 0 of normal values, whose sums show a changed
    summation order."""
    m = mixed(rng, shape, offset)
    if not offset:
        m[...] = rng.standard_normal(shape)
    m[...] = np.where(m > 0.0, m, 0.0)
    return m


def test_channel_sum_pool_matches_reduce_on_relu_maps():
    """The spatial pool, as a sum and as the mean it divides into."""
    rng = np.random.default_rng(11)
    with np.errstate(over="ignore", invalid="ignore"):
        for shape in MAP_SHAPES + [(40, 12), (40, 1), (1, 1)]:
            for offset in (0, 1):
                m = relu_map(rng, shape, offset)
                got = _channel_sum(m)
                assert same_bits(got, m.sum(axis=-2)), (shape, offset)
                assert same_bits((got / m.shape[-2])[..., None, :],
                                 m.mean(axis=-2, keepdims=True)), (shape, offset)


def test_channel_sum_of_products_matches_product_sum():
    """The spatial gate's gradient: a finite gradient with signed zeros and
    subnormals against a ReLU map. Sums whose terms are all zero are +0.0
    in both forms."""
    rng = np.random.default_rng(12)
    with np.errstate(over="ignore", invalid="ignore"):
        for shape in MAP_SHAPES:
            for offset in (0, 1):
                g = mixed(rng, shape, offset, FINITE)
                if offset:
                    g[...] = rng.standard_normal(shape)
                m = relu_map(rng, shape, 1 - offset)
                assert same_bits(_channel_sum(g, m), (g * m).sum(axis=-2)), (shape, offset)
    zeros = np.full((2, 4, 3), -0.0)
    assert not np.signbit(_channel_sum(zeros, np.ones((2, 4, 3)))).any()
    assert not np.signbit((zeros * np.ones((2, 4, 3))).sum(axis=-2)).any()


def test_fmax_relu_matches_where_on_einsum_maps():
    """The branch map is filled by einsum, whose sums start from +0.0, so it
    holds no -0.0 and `fmax` alone gives `np.where(a > 0, a, 0.0)`."""
    rng = np.random.default_rng(13)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, cb, length in [(1, 1, 1), (3, 2, 5), (8, 4, 12), (2, 8, 33)]:
            for offset in (0, 1):
                x = mixed(rng, (n, 1, length), offset)
                maps = [pointwise_conv(mixed(rng, (cb, 1)), x)]
                for dilation in (1, 2, length):
                    maps.append(dilated_conv(mixed(rng, (cb, 1, 3)), x, dilation)[0])
                maps.append(pointwise_conv(mixed(rng, (cb, 1)),
                                           x.mean(axis=-1, keepdims=True)))
                for a in maps:
                    assert not (np.signbit(a) & (a == 0.0)).any()
                    assert same_bits(np.fmax(a, 0.0), np.where(a > 0.0, a, 0.0))


def test_matched_logits_match_eye_product():
    """The diagonal and the row sums of `logits * eye` differ only where a
    matched logit is -0.0; `lse - matched` is the same either way."""
    rng = np.random.default_rng(14)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (*range(1, 20), 64, 150):
            for offset in (0, 1):
                logits = mixed(rng, (n, n), offset, FINITE)
                lse, _ = logsumexp_rows(logits)
                eye_sums = (logits * np.eye(n)).sum(axis=1)
                diagonal = logits.diagonal()
                assert np.array_equal(diagonal, eye_sums)
                assert same_bits(lse - diagonal, lse - eye_sums), (n, offset)


def test_logsumexp_in_place_matches_expression():
    rng = np.random.default_rng(15)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in (1, 3):
            for length in LENGTHS[:40] + [150, 1000]:
                for offset in (0, 1):
                    x = mixed(rng, (rows, length), offset)
                    m = x.max(axis=1, keepdims=True)
                    shifted = np.exp(x - m)
                    total = shifted.sum(axis=1, keepdims=True)
                    lse, softmax = logsumexp_rows(x)
                    assert same_bits(lse, (np.log(total) + m).reshape(-1))
                    assert same_bits(softmax, shifted / total), (rows, length)


def _mmd_by_bandwidth(first, second, bandwidths):
    """MMD^2 with every distance made first and the kernels made and summed
    one bandwidth at a time, the form `mmd_squared` replaces."""
    n = first.shape[0]
    a, b = first.data, second.data
    pairs = ((a, a), (b, b), (a, b))
    dists = [sqdist(x, y) for x, y in pairs]
    kernels, total = [], None
    for sigma in bandwidths:
        coef = -1.0 / (2.0 * sigma * sigma)
        ks = [np.exp(coef * d) for d in dists]
        term = ((ks[0].sum() + ks[1].sum()) - ks[2].sum() * 2.0) * (1.0 / (n * n))
        total = term if total is None else total + term
        kernels.append((coef, ks))

    def backward(g):
        g_term = g * (1.0 / len(bandwidths)) * (1.0 / (n * n))
        weights = (g_term, g_term, -g_term * 2.0)
        g_dists = [None] * 3
        for coef, ks in reversed(kernels):
            for j, (w, k) in enumerate(zip(weights, ks)):
                piece = k * w * coef
                g_dists[j] = piece if g_dists[j] is None else g_dists[j] + piece
        grads = []
        for (x, y), g_d in reversed(list(zip(pairs, g_dists))):
            grads += [2.0 * (g_d.sum(axis=1, keepdims=True) * x - g_d @ y),
                      2.0 * (g_d.sum(axis=0)[:, None] * y - g_d.T @ x)]
        return grads

    return _make_out(total * (1.0 / len(bandwidths)),
                     (first, second, second, second, first, first), backward)


def test_mmd_pair_ordered_matches_bandwidth_ordered():
    rng = np.random.default_rng(16)
    for n, d in [(1, 1), (2, 3), (17, 5), (150, 24), (300, 12)]:
        for bandwidths in [(1.0,), (0.5, 2.0), (1.0, 1.5, 2.0), (0.1, 1.0, 3.0, 10.0)]:
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, d)) * 0.8 + 0.3
            results = []
            for mmd in (mmd_squared, _mmd_by_bandwidth):
                first, second = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
                with Tape() as tape:
                    loss = mmd(first, second, bandwidths)
                backward(loss, tape)
                results.append((loss.data, first.grad, second.grad))
            for got, expected in zip(*results):
                assert same_bits(got, expected), (n, d, bandwidths)


def _mmd_node(mmd, a, b, bandwidths, g, self_pair, **kwargs):
    """The loss of the node `mmd` records, and the six pieces its backward
    returns for the gradient `g`."""
    first = Tensor(a, requires_grad=True)
    second = first if self_pair else Tensor(b, requires_grad=True)
    with Tape() as tape:
        loss = mmd(first, second, bandwidths, **kwargs)
    (_, _, node_backward), = tape._nodes
    return [loss.data, *node_backward(np.array(g))]


def _signed_tiny(rng, shape):
    """Normal draws with ~30% replaced by signed zeros and subnormals, so that
    the kernels are not all 0 or 1."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice([0.0, -0.0, 5e-324, -5e-324, -1e-310], size=int(pick.sum()))
    return x


def test_mmd_stored_pieces_match_recomputed_and_reference():
    """The pieces made in the forward for the gradient the node receives,
    the pieces a backward with another gradient makes again, and the form
    that keeps every kernel, byte for byte."""
    rng = np.random.default_rng(17)
    draws = {
        "normal": lambda n, d: (rng.standard_normal((n, d)),
                                rng.standard_normal((n, d)) * 0.8 + 0.3),
        "signed-tiny": lambda n, d: (_signed_tiny(rng, (n, d)), _signed_tiny(rng, (n, d))),
        "mixed": lambda n, d: (mixed(rng, (n, d), 1, FINITE), mixed(rng, (n, d), 0, FINITE)),
    }
    for n, d in [(1, 1), (2, 3), (17, 5), (150, 24)]:
        bandwidths = (0.5, 2.0) if n == 2 else (1.0, 1.5, 2.0)
        for kind, draw in draws.items():
            for self_pair in (False, True):
                a, b = draw(n, d)
                # (the gradient received, another gradient for the node to expect)
                for g, other in [(1.0, 2.0), (0.15, 1.0), (2.0, 1.0), (-0.7, 1.0),
                                 (-0.0, 0.0), (0.0, -0.0)]:
                    with np.errstate(over="ignore", invalid="ignore"):
                        stored = _mmd_node(mmd_squared, a, b, bandwidths, g, self_pair,
                                           expect=g)
                        again = _mmd_node(mmd_squared, a, b, bandwidths, g, self_pair,
                                          expect=other)
                        reference = _mmd_node(_mmd_by_bandwidth, a, b, bandwidths, g,
                                              self_pair)
                    case = (n, d, kind, self_pair, g, other)
                    assert len(stored) == len(again) == len(reference) == 7, case
                    for got, recomputed, expected in zip(stored, again, reference):
                        assert same_bits(got, recomputed), case
                        assert same_bits(got, expected), case
