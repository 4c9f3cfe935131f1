"""Forward/backward contracts of the autodiff core, checked against hand
calculations and the central finite-difference oracle."""

import numpy as np
import pytest

from segprompt.errors import ContractError, OracleError
from segprompt.nn import (
    AttentionBlock,
    LinearLayer,
    MlpBlock,
    Tensor,
    concat,
    cross_entropy,
    finite_diff_grad,
    gelu,
    grad_rel_error,
    layer_norm,
    no_grad,
    softmax,
)
from segprompt.nn import tensor as T


def make_linear(weight, bias):
    layer = LinearLayer(np.shape(weight)[1], np.shape(weight)[0])
    layer.weight.data[:] = weight
    layer.bias.data[:] = bias
    return layer


class TestForward:
    def test_identity_weight(self):
        layer = make_linear(np.eye(2), np.zeros(2))
        out = layer(Tensor([1.0, 2.0]))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_constant_map(self):
        layer = make_linear(np.zeros((1, 3)), [3.0])
        out = layer(Tensor([7.0, -2.0, 0.5]))
        assert np.array_equal(out.data, [3.0])

    def test_hand_matrix_multiply(self):
        layer = make_linear([[1.0, 1.0], [1.0, -1.0]], np.zeros(2))
        out = layer(Tensor([2.0, 3.0]))
        assert np.array_equal(out.data, [5.0, -1.0])

    def test_dimension_mismatch(self):
        layer = make_linear(np.eye(2), np.zeros(2))
        with pytest.raises(ContractError):
            layer(Tensor([1.0, 2.0, 3.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        layer = LinearLayer(4, 4, rng)
        x = rng.standard_normal((3, 4))
        a = layer(Tensor(x)).data
        b = layer(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_mlp_requires_layers(self):
        with pytest.raises(ContractError):
            MlpBlock([4])


class TestBackward:
    def test_linear_map_gradient(self):
        layer = make_linear(np.zeros((2, 3)), np.zeros(2))
        layer.weight.data[:] = np.arange(6).reshape(2, 3)
        x = np.array([0.5, -1.0, 2.0])
        loss = layer(Tensor(x)).sum()
        loss.backward()
        assert np.allclose(layer.weight.grad, np.outer(np.ones(2), x))
        assert np.allclose(layer.bias.grad, np.ones(2))

    def test_norm_squared_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_parameters_untouched(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(3, 2, rng)
        before = layer.weight.data.copy()
        layer(Tensor(rng.standard_normal(3))).sum().backward()
        assert np.array_equal(layer.weight.data, before)

    def test_mlp_matches_finite_diff_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mlp = MlpBlock([4, 5, 3, 1], rng=rng)
            x = Tensor(rng.standard_normal(4), requires_grad=True)
            mlp(x).sum().backward()
            for name, p in mlp.named_params("mlp").items():
                def f(t, p=p):
                    old = p.data
                    p.data = t.data
                    try:
                        return float(mlp(Tensor(x.data)).sum().data)
                    finally:
                        p.data = old
                num = finite_diff_grad(f, Tensor(p.data))
                assert grad_rel_error(p.grad, num) < 1e-4, f"{name} (seed {seed})"

    def test_composed_activation_input_gradient(self):
        rng = np.random.default_rng(7)
        layer = LinearLayer(4, 4, rng)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        gelu(layer(x)).sum().backward()
        num = finite_diff_grad(lambda t: float(gelu(layer(t)).sum().data), Tensor(x.data))
        assert grad_rel_error(x.grad, num) < 1e-4

    def test_results_finite(self):
        rng = np.random.default_rng(1)
        mlp = MlpBlock([6, 6, 6], rng=rng)
        x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        out = mlp(x).sum()
        out.backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(x.grad).all()


def graph_nodes(t) -> list:
    """Every autodiff node reachable from t, t included."""
    seen, stack, out = set(), [t], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node._parents)
    return out


def backward_keeping_graph(loss) -> None:
    """The backward that kept its graph: the same reverse topological order
    as ``Tensor.backward``, with no node's grad, parents or closure dropped."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def small_graph(rng, mlp, gamma, beta):
    """A scalar loss over a fresh input through layer norm, an MLP, a residual
    (the input reaches the loss twice), a slice and a concat."""
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    y = mlp(layer_norm(x, gamma, beta)) + x
    return cross_entropy(concat([y, y[1:2]], axis=0), np.arange(5)), x


def small_params(seed):
    rng = np.random.default_rng(seed)
    mlp = MlpBlock([6, 5, 6], rng=rng)
    gamma = Tensor(rng.standard_normal(6), requires_grad=True)
    beta = Tensor(rng.standard_normal(6), requires_grad=True)
    return rng, mlp, gamma, beta


def param_list(mlp, gamma, beta) -> list:
    return [gamma, beta, *mlp.named_params("mlp").values()]


class TestConsumingBackward:
    """``Tensor.backward`` frees each interior node once its closure has run;
    the backward that kept the whole graph is the oracle for the gradients."""

    @pytest.mark.parametrize("seed", range(4))
    def test_interior_released_leaf_grads_equal_kept_graph(self, seed):
        rng, *params = small_params(seed)
        loss, x = small_graph(rng, *params)
        interior = [node for node in graph_nodes(loss) if node._parents]
        loss.backward()
        ref_rng, *ref_params = small_params(seed)
        ref_loss, ref_x = small_graph(ref_rng, *ref_params)
        backward_keeping_graph(ref_loss)
        for got, want in zip([x, *param_list(*params)], [ref_x, *param_list(*ref_params)]):
            assert got.grad is not None and np.array_equal(got.grad, want.grad)
        assert len(interior) == 8
        assert all(node.grad is None and node._parents == () for node in interior)
        assert ref_loss.grad is not None and ref_loss._parents

    def test_second_backward_raises(self):
        rng, *params = small_params(0)
        loss, x = small_graph(rng, *params)
        loss.backward()
        leaves = [x, *param_list(*params)]
        grads = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()
        assert all(np.array_equal(leaf.grad, g) for leaf, g in zip(leaves, grads))

    def test_reused_consumed_tensor_raises_when_reached(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        w = Tensor(rng.standard_normal(5), requires_grad=True)
        h = gelu(x * w)
        h.sum().backward()
        x_grad = x.grad.copy()
        fresh = Tensor(rng.standard_normal(5), requires_grad=True)
        again = (h * fresh).sum()
        with pytest.raises(ContractError, match="consumed"):
            again.backward()
        assert fresh.grad is None and np.array_equal(x.grad, x_grad)
        # the consumed tensor keeps its value, and reads as a constant without a graph
        with no_grad():
            assert np.array_equal((h * fresh).data, h.data * fresh.data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("parts", [2, 3])
    def test_per_part_backward_equals_whole_batch(self, dtype, parts):
        """Backpropagating each part's loss seeded with 1/parts adds the
        same parameter gradients, bit for bit, as one backward of the mean."""
        grads = []
        for per_part in (False, True):
            with T.precision(dtype):
                rng, *params = small_params(5)
                losses = [small_graph(rng, *params)[0] for _ in range(parts)]
                if per_part:
                    for loss in losses:
                        (loss * (1.0 / parts)).backward()
                else:
                    concat([loss.reshape(1) for loss in losses], axis=0).mean().backward()
                grads.append([p.grad for p in param_list(*params)])
        for got, want in zip(*grads):
            assert got.dtype == np.dtype(dtype) and np.array_equal(got, want)


def mean_var_layer_norm(x, gamma, beta, g, eps=1e-5):
    """layer_norm's output and x, gamma, beta gradients for upstream g, with
    the statistics from numpy's mean and var."""
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    gy = g * gamma
    gx = (gy - gy.mean(axis=-1, keepdims=True)
          - xhat * (gy * xhat).mean(axis=-1, keepdims=True)) * inv
    lead = tuple(range(x.ndim - 1))
    return xhat * gamma + beta, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


class TestOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_gradient(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = rng.standard_normal((3, 4))
        (softmax(x) * w).sum().backward()
        num = finite_diff_grad(lambda t: float((softmax(t) * w).sum().data), Tensor(x.data))
        assert grad_rel_error(x.grad, num) < 1e-4

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(6), requires_grad=True)
        beta = Tensor(rng.standard_normal(6), requires_grad=True)
        w = rng.standard_normal((4, 6))
        (layer_norm(x, gamma, beta) * w).sum().backward()
        for param in (x, gamma, beta):
            def f(t, param=param):
                old = param.data
                param.data = t.data.reshape(old.shape)
                try:
                    return float((layer_norm(Tensor(x.data), gamma, beta) * w).sum().data)
                finally:
                    param.data = old
            num = finite_diff_grad(f, Tensor(param.data))
            assert grad_rel_error(param.grad, num) < 1e-4

    def test_concat_and_slice_gradients(self):
        a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = concat([a, b], axis=0)[1:4].sum()
        out.backward()
        assert np.array_equal(a.grad, [[0, 0], [1, 1], [1, 1]])
        assert np.array_equal(b.grad, [[1, 1], [0, 0]])

    def test_gather_gradient_accumulates(self):
        table = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        out = table[np.array([1, 1, 3])].sum()
        out.backward()
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("idx", [slice(1, 3), 2, np.int64(3), (1, slice(0, 2)),
                                     (slice(None), 1), (2, 1), np.array([1, 1, 3])])
    def test_take_gradient_equals_scatter_add(self, idx):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = x[idx]
        w = rng.standard_normal(out.shape)
        (out * w).sum().backward()
        want = np.zeros((4, 3))
        np.add.at(want, idx, w)
        assert np.array_equal(x.grad, want)

    @pytest.mark.parametrize("axes", [(2, 0, 3, 1), (1, 3, 0, 2), (-1, 0, -2, 1)])
    def test_transpose_gradient_undoes_the_permutation(self, axes):
        # none of these permutations is its own inverse
        assert list(np.argsort(np.mod(axes, 4))) != list(np.mod(axes, 4))
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        out = T.transpose(x, axes)
        w = rng.standard_normal(out.shape)
        (out * w).sum().backward()
        assert np.array_equal(x.grad, np.transpose(w, np.argsort(np.mod(axes, 4))))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(1, 7), (5, 7), (2, 3, 7), (1, 64)])
    def test_layer_norm_bit_equals_mean_var_formulation(self, dtype, shape):
        rng = np.random.default_rng(10)
        with T.precision(dtype):
            x, gamma, beta = (Tensor(rng.standard_normal(s) * 3 + 1, requires_grad=True)
                              for s in (shape, shape[-1:], shape[-1:]))
            w = Tensor(rng.standard_normal(shape))
            out = layer_norm(x, gamma, beta)
            (out * w).sum().backward()
        want = mean_var_layer_norm(x.data, gamma.data, beta.data, w.data)
        got = (out.data, x.grad, gamma.grad, beta.grad)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype == np.dtype(dtype), i
            assert np.array_equal(a, b), i

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 7)), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 3, 6]))
        assert abs(loss.item() - np.log(7)) < 1e-12

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        targets = np.array([0, 2, 4, 1])
        cross_entropy(logits, targets).backward()
        num = finite_diff_grad(
            lambda t: float(cross_entropy(t, targets).data), Tensor(logits.data))
        assert grad_rel_error(logits.grad, num) < 1e-4

    def test_vector_matmul_paths(self):
        rng = np.random.default_rng(4)
        v = Tensor(rng.standard_normal(3), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        (T.matmul(v, m) * np.array([1.0, -2.0])).sum().backward()
        num_v = finite_diff_grad(
            lambda t: float((T.matmul(t, m) * np.array([1.0, -2.0])).sum().data),
            Tensor(v.data))
        assert grad_rel_error(v.grad, num_v) < 1e-6


# -- fused primitives against the composed chain they replace -------------------


def composed_linear(x, w, b):
    return T.matmul(x, T.transpose(w, (1, 0))) + b


def composed_attention(q, k, v, causal):
    nd = q.ndim
    kt = T.transpose(k, (*range(nd - 2), nd - 1, nd - 2))
    scores = T.matmul(q, kt) * (1.0 / np.sqrt(q.shape[-1]))
    if causal:
        n, m = q.shape[-2], k.shape[-2]
        scores = scores + np.triu(np.full((n, m), -1e30), k=m - n + 1)
    return T.matmul(softmax(scores, axis=-1), v)


def per_head_attention(q, k, v, causal, heads):
    """Multi-head attention on (rows, heads*d) inputs as graph nodes: split each
    input into heads, attend per head, merge the heads back."""
    def split(t):
        return T.transpose(T.reshape(t, (t.shape[0], heads, -1)), (1, 0, 2))
    ctx = composed_attention(split(q), split(k), split(v), causal)
    return T.reshape(T.transpose(ctx, (1, 0, 2)), q.shape)


def leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def grads_of(fn, arrays, weight):
    """Output and input gradients of sum(fn(*inputs) * weight), fresh leaves."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*ts)
    (out * weight).sum().backward()
    return out.data, [t.grad for t in ts]


def assert_matches_composed(fused, composed, arrays, seed):
    weight = np.random.default_rng(seed + 1000).standard_normal(
        composed(*[Tensor(a) for a in arrays]).shape)
    got, got_grads = grads_of(fused, arrays, weight)
    want, want_grads = grads_of(composed, arrays, weight)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert grad_rel_error(g, w) < 1e-10, i


LINEAR_X_SHAPES = [(5,), (3, 5), (2, 3, 5)]
# (query rows, key rows, causal): square causal, the KV-cache offset, non-causal
ATTENTION_CASES = [(4, 4, True), (2, 5, True), (1, 6, True), (3, 5, False)]


class TestFusedPrimitives:
    @pytest.mark.parametrize("x_shape", LINEAR_X_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_matches_composed(self, x_shape, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((4, 5)),
                  rng.standard_normal(4)]
        assert_matches_composed(T.linear, composed_linear, arrays, seed)

    @pytest.mark.parametrize("n,m,causal", ATTENTION_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_attention_matches_composed(self, n, m, causal, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((2, n, 3)), rng.standard_normal((2, m, 3)),
                  rng.standard_normal((2, m, 3))]
        assert_matches_composed(
            lambda q, k, v: T.attention(q, k, v, causal),
            lambda q, k, v: composed_attention(q, k, v, causal), arrays, seed)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n,m,causal", ATTENTION_CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_multi_head_attention_matches_per_head_split(self, heads, n, m, causal, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((n, 8)), rng.standard_normal((m, 8)),
                  rng.standard_normal((m, 8))]
        assert_matches_composed(
            lambda q, k, v: T.attention(q, k, v, causal, heads),
            lambda q, k, v: per_head_attention(q, k, v, causal, heads), arrays, seed)

    def test_causal_offset_rows_see_keys_up_to_their_position(self):
        rng = np.random.default_rng(5)
        q, k, v = (Tensor(rng.standard_normal((1, r, 2))) for r in (2, 5, 5))
        out = T.attention(q, k, v, causal=True).data[0]
        # with n=2 rows after 3 cached ones, row 0 sits at position 3, row 1 at 4
        first = T.attention(q[:, :1], k[:, :4], v[:, :4]).data[0, 0]
        last = T.attention(q[:, 1:], k, v).data[0, 0]
        assert np.allclose(out, [first, last], atol=1e-15)
        # a square causal call: row 0 sees only key 0
        assert np.allclose(T.attention(k, k, v, causal=True).data[0, 0], v.data[0, 0])

    def test_causal_mask_keeps_float32(self):
        with T.precision("float32"):
            q = Tensor(np.ones((1, 3, 2)), requires_grad=True)
            out = T.attention(q, q, q, causal=True)
            out.sum().backward()
        assert out.data.dtype == np.float32 and q.grad.dtype == np.float32

    @pytest.mark.parametrize("x_shape", LINEAR_X_SHAPES)
    def test_linear_matches_finite_diff(self, x_shape):
        rng = np.random.default_rng(11)
        x, w, b = leaves(rng, x_shape, (3, 5), (3,))
        weight = rng.standard_normal(x_shape[:-1] + (3,))
        (T.linear(x, w, b) * weight).sum().backward()
        for i, t in enumerate((x, w, b)):
            def f(probe, i=i):
                args = [Tensor(a.data) for a in (x, w, b)]
                args[i] = probe
                return float((T.linear(*args) * weight).sum().data)
            assert grad_rel_error(t.grad, finite_diff_grad(f, Tensor(t.data))) < 1e-6, i

    @pytest.mark.parametrize("n,m,causal", ATTENTION_CASES)
    def test_attention_matches_finite_diff(self, n, m, causal):
        rng = np.random.default_rng(12)
        q, k, v = leaves(rng, (2, n, 3), (2, m, 3), (2, m, 3))
        weight = rng.standard_normal((2, n, 3))
        (T.attention(q, k, v, causal) * weight).sum().backward()
        for i, t in enumerate((q, k, v)):
            def f(probe, i=i):
                args = [Tensor(a.data) for a in (q, k, v)]
                args[i] = probe
                return float((T.attention(*args, causal) * weight).sum().data)
            assert grad_rel_error(t.grad, finite_diff_grad(f, Tensor(t.data))) < 1e-6, i

    @pytest.mark.parametrize("causal", [True, False])
    def test_attention_block_params_match_composed(self, causal):
        """Every parameter gradient of a block, fused vs composed; wk's bias has a
        true-zero gradient (softmax ignores a per-row shift), held by the floor."""
        rng = np.random.default_rng(21)
        block = AttentionBlock(8, 2, rng, causal=causal)
        params = block.named_params("attn")
        x = rng.standard_normal((5, 8))
        weight = rng.standard_normal((5, 8))

        def composed_block(xt):
            def lin(layer, t):
                return composed_linear(t, layer.weight, layer.bias)
            ctx = per_head_attention(lin(block.wq, xt), lin(block.wk, xt),
                                     lin(block.wv, xt), causal, 2)
            return lin(block.proj, ctx)

        grads = {}
        for fn in (block, composed_block):
            for p in params.values():
                p.zero_grad()
            out = fn(Tensor(x))
            (out * weight).sum().backward()
            grads[fn] = (out.data, {name: p.grad for name, p in params.items()})
        (got, got_g), (want, want_g) = grads[block], grads[composed_block]
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(want_g["attn.wk.bias"])) < 1e-12
        for name in params:
            assert grad_rel_error(got_g[name], want_g[name]) < 1e-10, name


@pytest.mark.parametrize("dtype", ["float16", "int64", np.float16])
def test_unsupported_default_dtype_rejected(dtype):
    with pytest.raises(ContractError, match="unsupported dtype"):
        T.set_default_dtype(dtype)
    assert T.default_dtype() is np.float64


def records_graph() -> bool:
    x = Tensor([1.0, 2.0], requires_grad=True)
    return (x * x).requires_grad


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(4, 3, rng)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        with no_grad():
            h = layer(x)
            outs = [h, gelu(h), softmax(h), -h, h - 1.0,
                    layer_norm(h, gamma, beta), concat([h, x[:, :3]], axis=0), h[1],
                    h.sum(), h.mean(axis=0), h.reshape(3, 2),
                    cross_entropy(h, np.array([0, 2]))]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None
        assert layer.weight.requires_grad and x.requires_grad

    def test_grad_mode_restored_on_exit(self):
        with no_grad():
            assert not records_graph()
        assert records_graph()

    def test_grad_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert records_graph()

    def test_nested(self):
        with no_grad():
            with no_grad():
                assert not records_graph()
            assert not records_graph()
        assert records_graph()

    def test_generate_report_leaves_training_untouched(self):
        from segprompt.encoder import VitConfig
        from segprompt.extractor import ExtractorConfig
        from segprompt.mllm import ModelConfig, ReportModel
        from segprompt.prompting import Strategy
        from segprompt.synth import SynthSpec, make_study, vocabulary

        cfg = ModelConfig(
            encoder=VitConfig(image_size=32, patch_size=16, depth=2, dim=12, heads=2,
                              tap_layers=(1, 2)),
            extractor=ExtractorConfig(dim=12, tap_layers=(1, 2), spatial_side=8,
                                      mlp_depth=2),
            lm_dim=12, lm_depth=1, lm_heads=2, max_seq_len=160)
        study = make_study(SynthSpec(seed=5, n_studies=1, image_size=32,
                                     heart_area_threshold=50), 0)
        used, fresh = ReportModel(cfg, vocabulary()), ReportModel(cfg, vocabulary())
        assert used.generate_reports([study], Strategy.SS, max_new=8)[0]
        assert all(p.grad is None for p in used.named_params().values())
        losses = []
        for model in (used, fresh):
            loss = model.study_loss(study, Strategy.SS)
            loss.backward()
            losses.append(loss.item())
        assert losses[0] == losses[1]
        fresh_params = fresh.named_params()
        for name, p in used.named_params().items():
            if p.grad is None:
                assert fresh_params[name].grad is None, name
            else:
                assert np.array_equal(p.grad, fresh_params[name].grad), name


class TestFiniteDiff:
    def test_analytic_square(self):
        got = finite_diff_grad(lambda t: float((t * t).sum().data), Tensor([3.0]), eps=1e-5)
        assert abs(got[0] - 6.0) < 1e-8

    def test_constant_function(self):
        got = finite_diff_grad(lambda t: 4.25, Tensor(np.ones((2, 2))))
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            finite_diff_grad(lambda t: 0.0, Tensor([1.0]), eps=0.0)

    def test_non_finite_evaluation(self):
        with pytest.raises(OracleError):
            finite_diff_grad(lambda t: float("nan"), Tensor([1.0]))
