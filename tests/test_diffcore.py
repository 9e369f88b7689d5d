"""Unit tests for the reverse-mode autodiff core.

Every primitive is checked against central finite differences, and the
handful of fused backward rules (softmax, correlation, max) additionally
against hand-written numpy forward oracles.
"""
import pickle

import numpy as np
import pytest

from qdportfolio import diffcore as dc


def leaf(rng, *shape, scale=1.0, offset=0.0):
    return dc.Node(offset + scale * rng.standard_normal(shape), op="leaf")


def check(f, point, tol=1e-6, step=1e-6):
    err = dc.grad_check(f, np.asarray(point, dtype=np.float64), step=step)
    assert err < tol, f"finite-difference mismatch: {err}"


# --------------------------------------------------------------------------
# node basics

def test_node_coerces_to_float64():
    node = dc.Node(np.array([1, 2, 3]))
    assert node.value.dtype == np.float64


def test_node_rejects_non_finite_values():
    with pytest.raises(dc.NonFiniteError):
        dc.Node(np.array([1.0, np.inf]))
    with pytest.raises(dc.NonFiniteError):
        dc.Node(np.nan, op="bad_op")
    try:
        dc.Node(np.nan, op="bad_op")
    except dc.NonFiniteError as e:
        assert e.op == "bad_op"


def test_non_finite_error_round_trips_through_pickle():
    # a worker process sends its exception back pickled
    error = pickle.loads(pickle.dumps(dc.NonFiniteError("relu")))
    assert type(error) is dc.NonFiniteError
    assert error.op == "relu"
    assert str(error) == "non-finite value produced by primitive 'relu'"


def test_non_finite_result_names_the_op():
    a = dc.Node(np.array([1.0]))
    b = dc.Node(np.array([0.0]))
    with pytest.raises(dc.NonFiniteError) as exc:
        dc.div(a, b)
    assert exc.value.op == "div"
    with pytest.raises(dc.NonFiniteError):
        dc.log(dc.Node(np.array([-1.0])))
    with pytest.raises(dc.NonFiniteError):
        dc.exp(dc.Node(np.array([2000.0])))


def test_backward_requires_scalar_root():
    a = dc.Node(np.ones(3))
    with pytest.raises(dc.GraphError):
        dc.backward(dc.tanh(a))


def test_backward_accumulates_across_a_diamond():
    # z = x*y + x  =>  dz/dx = y + 1, dz/dy = x
    x = dc.Node(np.array(2.0))
    y = dc.Node(np.array(3.0))
    z = dc.add(dc.mul(x, y), x)
    dc.backward(z)
    assert x.grad == pytest.approx(4.0, abs=1e-15)
    assert y.grad == pytest.approx(2.0, abs=1e-15)


def test_matmul_requires_rank_two():
    a = dc.Node(np.ones(3))
    b = dc.Node(np.ones((3, 2)))
    with pytest.raises(dc.GraphError):
        dc.matmul(a, b)


# Each shape guard that numpy would not make: a call, the error it raises.
_GUARDS = {
    "slice_past_the_end": (lambda: dc.slice_last(np.ones(3), 1, 4),
                           "slice [1:4] out of range for axis of length 3"),
    "slice_empty": (lambda: dc.slice_last(np.ones(3), 2, 2),
                    "slice [2:2] out of range for axis of length 3"),
    "pearson_unequal": (lambda: dc.pearson_corr(np.ones(3), np.arange(4.0)),
                        "pearson_corr expects two rank-1 nodes of equal length"),
    "pearson_rank_2": (lambda: dc.pearson_corr(np.ones((2, 3)), np.ones((2, 3))),
                       "pearson_corr expects two rank-1 nodes of equal length"),
    "pearson_one_sample": (lambda: dc.pearson_corr(np.ones(1), np.ones(1)),
                           "pearson_corr needs at least two samples"),
    "vector_max_empty": (lambda: dc.vector_max(np.ones(0)),
                         "vector_max expects a non-empty rank-1 node"),
    "vector_max_rank_2": (lambda: dc.vector_max(np.ones((2, 2))),
                          "vector_max expects a non-empty rank-1 node"),
    "lstm_gate_rows": (lambda: dc.lstm_cell(np.ones((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)),
                                            np.ones((8, 2)), np.ones((8, 3)), np.zeros(8)),
                       "lstm_cell expects 12 gate rows, got 8"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_shape_guards_name_the_fault(case):
    call, message = _GUARDS[case]
    with pytest.raises(dc.GraphError) as exc:
        call()
    assert str(exc.value) == message


# Where no guard stands, numpy refuses the shape itself.
_REFUSED_BY_NUMPY = {
    "concat_of_nothing": (lambda: dc.concat([]), ValueError),
    "take_row_past_the_end": (lambda: dc.take_row(np.ones((2, 3)), 2), IndexError),
    "conv1d_rank_1_input": (lambda: dc.conv1d_valid(np.ones(5), np.ones((2, 3))), ValueError),
    "conv1d_kernel_too_long": (lambda: dc.conv1d_valid(np.ones((1, 2)), np.ones((2, 3))), ValueError),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_BY_NUMPY))
def test_numpy_refuses_a_shape_no_guard_checks(case):
    call, error = _REFUSED_BY_NUMPY[case]
    with pytest.raises(error):
        call()


# --------------------------------------------------------------------------
# per-primitive gradient checks

@pytest.mark.parametrize("seed", range(3))
def test_grads_arithmetic(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((4,))
    m = rng.standard_normal((3, 4))
    check(lambda p: dc.sum_all(dc.mul(dc.add(p, dc.as_node(b)), p)), rng.standard_normal((3, 4)))
    check(lambda p: dc.sum_all(dc.div(p, dc.as_node(b + 5.0))), rng.standard_normal((3, 4)))
    check(lambda p: dc.sum_all(dc.sub(dc.neg(p), dc.as_node(m))), rng.standard_normal((3, 4)))
    # broadcasting: (3,4) + (4,) and scalar * matrix
    check(lambda p: dc.sum_all(dc.mul(dc.add(dc.as_node(m), p), dc.as_node(2.5))), rng.standard_normal((4,)))


@pytest.mark.parametrize("seed", range(3))
def test_grads_matmul_and_shapes(seed):
    rng = np.random.default_rng(10 + seed)
    b = rng.standard_normal((4, 2))
    check(lambda p: dc.sum_all(dc.matmul(dc.reshape(p, (3, 4)), dc.as_node(b))), rng.standard_normal(12))
    check(lambda p: dc.sum_all(dc.matmul(dc.as_node(b.T), dc.transpose(dc.reshape(p, (3, 4))))), rng.standard_normal(12))
    check(lambda p: dc.sum_all(dc.square(dc.slice_last(p, 1, 4))), rng.standard_normal(6))
    check(lambda p: dc.sum_all(dc.take_row(dc.reshape(p, (2, 3)), 1)), rng.standard_normal(6))
    check(
        lambda p: dc.sum_all(dc.concat([dc.mul(p, p), dc.add(p, p)], axis=-1)),
        rng.standard_normal((2, 3)),
    )


@pytest.mark.parametrize("seed", range(3))
def test_grads_elementwise(seed):
    rng = np.random.default_rng(20 + seed)
    check(lambda p: dc.sum_all(dc.tanh(p)), rng.standard_normal((3, 3)))
    check(lambda p: dc.sum_all(dc.sigmoid(p)), 3.0 * rng.standard_normal((3, 3)))
    check(lambda p: dc.sum_all(dc.exp(p)), rng.standard_normal((3, 3)))
    check(lambda p: dc.sum_all(dc.log(p)), 2.0 + rng.random((3, 3)))
    check(lambda p: dc.sum_all(dc.sqrt(p)), 1.0 + rng.random((3, 3)))
    check(lambda p: dc.sum_all(dc.square(p)), rng.standard_normal((3, 3)))
    # keep inputs away from the relu kink where the subgradient is one-sided
    check(lambda p: dc.sum_all(dc.relu(p)), rng.standard_normal((4, 4)) + 0.2 * np.sign(rng.standard_normal((4, 4))))


@pytest.mark.parametrize("seed", range(3))
def test_grads_reductions(seed):
    rng = np.random.default_rng(30 + seed)
    check(lambda p: dc.mean_all(dc.square(p)), rng.standard_normal((3, 5)))
    check(lambda p: dc.sum_all(dc.square(dc.sum_last(p))), rng.standard_normal((3, 5)))


def test_sum_last_keeps_the_axis():
    node = dc.sum_last(dc.Node(np.ones((2, 5))))
    assert node.value.shape == (2, 1)


@pytest.mark.parametrize("seed", range(3))
def test_grads_conv1d(seed):
    rng = np.random.default_rng(40 + seed)
    x = rng.standard_normal((2, 6))
    w = rng.standard_normal((3, 2))
    # forward oracle: explicit sliding dot products
    out = dc.conv1d_valid(dc.as_node(x), dc.as_node(w)).value
    expected = np.zeros((2, 3, 5))
    for bi in range(2):
        for ci in range(3):
            for t in range(5):
                expected[bi, ci, t] = np.dot(x[bi, t : t + 2], w[ci])
    np.testing.assert_allclose(out, expected, atol=1e-14)
    check(lambda p: dc.sum_all(dc.square(dc.conv1d_valid(dc.as_node(x), dc.reshape(p, (3, 2))))), w.ravel())
    check(lambda p: dc.sum_all(dc.square(dc.conv1d_valid(dc.reshape(p, (2, 6)), dc.as_node(w)))), x.ravel())


@pytest.mark.parametrize("seed", range(3))
def test_grads_softmax(seed):
    rng = np.random.default_rng(50 + seed)
    z = rng.standard_normal((3, 5))
    y = dc.softmax(dc.as_node(z)).value
    shifted = np.exp(z - z.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(y, shifted / shifted.sum(axis=-1, keepdims=True), atol=1e-14)
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(3), atol=1e-12)
    target = rng.standard_normal((3, 5))
    check(
        lambda p: dc.sum_all(dc.mul(dc.softmax(dc.reshape(p, (3, 5))), dc.as_node(target))),
        z.ravel(),
    )


@pytest.mark.parametrize("seed", range(5))
def test_pearson_matches_numpy_and_grad_checks(seed):
    rng = np.random.default_rng(60 + seed)
    x = rng.standard_normal(12)
    y = 0.4 * x + rng.standard_normal(12)
    r = dc.pearson_corr(dc.as_node(x), dc.as_node(y))
    assert r.value == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
    assert not r.tie
    check(lambda p: dc.pearson_corr(dc.slice_last(p, 0, 12), dc.slice_last(p, 12, 24)),
          np.concatenate([x, y]), tol=1e-5)


def test_pearson_variance_guard_marks_tie():
    x = np.full(8, 0.3)
    y = np.arange(8.0)
    r = dc.pearson_corr(dc.as_node(x), dc.as_node(y))
    assert r.value == 0.0
    assert r.tie
    leaves = dc.Node(x), dc.Node(y)
    dc.backward(dc.pearson_corr(*leaves))
    for node in leaves:  # the guarded constant passes no gradient back
        np.testing.assert_array_equal(node.grad, np.zeros(8))


@pytest.mark.parametrize("seed", range(3))
def test_vector_max(seed):
    rng = np.random.default_rng(70 + seed)
    v = rng.standard_normal(9)
    m = dc.vector_max(dc.as_node(v))
    assert m.value == pytest.approx(v.max(), abs=0.0)
    assert not m.tie
    check(lambda p: dc.vector_max(dc.mul(p, p)), v + 2.0 * np.sign(v))


def test_vector_max_flags_exact_ties():
    v = np.array([1.0, 3.0, 3.0, 0.0])
    m = dc.vector_max(dc.as_node(v))
    assert m.tie
    node = dc.Node(v)
    dc.backward(dc.vector_max(node))
    # subgradient goes to the first argmax only
    np.testing.assert_array_equal(node.grad, [0.0, 1.0, 0.0, 0.0])


def test_grad_check_refuses_tied_graphs():
    point = np.array([2.0, 2.0])
    with pytest.raises(dc.GradCheckError):
        dc.grad_check(lambda p: dc.vector_max(p), point)


@pytest.mark.parametrize("seed", range(3))
def test_lstm_cell_against_manual_oracle(seed):
    rng = np.random.default_rng(80 + seed)
    batch, nin, hidden = 3, 4, 5
    x = rng.standard_normal((batch, nin))
    h = rng.standard_normal((batch, hidden))
    c = rng.standard_normal((batch, hidden))
    w_x = rng.standard_normal((4 * hidden, nin))
    w_h = rng.standard_normal((4 * hidden, hidden))
    b = rng.standard_normal(4 * hidden)

    h_node, c_node = dc.lstm_cell(
        dc.as_node(x), dc.as_node(h), dc.as_node(c),
        dc.as_node(w_x), dc.as_node(w_h), dc.as_node(b),
    )

    # independent straight-line recomputation, gate order i, f, g, o
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre = x @ w_x.T + h @ w_h.T + b
    i = sig(pre[:, 0 * hidden : 1 * hidden])
    f = sig(pre[:, 1 * hidden : 2 * hidden])
    g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
    o = sig(pre[:, 3 * hidden : 4 * hidden])
    c_ref = f * c + i * g
    h_ref = o * np.tanh(c_ref)
    np.testing.assert_allclose(c_node.value, c_ref, atol=1e-12)
    np.testing.assert_allclose(h_node.value, h_ref, atol=1e-12)

    def f_params(p):
        wx = dc.reshape(dc.slice_last(p, 0, 4 * hidden * nin), (4 * hidden, nin))
        off = 4 * hidden * nin
        wh = dc.reshape(dc.slice_last(p, off, off + 4 * hidden * hidden), (4 * hidden, hidden))
        off += 4 * hidden * hidden
        bias = dc.slice_last(p, off, off + 4 * hidden)
        hh, cc = dc.lstm_cell(dc.as_node(x), dc.as_node(h), dc.as_node(c), wx, wh, bias)
        return dc.add(dc.sum_all(dc.square(hh)), dc.sum_all(dc.square(cc)))

    check(f_params, np.concatenate([w_x.ravel(), w_h.ravel(), b]), tol=1e-5)


def test_grad_check_reports_max_relative_error():
    err = dc.grad_check(lambda p: dc.sum_all(dc.square(p)), np.array([1.0, -2.0, 3.0]))
    assert err < 1e-9


# --------------------------------------------------------------------------
# the fused LSTM cell against the graph composed from primitives

def composed_lstm_cell(x, h, c, w_x, w_h, b):
    """The 19-node cell that `lstm_cell` fuses, built from the primitives."""
    hidden = h.value.shape[1]
    pre = dc.add(dc.add(dc.matmul(x, dc.transpose(w_x)), dc.matmul(h, dc.transpose(w_h))), b)
    gi = dc.sigmoid(dc.slice_last(pre, 0, hidden))
    gf = dc.sigmoid(dc.slice_last(pre, hidden, 2 * hidden))
    gc = dc.tanh(dc.slice_last(pre, 2 * hidden, 3 * hidden))
    go = dc.sigmoid(dc.slice_last(pre, 3 * hidden, 4 * hidden))
    c_new = dc.add(dc.mul(gf, c), dc.mul(gi, gc))
    h_new = dc.mul(go, dc.tanh(c_new))
    return h_new, c_new


@pytest.mark.parametrize("sizes", [(3, 4, 5), (64, 112, 64)])
@pytest.mark.parametrize("state_leaves", [False, True])
@pytest.mark.parametrize("reads_c", [False, True])
def test_fused_lstm_cell_is_bit_identical_to_the_composed_graph(sizes, state_leaves, reads_c):
    batch, nin, hidden = sizes
    rng = np.random.default_rng(sum(sizes))
    arrays = [
        rng.standard_normal((batch, nin)),
        rng.standard_normal((batch, hidden)),
        rng.standard_normal((batch, hidden)),
        0.3 * rng.standard_normal((4 * hidden, nin)),
        0.3 * rng.standard_normal((4 * hidden, hidden)),
        rng.standard_normal(4 * hidden),
    ]
    dense = rng.standard_normal((hidden, 3))
    r_c = rng.standard_normal((batch, hidden))

    def run(cell):
        x, h, c, w_x, w_h, b = (
            dc.as_node(a) if k in (1, 2) and not state_leaves else dc.Node(a, op="leaf")
            for k, a in enumerate(arrays)
        )
        # two steps, the second fed the first's state, as in a generator's training graph
        h1, c1 = cell(dc.tanh(x), h, c, w_x, w_h, b)
        h2, c2 = cell(dc.tanh(x), h1, c1, w_x, w_h, b)
        loss = dc.mean_all(dc.square(dc.matmul(h2, dc.as_node(dense))))
        if reads_c:
            loss = dc.add(loss, dc.sum_all(dc.mul(c2, dc.as_node(r_c))))
        dc.backward(loss)
        return [h2.value, c2.value], [node.grad for node in (x, h, c, w_x, w_h, b)]

    fused_values, fused_grads = run(dc.lstm_cell)
    composed_values, composed_grads = run(composed_lstm_cell)
    for fused, composed in zip(fused_values, composed_values):
        np.testing.assert_array_equal(fused, composed)
    for k, (fused, composed) in enumerate(zip(fused_grads, composed_grads)):
        if k in (1, 2) and not state_leaves:
            assert fused is None and composed is None
        else:
            np.testing.assert_array_equal(fused, composed)


def test_lstm_cell_is_one_node_and_two_slices():
    rng = np.random.default_rng(5)
    h_new, c_new = dc.lstm_cell(
        dc.Node(rng.standard_normal((2, 3))), dc.as_node(np.zeros((2, 4))), dc.as_node(np.zeros((2, 4))),
        dc.Node(rng.standard_normal((16, 3))), dc.Node(rng.standard_normal((16, 4))),
        dc.Node(rng.standard_normal(16)),
    )
    assert h_new.op == c_new.op == "slice_last"
    (cell,), (other,) = h_new.parents, c_new.parents
    assert cell is other and cell.op == "lstm_cell"
    assert all(p.op in ("leaf", "const") for p in cell.parents)


@pytest.mark.parametrize("h", [0.0, 1e200])
def test_non_finite_lstm_cell_is_named(h):
    # x @ w_x.T overflows; with h, h @ w_h.T overflows the other way and the sum is nan.
    # Saturated gates would hide a bare overflow, which the composed cell's matmul caught.
    big = np.full((4, 4), 1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(dc.NonFiniteError) as exc:
        dc.lstm_cell(dc.Node(big[:1]), dc.as_node(np.full((1, 1), h)), dc.as_node(np.zeros((1, 1))),
                     dc.Node(big), dc.Node(-big[:, :1]), dc.Node(np.zeros(4)))
    assert exc.value.op == "lstm_cell"


# --------------------------------------------------------------------------
# gradients only where a parameter needs them

_OPERANDS = {
    "matmul": ((3, 4), (4, 2)),
    "mul": ((3, 4), (3, 4)),
    "conv1d_valid": ((2, 6), (3, 2)),
}


@pytest.mark.parametrize("op", sorted(_OPERANDS))
@pytest.mark.parametrize("constant", [0, 1])
def test_constant_operand_gets_no_gradient(op, constant):
    rng = np.random.default_rng(90)
    arrays = [rng.standard_normal(shape) for shape in _OPERANDS[op]]

    def run(const_is_leaf):
        operands = [
            dc.Node(a, op="leaf") if k != constant or const_is_leaf else dc.as_node(a)
            for k, a in enumerate(arrays)
        ]
        return operands, dc.backward(dc.sum_all(dc.square(getattr(dc, op)(*operands))))

    (pruned, grads), (full, full_grads) = run(False), run(True)
    assert not pruned[constant].needs
    assert pruned[constant].grad is None
    assert pruned[constant] not in grads
    assert len(grads) == len(full_grads) - 1
    np.testing.assert_array_equal(pruned[1 - constant].grad, full[1 - constant].grad)


def test_graph_of_constants_returns_only_the_root():
    rng = np.random.default_rng(91)
    a, b = dc.as_node(rng.standard_normal((3, 4))), dc.as_node(rng.standard_normal((4, 2)))
    root = dc.sum_all(dc.tanh(dc.matmul(a, b)))
    assert not root.needs
    assert dc.backward(root) == {root: root.grad}
    assert root.grad == 1.0
    assert a.grad is None and b.grad is None


def test_needs_follows_the_parents():
    leaf, const = dc.Node(np.ones(2)), dc.as_node(np.ones(2))
    assert leaf.needs and not const.needs
    assert dc.add(leaf, const).needs
    assert not dc.add(const, const).needs
    assert dc.as_node(leaf) is leaf
