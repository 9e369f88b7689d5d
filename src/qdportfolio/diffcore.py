"""Reverse-mode automatic differentiation for the fixed training graph.

Values are double-precision numpy arrays.  Graphs are rebuilt on every
iteration (define-by-run): each primitive returns a `Node` holding the
forward value, its parent nodes and a closed-form vector-Jacobian rule.
`backward` differentiates once from a scalar root; `grad_check` verifies
any scalar graph against central finite differences.

Only what a gradient needs is differentiated.  A constant made by
`as_node` gets no gradient, nor does any node computed from constants
alone: `backward` skips those nodes and leaves their `grad` at None, and
`matmul`, `mul` and `conv1d_valid` do no work for such an operand.  The
LSTM cell is one node with a closed-form rule for all six inputs.

Every primitive checks its output for finiteness and raises
`NonFiniteError` carrying the primitive name, so a failure can be located
without inspecting the graph.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "NonFiniteError",
    "GradCheckError",
    "Node",
    "as_node",
    "backward",
    "grad_check",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "square",
    "sqrt",
    "relu",
    "sum_all",
    "mean_all",
    "sum_last",
    "concat",
    "slice_last",
    "take_row",
    "reshape",
    "conv1d_valid",
    "softmax",
    "pearson_corr",
    "vector_max",
    "lstm_cell",
    "VARIANCE_GUARD",
]

# Below this population variance a series is treated as constant: its
# correlation with anything is defined as 0 with zero gradient.
VARIANCE_GUARD = 1e-18


class GraphError(ValueError):
    """Shape or structure violation while building or differentiating a graph."""


class NonFiniteError(ArithmeticError):
    """A primitive produced a non-finite value."""

    def __init__(self, op: str):
        super().__init__(f"non-finite value produced by primitive '{op}'")
        self.op = op

    def __reduce__(self):  # rebuilt from `op`: `args` holds the message
        return type(self), (self.op,)


class GradCheckError(ValueError):
    """Finite-difference verification cannot run at the given point."""


class Node:
    """One vertex of the computation graph.

    `value` is always float64; `grad` is populated by `backward`.  `tie`
    marks a point where the local rule is a subgradient choice (a tied
    max, or a variance-guarded correlation); `grad_check` rejects graphs
    containing such nodes.  `needs` is True for a leaf other than an
    `as_node` constant, and for a node with at least one parent that needs
    a gradient.
    """

    __slots__ = ("value", "parents", "op", "grad", "_vjp", "tie", "needs")

    def __init__(
        self,
        value,
        parents: tuple = (),
        op: str = "leaf",
        vjp: Callable[[np.ndarray], tuple] | None = None,
        tie: bool = False,
    ):
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(op)
        self.value = arr
        self.parents = parents
        self.op = op
        self.grad: np.ndarray | None = None
        self._vjp = vjp
        self.tie = tie
        self.needs = not parents or any(p.needs for p in parents)

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def as_node(value) -> Node:
    """Wrap a scalar or array as a constant leaf (no-op on nodes)."""
    if isinstance(value, Node):
        return value
    node = Node(value, op="const")
    node.needs = False
    return node


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce an upstream gradient back to the shape of a broadcast operand."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    val = a.value + b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Node(val, (a, b), "add", vjp)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    val = a.value - b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Node(val, (a, b), "sub", vjp)


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    val = a.value * b.value

    def vjp(g):
        return (
            _unbroadcast(g * b.value, a.value.shape) if a.needs else None,
            _unbroadcast(g * a.value, b.value.shape) if b.needs else None,
        )

    return Node(val, (a, b), "mul", vjp)


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = a.value / b.value

    def vjp(g):
        return (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        )

    return Node(val, (a, b), "div", vjp)


def neg(a) -> Node:
    a = as_node(a)
    return Node(-a.value, (a,), "neg", lambda g: (-g,))


def _matmul_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise GraphError("matmul expects two rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _matmul_shapes(a.value, b.value)
    val = a.value @ b.value

    def vjp(g):
        return g @ b.value.T if a.needs else None, a.value.T @ g if b.needs else None

    return Node(val, (a, b), "matmul", vjp)


def transpose(a) -> Node:
    a = as_node(a)
    if a.value.ndim != 2:
        raise GraphError("transpose expects a rank-2 operand")
    return Node(a.value.T, (a,), "transpose", lambda g: (g.T,))


def tanh(a) -> Node:
    a = as_node(a)
    y = np.tanh(a.value)
    return Node(y, (a,), "tanh", lambda g: (g * (1.0 - y * y),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign for stability: exp only ever sees non-positive arguments.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Node:
    a = as_node(a)
    y = _sigmoid(a.value)
    return Node(y, (a,), "sigmoid", lambda g: (g * y * (1.0 - y),))


def exp(a) -> Node:
    a = as_node(a)
    with np.errstate(over="ignore"):
        y = np.exp(a.value)
    return Node(y, (a,), "exp", lambda g: (g * y,))


def log(a) -> Node:
    a = as_node(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(a.value)
    return Node(y, (a,), "log", lambda g: (g / a.value,))


def square(a) -> Node:
    a = as_node(a)
    return Node(a.value * a.value, (a,), "square", lambda g: (g * 2.0 * a.value,))


def sqrt(a) -> Node:
    a = as_node(a)
    with np.errstate(invalid="ignore"):
        y = np.sqrt(a.value)
    return Node(y, (a,), "sqrt", lambda g: (g * 0.5 / y,))


def relu(a) -> Node:
    """Clamp at zero; the subgradient at exactly zero is taken as zero."""
    a = as_node(a)
    mask = (a.value > 0).astype(np.float64)
    return Node(a.value * mask, (a,), "relu", lambda g: (g * mask,))


def sum_all(a) -> Node:
    a = as_node(a)

    def vjp(g):
        return (np.broadcast_to(g, a.value.shape),)

    return Node(a.value.sum(), (a,), "sum_all", vjp)


def mean_all(a) -> Node:
    a = as_node(a)
    n = a.value.size

    def vjp(g):
        return (np.broadcast_to(g / n, a.value.shape),)

    return Node(a.value.mean(), (a,), "mean_all", vjp)


def sum_last(a) -> Node:
    """Sum over the last axis, keeping it as a length-1 axis."""
    a = as_node(a)
    val = a.value.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (np.broadcast_to(g, a.value.shape),)

    return Node(val, (a,), "sum_last", vjp)


def concat(nodes: Sequence, axis: int = -1) -> Node:
    parts = [as_node(n) for n in nodes]
    if not parts:
        raise GraphError("concat of an empty sequence")
    val = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i] : offsets[i + 1]], 0, axis)
            for i in range(len(parts))
        )

    return Node(val, tuple(parts), "concat", vjp)


def slice_last(a, start: int, stop: int) -> Node:
    """Slice [start:stop] along the last axis."""
    a = as_node(a)
    n = a.value.shape[-1]
    if not (0 <= start < stop <= n):
        raise GraphError(f"slice [{start}:{stop}] out of range for axis of length {n}")
    val = a.value[..., start:stop]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., start:stop] = g
        return (out,)

    return Node(val, (a,), "slice_last", vjp)


def take_row(a, index: int) -> Node:
    """Extract row `index` of a rank-2 node as a rank-1 node."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise GraphError("take_row expects a rank-2 operand")
    if not (0 <= index < a.value.shape[0]):
        raise GraphError(f"row {index} out of range for {a.value.shape[0]} rows")
    val = a.value[index]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[index] = g
        return (out,)

    return Node(val, (a,), "take_row", vjp)


def reshape(a, shape: tuple) -> Node:
    a = as_node(a)
    val = a.value.reshape(shape)

    def vjp(g):
        return (g.reshape(a.value.shape),)

    return Node(val, (a,), "reshape", vjp)


def conv1d_valid(x, w) -> Node:
    """Valid-mode 1-D cross-correlation of B sequences with C kernels.

    x: (B, d) single-channel sequences, w: (C, k) kernels.  Output is
    (B, C, d-k+1); out[b, c, l] = sum_j w[c, j] * x[b, l + j].
    """
    x, w = as_node(x), as_node(w)
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise GraphError("conv1d_valid expects rank-2 input and kernels")
    _, d = x.value.shape
    _, k = w.value.shape
    length = d - k + 1
    if length <= 0:
        raise GraphError(f"kernel length {k} exceeds sequence length {d}")
    windows = np.lib.stride_tricks.sliding_window_view(x.value, k, axis=1)  # (B, L, k)
    val = np.einsum("blk,ck->bcl", windows, w.value)

    def vjp(g):
        dw = np.einsum("bcl,blk->ck", g, windows) if w.needs else None
        if not x.needs:
            return None, dw
        spread = np.einsum("bcl,cj->blj", g, w.value)  # (B, L, k)
        dx = np.zeros_like(x.value)
        for j in range(k):
            dx[:, j : j + length] += spread[:, :, j]
        return dx, dw

    return Node(val, (x, w), "conv1d_valid", vjp)


def softmax(a) -> Node:
    """Softmax over the last axis, computed with a max shift for stability."""
    a = as_node(a)
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner) * y,)

    return Node(y, (a,), "softmax", vjp)


def pearson_corr(x, y) -> Node:
    """Pearson correlation of two equal-length rank-1 nodes.

    If either series has population variance below `VARIANCE_GUARD` the
    result is the constant 0 with zero gradient (and the node is marked
    `tie` so `grad_check` refuses the point).
    """
    x, y = as_node(x), as_node(y)
    if x.value.ndim != 1 or y.value.ndim != 1 or x.value.shape != y.value.shape:
        raise GraphError("pearson_corr expects two rank-1 nodes of equal length")
    n = x.value.size
    if n < 2:
        raise GraphError("pearson_corr needs at least two samples")
    xc = x.value - x.value.mean()
    yc = y.value - y.value.mean()
    sx2 = float(xc @ xc)
    sy2 = float(yc @ yc)
    if sx2 / n < VARIANCE_GUARD or sy2 / n < VARIANCE_GUARD:
        def vjp_zero(g):
            return np.zeros_like(x.value), np.zeros_like(y.value)

        return Node(0.0, (x, y), "pearson_corr", vjp_zero, tie=True)
    sx = np.sqrt(sx2)
    sy = np.sqrt(sy2)
    r = float(xc @ yc) / (sx * sy)

    def vjp(g):
        gx = g * (yc / (sx * sy) - r * xc / sx2)
        gy = g * (xc / (sx * sy) - r * yc / sy2)
        return gx, gy

    return Node(r, (x, y), "pearson_corr", vjp)


def vector_max(a) -> Node:
    """Maximum of a rank-1 node; the gradient routes entirely to the argmax.

    Ties resolve to the lowest index and mark the node `tie`.
    """
    a = as_node(a)
    if a.value.ndim != 1 or a.value.size == 0:
        raise GraphError("vector_max expects a non-empty rank-1 node")
    i = int(np.argmax(a.value))
    tie = int(np.count_nonzero(a.value == a.value[i])) > 1

    def vjp(g):
        out = np.zeros_like(a.value)
        out[i] = g
        return (out,)

    return Node(a.value[i], (a,), "vector_max", vjp, tie=tie)


def lstm_cell(x, h, c, w_x, w_h, b) -> tuple[Node, Node]:
    """One LSTM step: a single node valued [h_new, c_new], returned as two slices.

    Gate layout along the 4H axis is (input, forget, cell, output); the
    forget gate therefore lives in rows [H, 2H) of the weights and bias.
    The forward pass and the vector-Jacobian rule make the same float
    operations, in the same order, as the cell composed from `matmul`,
    `transpose`, `add`, `slice_last`, `sigmoid`, `tanh` and `mul`, so the
    values and gradients are bit-identical to that graph's.
    """
    x, h, c, w_x, w_h, b = (as_node(n) for n in (x, h, c, w_x, w_h, b))
    hidden = h.value.shape[1]
    _matmul_shapes(x.value, w_x.value.T)
    _matmul_shapes(h.value, w_h.value.T)
    pre = x.value @ w_x.value.T + h.value @ w_h.value.T + b.value
    if pre.shape[-1] != 4 * hidden:
        raise GraphError(f"lstm_cell expects {4 * hidden} gate rows, got {pre.shape[-1]}")
    if not np.isfinite(pre).all():  # the gates would saturate an overflow away
        raise NonFiniteError("lstm_cell")
    gates = [pre[..., k * hidden : (k + 1) * hidden] for k in range(4)]
    gi, gf, go = _sigmoid(gates[0]), _sigmoid(gates[1]), _sigmoid(gates[3])
    gc = np.tanh(gates[2])
    c_new = gf * c.value + gi * gc
    tc = np.tanh(c_new)

    def vjp(g):
        dh, dc_out = g[..., :hidden], g[..., hidden:]
        dc_new = dc_out + (dh * go) * (1.0 - tc * tc)
        dpre = np.zeros_like(pre)  # += on zeros, as the four slice rules accumulate
        dpre[..., :hidden] += (dc_new * gc * gi) * (1.0 - gi)
        dpre[..., hidden : 2 * hidden] += (dc_new * c.value * gf) * (1.0 - gf)
        dpre[..., 2 * hidden : 3 * hidden] += dc_new * gi * (1.0 - gc * gc)
        dpre[..., 3 * hidden :] += (dh * tc * go) * (1.0 - go)
        return (
            dpre @ w_x.value if x.needs else None,
            dpre @ w_h.value if h.needs else None,
            dc_new * gf if c.needs else None,
            (x.value.T @ dpre).T if w_x.needs else None,
            (h.value.T @ dpre).T if w_h.needs else None,
            _unbroadcast(dpre, b.value.shape) if b.needs else None,
        )

    value = np.concatenate([go * tc, c_new], axis=-1)
    cell = Node(value, (x, h, c, w_x, w_h, b), "lstm_cell", vjp)
    return slice_last(cell, 0, hidden), slice_last(cell, hidden, 2 * hidden)


def _topological(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Accumulate gradients of a scalar root into every node that needs one.

    Returns a map from node to gradient: the root and each node with
    `needs` that the root depends on.  Leaves read their own `.grad`.
    """
    if root.value.shape != ():
        raise GraphError("backward requires a scalar root")
    order = _topological(root)
    root.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._vjp is None or not node.needs or node.grad is None:
            continue
        for parent, g in zip(node.parents, node._vjp(node.grad)):
            if parent.needs:
                parent.grad = g if parent.grad is None else parent.grad + g
    return {n: n.grad for n in order if n.grad is not None}


def grad_check(f: Callable[[Node], Node], point, step: float = 1e-6) -> float:
    """Compare the reverse-mode gradient of `f` against central differences.

    `f` maps one leaf node to a scalar node.  Returns the maximum over
    coordinates of |analytic - numeric| / max(1, |analytic|).  Points where
    the graph contains a tied max or a guarded correlation are rejected.
    """
    point = np.asarray(point, dtype=np.float64)
    leaf = Node(point.copy(), op="point")
    root = f(leaf)
    if root.value.shape != ():
        raise GraphError("grad_check requires a scalar-valued graph")
    for node in _topological(root):
        if node.tie:
            raise GradCheckError(
                f"non-differentiable point: tie or guard in primitive '{node.op}'"
            )
    backward(root)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(point)
    analytic = np.asarray(analytic, dtype=np.float64)

    numeric = np.zeros_like(point)
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = point.copy()
        plus[idx] += step
        minus = point.copy()
        minus[idx] -= step
        f_plus = float(f(Node(plus, op="point")).value)
        f_minus = float(f(Node(minus, op="point")).value)
        numeric[idx] = (f_plus - f_minus) / (2.0 * step)
        it.iternext()

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max()) if rel.size else 0.0
