"""Reverse-mode automatic differentiation over dense tensors.

Define-by-run: every forward pass records primitive applications on a
Tape in topological order; backward replays the tape in exact reverse
recording order and accumulates vector-Jacobian products additively
into each Variable's grad. An independent central-difference checker
(fd_check) is the oracle for every backward rule.

The Tape holds node ids, VJPs closing over arrays, and the grads, but no
Variable, so a graph is freed by reference counting with its last
Variable instead of waiting for the cyclic garbage collector.

An operand is a Variable or a constant: a Tensor, an array or a number
(a number is a rank-0 Tensor, so it broadcasts without adding an axis).
`value` reads either as a Tensor. A primitive computes its forward from
the values and hands it to `emit`, which records it on the tape of the
first Variable among its inputs; with no Variable it records nothing and
returns the forward Tensor, so one code path serves a taped and a
forward-only call.

The record contract: each tape entry holds one VJP for the whole
primitive, `vjp(g, needs) -> tuple` aligned with its inputs. Slot i is
the grad of inputs[i], reduced to its shape, and is read only where
needs[i] (that input is a Variable that needs a grad), so a VJP forms
shared intermediates once and skips what no input needs; None blocks the
gradient. A constant input has needs False and no node id. An
application no input of which needs a grad records no entry. A VJP never
writes into its `g`: the tape keeps that array as the output's grad.

Grads are stored as raw sums. The 0.0 a first contribution lands on (so
a -0.0 reads as +0.0) is added on read, by `Variable.grad` and once over
the grad vector in `nn.train`; (0.0 + a) + b == 0.0 + (a + b) for all floats.

Conventions:
  * only scalar (single-element) broadcast in binary ops; the gradient
    for a broadcast scalar operand is the sum over the output,
  * at non-differentiable points the left-continuous subgradient is
    used (ties in `maximum` send the gradient to the second operand,
    so maximum(x, 0) has zero slope at x = 0),
  * replaying backward twice without a grad reset doubles every grad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _normal, tensor
from .tensor import Tensor, check_number


class TapeMixError(ValueError):
    """An operation mixed Variables registered on different Tapes."""


class Variable:
    """Autodiff node: a value Tensor; its accumulated gradient lives on the tape."""

    __slots__ = ("value", "tape", "node_id", "requires_grad", "name")

    def __init__(self, value: Tensor, tape: "Tape", requires_grad: bool,
                 name: str | None = None):
        self.value = value
        self.tape = tape
        self.node_id = tape._next_id  # ids count up in creation order
        tape._next_id += 1
        self.requires_grad = requires_grad
        self.name = name

    @property
    def grad(self) -> Tensor:
        """Accumulated gradient, checked when read; zeros until one arrives."""
        return Tensor._wrap(0.0 + self._grad_array())

    def _grad_array(self) -> np.ndarray:
        grad = self.tape._grads.get(self.node_id)
        return np.zeros(self.value.shape) if grad is None else grad

    def zero_grad(self) -> None:
        self.tape._grads.pop(self.node_id, None)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Variable(#{self.node_id}{tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        # (output node id, input node ids, which inputs need a grad, VJP) in order
        self._entries: list[tuple[int, list[int | None], list[bool], object]] = []
        self._grads: dict[int, np.ndarray] = {}  # node id -> raw grad, checked on read
        self._next_id = 0

    def variable(self, value, requires_grad: bool = False, name: str | None = None) -> Variable:
        value = value if isinstance(value, Tensor) else Tensor(value)
        return Variable(value, self, requires_grad, name)

    def __len__(self) -> int:
        return len(self._entries)

    def _accumulate(self, node_id: int, g: np.ndarray) -> None:
        # Kept as is, not copied: the 0.0 a first g lands on is added on read.
        grad = self._grads.get(node_id)
        self._grads[node_id] = g if grad is None else grad + g


def value(v) -> Tensor:
    """A Variable's Tensor, or a constant operand as a Tensor (a number as rank 0)."""
    if isinstance(v, Variable):
        return v.value
    if isinstance(v, Tensor):
        return v
    if isinstance(v, float) and math.isfinite(v):
        # The common constant, checked by isfinite instead of Tensor()'s copy
        # and array scan: 2.7 against 12 µs a call on a 2-core x86-64 host.
        return Tensor._wrap(np.array(v), finite=True)
    return Tensor(v)


def record(tape: Tape, op: str, inputs: tuple, forward: Tensor, vjp) -> Variable:
    """Append one primitive application; returns the output Variable.

    `inputs` are Variables on `tape`, constants and None (an absent
    operand). `vjp(g, needs)` follows the module's record contract; it is
    kept only when some input needs a grad.
    """
    ids, needs = [], []
    for v in inputs:
        if isinstance(v, Variable):
            if v.tape is not tape:
                raise TapeMixError(f"op {op!r} mixes Variables from different tapes")
            ids.append(v.node_id)
            needs.append(v.requires_grad)
        else:
            ids.append(None)
            needs.append(False)
    requires = True in needs
    out = Variable(forward, tape, requires, op)
    if requires:
        tape._entries.append((out.node_id, ids, needs, vjp))
    return out


def emit(op: str, inputs: tuple, forward: Tensor, vjp) -> Variable | Tensor:
    """`record` on the tape of the first Variable among `inputs`; with
    none, `forward` itself, and nothing is recorded."""
    for v in inputs:
        if isinstance(v, Variable):
            return record(v.tape, op, inputs, forward, vjp)
    return forward


def backward(loss: Variable | Tensor) -> None:
    """Accumulate d(loss)/d(var) into every requires-grad Variable's grad; a
    constant loss reaches none. Overflow warns nothing: grads are checked on read."""
    lv = value(loss)
    if lv.size != 1:
        raise ValueError(f"loss must be scalar, got shape {lv.shape}")
    if not isinstance(loss, Variable):
        return
    tape = loss.tape
    accumulate = tape._accumulate
    adjoint: dict[int, np.ndarray] = {loss.node_id: np.ones(lv.shape)}
    with np.errstate(over="ignore", invalid="ignore"):
        for out, ids, needs, vjp in reversed(tape._entries):
            g = adjoint.pop(out, None)
            if g is None:
                continue
            accumulate(out, g)  # a recorded output always requires grad
            for nid, need, contrib in zip(ids, needs, vjp(g, needs)):
                if need and contrib is not None:
                    prev = adjoint.get(nid)
                    adjoint[nid] = contrib if prev is None else prev + contrib
        # Whatever remains belongs to leaves (Variables no entry produced).
        for nid, g in adjoint.items():
            if nid != loss.node_id or loss.requires_grad:
                accumulate(nid, g)


# ---------------------------------------------------------------------------
# Broadcast helper.
# ---------------------------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        # Only scalar broadcast exists, so the adjoint is the total sum.
        return np.asarray(g, dtype=np.float64).sum().reshape(shape)
    raise tensor.ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")


# ---------------------------------------------------------------------------
# Primitive operations.
# ---------------------------------------------------------------------------

def _binary(op: str, a, b, grad_a, grad_b, name: str | None = None) -> Variable | Tensor:
    """Emit `tensor.ewise(op, a, b)` as `name` (default op); grad_a(g, x, y)
    and grad_b(g, x, y) are the grads of a and b (values x, y) unreduced."""
    av, bv = value(a), value(b)
    out = tensor.ewise(op, av, bv)
    x, y = av.data, bv.data
    return emit(name or op, (a, b), out, lambda g, needs: (
        needs[0] and _unbroadcast(grad_a(g, x, y), x.shape),
        needs[1] and _unbroadcast(grad_b(g, x, y), y.shape)))


def add(a, b) -> Variable | Tensor:
    return _binary("add", a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Variable | Tensor:
    return _binary("sub", a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Variable | Tensor:
    return _binary("mul", a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def maximum(a, b) -> Variable | Tensor:
    """Elementwise max; ties route the gradient to the second operand."""
    return _binary("max", a, b, lambda g, x, y: g * (x > y), lambda g, x, y: g * ~(x > y),
                   "maximum")


def exp(a) -> Variable | Tensor:
    with np.errstate(over="ignore"):
        out = Tensor._wrap(np.exp(value(a).data))  # overflow -> finiteness error
    od = out.data
    return emit("exp", (a,), out, lambda g, needs: (g * od,))


def stable_sigmoid(u: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Logistic max(u >= 0, t) / (1 + t), t = exp(-|u|), into `out` (which may be u).

    Bit for bit np.where(u >= 0, 1/(1+t), t/(1+t)), with one exp and no
    branches: the numerator, taken before t += 1, is 1 for u >= 0 (t <= 1)
    and t for u < 0. -|u| is min(u, -u), which keeps a NaN u's payload and
    sign (abs then negative flips a positive NaN's). t goes in `scratch`
    (distinct from u and out) or in an array the call allocates. Both are
    arrays even for a rank-0 u, for which a ufunc returns a numpy scalar.
    """
    t = np.negative(u, out=np.empty_like(u) if scratch is None else scratch)
    np.minimum(u, t, out=t)
    np.exp(t, out=t)
    s = np.greater_equal(u, 0.0, out=np.empty_like(u) if out is None else out)
    np.maximum(s, t, out=s)
    t += 1.0
    s /= t
    return s


def sigmoid(a) -> Variable | Tensor:
    """Logistic 1/(1+e^-x), overflow-free for the whole float64 range."""
    s = stable_sigmoid(value(a).data)
    return emit("sigmoid", (a,), Tensor._wrap(s), lambda g, needs: (g * s * (1.0 - s),))


def softplus(a) -> Variable | Tensor:
    """ln(1+e^x) in the overflow-free max(x,0)+log1p(e^-|x|) form."""
    x = value(a).data
    out = Tensor._wrap(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    s = stable_sigmoid(x)
    return emit("softplus", (a,), out, lambda g, needs: (g * s,))


def gauss_cdf(a) -> Variable | Tensor:
    """Standard normal CDF, with the density as its derivative."""
    x = value(a).data
    out = Tensor._wrap(_normal.norm_cdf(x))
    return emit("gauss_cdf", (a,), out, lambda g, needs: (g * _normal.norm_pdf(x),))


def heaviside(a) -> Variable | Tensor:
    """Unit step: 1 for x > 0, 0 for x <= 0. Blocks all gradient flow."""
    out = Tensor._wrap((value(a).data > 0.0).astype(np.float64))
    return emit("heaviside", (a,), out, lambda g, needs: (None,))


def sum_all(a) -> Variable | Tensor:
    av = value(a)
    out = Tensor._wrap(np.array([np.sum(av.data)]))
    shape = av.shape
    return emit("sum", (a,), out,
                lambda g, needs: (np.broadcast_to(g.reshape(-1)[0], shape),))


def mean_all(a) -> Variable | Tensor:
    av = value(a)
    n = av.size
    out = Tensor._wrap(np.array([np.sum(av.data) / n]))
    shape = av.shape
    return emit("mean", (a,), out,
                lambda g, needs: (np.broadcast_to(g.reshape(-1)[0] / n, shape),))


def matmul(a, b, bias=None) -> Variable | Tensor:
    """a @ b, plus `bias` (n,) on every row of the (m, n) product, as one entry;
    g @ b.T and a.T @ g run in the ordered kernel (which makes its operands
    C-contiguous), the bias grad is g summed down axis 0."""
    av, bv = value(a), value(b)
    out = tensor.matmul(av, bv, None if bias is None else value(bias))
    ad, bd = av.data, bv.data
    return emit("matmul", (a, b, bias), out, lambda g, needs: (
        needs[0] and tensor._matmul_arrays(g, bd.T),
        needs[1] and tensor._matmul_arrays(ad.T, g),
        needs[2] and np.add.reduce(g, axis=0)))


def reshape(a, shape) -> Variable | Tensor:
    av = value(a)
    out = av.reshape(shape)
    old = av.shape
    return emit("reshape", (a,), out, lambda g, needs: (g.reshape(old),))


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle.
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: np.ndarray
    numeric: np.ndarray


def _eval_scalar(f, arr: np.ndarray) -> float:
    # f's output is a Tensor, so a non-finite f has raised NonFiniteError already.
    return f(Tape().variable(Tensor(arr))).value.item()


def fd_check(f, x, h: float = 1e-6) -> GradCheckReport:
    """Compare reverse-mode gradients of a scalar function to central
    differences (f(x+h*e_i) - f(x-h*e_i)) / 2h, coordinate by coordinate.

    `f` takes a Variable and must build its whole graph on that
    Variable's tape. Relative error uses max(|analytic|, |numeric|,
    1e-8) as the denominator.
    """
    h = check_number("h", h, gt=0)
    x = x if isinstance(x, Tensor) else Tensor(x)
    t = Tape()
    xv = t.variable(x, requires_grad=True)
    out = f(xv)
    if out.value.size != 1:
        raise ValueError("fd_check needs a scalar-valued function")
    backward(out)
    analytic = np.array(xv.grad.data)

    base = np.array(x.data)
    numeric = np.zeros_like(base)
    flat_num = numeric.reshape(-1)
    for i in range(base.size):
        pert = base.copy()
        pert.reshape(-1)[i] += h
        fp = _eval_scalar(f, pert)
        pert.reshape(-1)[i] -= 2.0 * h
        fm = _eval_scalar(f, pert)
        flat_num[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradCheckReport(
        max_rel_err=float(rel.reshape(-1)[worst]),
        worst_index=np.unravel_index(worst, base.shape),
        analytic=analytic,
        numeric=numeric,
    )
