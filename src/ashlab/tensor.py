"""Dense float64 tensors with deterministic kernels and a seeded RNG.

Tensors are immutable, row-major, rank <= 4, and hold only finite
values. Kernels are pure functions of their inputs: every mean and
variance in ashlab comes from one grouped two-pass kernel (`moments`)
and matmul accumulates in a fixed left-to-right order, so every result
is bitwise reproducible.

Matmul order contract: every output element is
((((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...) + a[i,k-1]*b[k-1,j]),
exactly the order of a naive triple loop, for every shape. Two kernels
keep it:
  * small products are laid out as a (k+1, m, n) buffer whose slot 0
    holds 0.0 and summed by one numpy reduction over the leading axis,
    which numpy walks slot by slot. Slot 0 fixes the start at +0.0 on
    every numpy version; a reduction seeded with its first element would
    leave a sum of -0.0 products at -0.0.
  * large buffers and m*n == 1 use a Python loop of rank-1 updates. For
    large buffers the loop is the faster kernel. For m*n == 1 the
    reduced axis is the only axis left, and numpy sums a lone contiguous
    axis pairwise, which reorders the additions (k = 9 or 128 already
    gives different bits).
BLAS is never used because it reorders the accumulation too.
"""

from __future__ import annotations

import numpy as np

from . import _normal

MAX_RANK = 4

_EWISE = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
          "max": np.maximum}
EWISE_OPS = tuple(_EWISE)
REDUCE_OPS = ("mean", "var_pop", "min", "max", "sum")


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(ValueError):
    """A Tensor would hold NaN or Inf: the one finiteness check."""


def check_shape(dims) -> tuple[int, ...]:
    """Validate and normalize tensor dims (rank <= 4, extents >= 1)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) > MAX_RANK:
        raise ShapeError(f"rank {len(dims)} exceeds maximum rank {MAX_RANK}")
    if any(d < 1 for d in dims):
        raise ShapeError(f"every extent must be >= 1, got {dims}")
    return dims


class Tensor:
    """Immutable dense array of float64 in row-major (C) order."""

    __slots__ = ("_data",)

    def __init__(self, data, shape=None):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if shape is not None:
            arr = arr.reshape(check_shape(shape))
        else:
            check_shape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor values must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for kernel-owned arrays: skips the defensive
        # copy but keeps the finiteness and shape invariants.
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if arr.ndim > MAX_RANK or arr.size == 0:
            check_shape(arr.shape)  # raises the matching ShapeError
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor values must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out._data = arr
        return out

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the buffer."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self._data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, shape {self.shape}")
        return float(self._data.reshape(-1)[0])

    def reshape(self, shape) -> "Tensor":
        return Tensor._wrap(self._data.reshape(check_shape(shape)))

    def tolist(self):
        return self._data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self._data!r})"


def _views(flat: np.ndarray, parts) -> list[Tensor]:
    """Read-only Tensors of flat[sl].reshape(shape), one per (sl, shape) in
    `parts`: the vector is checked finite once and no view is rescanned."""
    if not np.isfinite(flat).all():
        raise NonFiniteError("tensor values must be finite (no NaN/Inf)")
    flat.setflags(write=False)
    views = []
    for sl, shape in parts:
        view = Tensor.__new__(Tensor)
        view._data = flat[sl].reshape(shape)
        views.append(view)
    return views


# ---------------------------------------------------------------------------
# Seeded counter-based RNG (splitmix64 stream).
# ---------------------------------------------------------------------------

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


class RngState:
    """Deterministic counter-based generator: (seed, counter) -> stream.

    Draw i of stream `seed` is splitmix64(seed + (counter+i+1)*golden),
    so identical (seed, counter) pairs always reproduce the same values,
    independent of how earlier draws were batched.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = int(counter)

    def clone(self) -> "RngState":
        return RngState(self.seed, self.counter)

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. draws from the open interval (0, 1); advances counter."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            bits = _mix64(_U64(self.seed) + _GOLDEN * idx)
        return ((bits >> _U64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    def normal(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        # Scaled in place: mean + std*z in the same two roundings, without
        # two more n-sized temporaries.
        z = _normal.norm_ppf(self.uniform(n))
        z *= std
        z += mean
        return z

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")


# ---------------------------------------------------------------------------
# Construction kernels.
# ---------------------------------------------------------------------------

def full(shape, value: float) -> Tensor:
    """Tensor of the given shape with every element equal to value."""
    return Tensor._wrap(np.full(check_shape(shape), float(value)))


def randn(shape, rng: RngState, mean: float = 0.0, std: float = 1.0) -> Tensor:
    """I.i.d. N(mean, std^2) draws via the inverse-CDF transform."""
    dims = check_shape(shape)
    n = int(np.prod(dims)) if dims else 1
    return Tensor._wrap(rng.normal(n, mean, std).reshape(dims))


# ---------------------------------------------------------------------------
# Elementwise and matmul kernels.
# ---------------------------------------------------------------------------

def _ewise_operands(a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(
        f"ewise operands must match or one must be scalar, got {a.shape} vs {b.shape}"
    )


def ewise(op: str, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise {add, sub, mul, div, max}; only scalar broadcast."""
    _ewise_operands(a, b)
    if op not in _EWISE:
        raise ValueError(f"unknown ewise op {op!r}; expected one of {EWISE_OPS}")
    if op == "div" and np.any(b.data == 0.0):
        raise ZeroDivisionError("elementwise division by zero")
    # Overflow to inf is caught by the output tensor's finiteness check,
    # so the intermediate warning is just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        return Tensor._wrap(_EWISE[op](a.data, b.data))


# Above this many buffer elements (1 MiB) the rank-1 loop beats the
# (k+1, m, n) reduction, whose buffer no longer fits in cache.
_REDUCE_MAX_ELEMS = 1 << 17


def _matmul_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Both branches add a[i,k]*b[k,j] onto 0.0 in increasing k; see the
    # order contract in the module docstring.
    m, k = a.shape
    _, n = b.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if m * n == 1 or (k + 1) * m * n > _REDUCE_MAX_ELEMS:
            out = np.zeros((m, n), dtype=np.float64)
            for kk in range(k):
                out += a[:, kk : kk + 1] * b[kk : kk + 1, :]
            return out
        buf = np.empty((k + 1, m, n), dtype=np.float64)
        buf[0] = 0.0
        # einsum forms the products faster than a broadcast multiply. It may
        # store a -0.0 product as +0.0, which moves no output bit: each sum
        # starts from slot 0's +0.0 and so is never -0.0.
        np.einsum("ik,kj->kij", a, b, out=buf[1:])
        return np.add.reduce(buf, axis=0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with deterministic left-to-right accumulation."""
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return Tensor._wrap(_matmul_arrays(a.data, b.data))


# ---------------------------------------------------------------------------
# Reductions: the one mean/variance kernel plus min/max/sum.
# ---------------------------------------------------------------------------

def moments(data: np.ndarray, axes=None):
    """Grouped two-pass statistics: (n, mu, data - mu, m2 = sum((data - mu)^2)).

    Groups reduce over `axes` (None: all), kept with extent 1. The fixed
    order mu = sum(data) / n (what data.mean(axes) computes), data - mu,
    sum of squares makes m2 / n equal np.mean(centered**2, axes) bit for
    bit; the sums call np.add.reduce directly. A constant group gets its
    exact value as mu and 0 as centered and m2: for any summation order
    its rounded m2 is below 2n(n*eps*mu)^2, and only groups under that
    bound pay for the min == max test. Overflow warns nothing: it stays in
    the result as inf or NaN, for the caller's finiteness check to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.add.reduce(data, axis=axes, keepdims=True)
        n = data.size // mu.size
        mu /= n
        centered = data - mu
        m2 = np.add.reduce(centered * centered, axis=axes, keepdims=True)
        suspect = m2 <= np.square((2.0 * n) ** 0.5 * n * 2.0**-52 * mu)
    if suspect.any():
        lo = data.min(axis=axes, keepdims=True)
        const = suspect & (lo == data.max(axis=axes, keepdims=True))
        if const.any():
            mu = np.where(const, lo, mu)
            centered = np.where(const, 0.0, centered)
            m2 = np.where(const, 0.0, m2)
    return n, mu, centered, m2


def welford(values: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, M2 = sum((x - mean)^2)) of all elements, from `moments`.

    Named for the single-pass Welford recurrence it once ran; callers and
    the benchmark tracer still find the whole-array statistics here.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        raise ValueError("welford needs at least one element")
    n, mu, _, m2 = moments(flat)
    return n, float(mu[0]), float(m2[0])


def reduce(op: str, x: Tensor) -> float:
    """Full reduction to a float: mean, var_pop (divide by N), min, max, sum."""
    if op == "mean":
        return welford(x.data)[1]
    if op == "var_pop":
        n, _, m2 = welford(x.data)
        return m2 / n
    if op == "min":
        return float(np.min(x.data))
    if op == "max":
        return float(np.max(x.data))
    if op == "sum":
        return float(np.sum(x.data))
    raise ValueError(f"unknown reduce op {op!r}; expected one of {REDUCE_OPS}")
