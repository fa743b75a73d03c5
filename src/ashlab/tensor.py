"""Dense float64 tensors with deterministic kernels and a seeded RNG.

Tensors are immutable, row-major, rank <= 4, and hold only finite
values. Kernels are pure functions of their inputs: every mean and
variance in ashlab comes from one grouped two-pass kernel (`moments`)
and matmul accumulates in a fixed left-to-right order, so every result
is bitwise reproducible.

The RNG is a counter-based splitmix64 stream: a draw depends only on
(seed, counter), so `RngState` draws in one walk over blocks of
_BLOCK_ELEMS counters, each converted straight into its slice of the
output (normals through `_normal._ppf_block`), with the same bits for
any blocking.

Matmul order contract: every output element is
((((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...) + a[i,k-1]*b[k-1,j]),
each product rounded before it is added, exactly the order of a naive
triple loop, for every shape. The kernel is numpy's einsum "ik,kj->ij"
without `optimize` (which could hand it to BLAS), in one C call:
  * einsum zero-fills the output. With both operands C-contiguous and
    n >= 2, j is the innermost loop (stride 8 in b and in the output), so
    the inner loop is out[i, :] = a[i, k]*b[k, :] + out[i, :], run for k
    ascending: the contract's order, with no product buffer.
  * n == 1 would make k the inner loop, which einsum sums with several
    accumulators, so (5, 300, 1) already gets different bits. Such a
    product runs as (b.T @ a.T).T: multiplication commutes exactly, so
    every element has the same products in the same order. Narrow, tall
    outputs (n <= 4 < m) run the same way, decided from the shapes alone:
    a short inner j loop is slow (21632x9 @ 9x4 took 1.5x as long on a
    2-core x86-64). The result is copied back to C order, which the grads
    summed down axis 0 rely on.
  * m*n == 1 is one np.add.accumulate over [0.0, products], sequential
    by definition.
  * Operands are made C-contiguous first: a Fortran-ordered or
    transposed operand could put k innermost too.
  * On x86-64 wheels einsum's add is unfused (its kernels are built for
    the SSE-only baseline, which has no FMA); aarch64 NEON and
    -march=native builds fuse it. So at import one probe (`_ordered`)
    checks einsum against the rank-1 loop `out += a[:, k:k+1] * b[k]`
    bit for bit, on inputs that a fused add, a reordered sum or a -0.0
    start gets wrong. If they differ, every product runs that loop,
    which is exact on every platform.
BLAS is never used because it fuses and reorders the accumulation.
"""

from __future__ import annotations

import math

import numpy as np

from . import _normal

MAX_RANK = 4
_FLOAT_MAX = float(np.finfo(np.float64).max)
_INTEGERS, _NUMBERS = (int, np.integer), (float, int, np.floating, np.integer)

_EWISE = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
          "max": np.maximum}
EWISE_OPS = tuple(_EWISE)
REDUCE_OPS = ("mean", "var_pop", "min", "max", "sum")


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(ValueError):
    """A Tensor would hold NaN or Inf: the one finiteness check."""


def check_shape(dims) -> tuple[int, ...]:
    """Validate and normalize tensor dims (rank <= 4, integer extents >= 1)."""
    dims = tuple(dims)
    try:
        check_number("rank", len(dims), integer=True, le=MAX_RANK)
        return tuple([check_number("extent", d, integer=True, ge=1) for d in dims])
    except ValueError as exc:
        raise ShapeError(f"{exc} in shape {dims}") from None


def check_number(name: str, value, *, integer=False, gt=None, ge=None, lt=None, le=None) -> float:
    """`value` as an int (`integer`) or a float, after the one range rule of
    every number passed in: a Python or numpy number, not a bool, finite, of
    an integer type where `integer` (2.0 is not), and > gt, >= ge, < lt and
    <= le for each bound given. Else a ValueError naming `name` and the bounds."""
    if (value.__class__ is not bool and isinstance(value, _INTEGERS if integer else _NUMBERS)
            # Finite; an int is compared, as math.isfinite raises past the float range.
            and (integer or (abs(value) <= _FLOAT_MAX if isinstance(value, int)
                             else math.isfinite(value)))
            and (gt is None or value > gt) and (ge is None or value >= ge)
            and (lt is None or value < lt) and (le is None or value <= le)):
        return int(value) if integer else float(value)
    bounds = " and".join(f" {op} {b}" for op, b in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
                         if b is not None)
    raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}{bounds}, "
                     f"got {value!r}")


def _checked(arr: np.ndarray, finite: bool = False) -> np.ndarray:
    """`arr` made read-only, after the one shape and finiteness check of a
    Tensor buffer (the scan skipped when `finite`)."""
    if arr.ndim > MAX_RANK or arr.size == 0:
        check_shape(arr.shape)  # raises the matching ShapeError
    # count_nonzero skips the ufunc reduce's set-up: the check takes 1.2 against
    # 1.9 us on 512 elements, 441 against 426 us on 2^20 (2-core x86-64).
    if not finite and not (np.count_nonzero(np.isfinite(arr)) == arr.size
                           if arr.size <= _WHOLE_ELEMS else _finite_blocks(arr.reshape(-1))):
        raise NonFiniteError("tensor values must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _finite_blocks(flat: np.ndarray) -> bool:
    """Whether every element of `flat` is finite: the scan of arrays above
    _WHOLE_ELEMS, _BLOCK_ELEMS at a time through one block-sized bool."""
    ok = np.empty(min(flat.size, _BLOCK_ELEMS), dtype=bool)
    return all(np.count_nonzero(np.isfinite(b, out=ok[:b.size])) == b.size
               for b, in _row_blocks((flat,)))


class Tensor:
    """Immutable dense array of float64 in row-major (C) order."""

    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = _checked(np.array(data, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _wrap(cls, arr: np.ndarray, finite: bool = False) -> "Tensor":
        # Internal fast path for kernel-owned arrays: skips the defensive
        # copy but keeps the finiteness and shape invariants. asarray, not
        # ascontiguousarray, which would turn a rank-0 array into shape (1,).
        # finite=True skips the scan of views and gathered rows of a Tensor's
        # buffer, which was checked when that Tensor was made.
        out = cls.__new__(cls)
        out._data = _checked(np.asarray(arr, dtype=np.float64, order="C"), finite)
        return out

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "Tensor":
        # For a view, in a valid shape, of a buffer that already holds every
        # invariant: read-only, C-contiguous, float64 and finite.
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


# ---------------------------------------------------------------------------
# Seeded counter-based RNG (splitmix64 stream).
# ---------------------------------------------------------------------------

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def _to_unit(bits: np.ndarray, out: np.ndarray) -> None:
    """(bits + 0.5) * 2^-53 of 53-bit integers, into float64 `out` (which
    may be `bits` itself, viewed as float64). The sum rounds to even, so
    2^53 - 1 would give exactly 1.0: it is clamped to 1 - 2^-53, the
    largest float below 1, and every other draw keeps its bits."""
    np.add(bits, 0.5, out=out)
    out *= 2.0 ** -53
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)


class RngState:
    """Deterministic counter-based generator: (seed, counter) -> stream.

    Draw i of stream `seed` is splitmix64(seed + (counter+i+1)*golden)
    mod 2^64, so identical (seed, counter) pairs always reproduce the same
    values, independent of how earlier draws were batched. A draw depends
    on its counter alone (the counter-based design of Salmon et al., SC
    2011), so every call walks its counters in blocks of _BLOCK_ELEMS:
    two block-sized uint64 scratches hold the counter offsets and the
    hash, which runs in place with the block's output slice as its shift
    scratch, and each block is converted straight into that slice.
    `uniform(2^20)` and `normal(2^20)` so peak at about 1.07 and 1.19
    output sizes.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = check_number("seed", seed, integer=True) & _MASK64
        self.counter = check_number("counter", counter, integer=True)

    def clone(self) -> "RngState":
        return RngState(self.seed, self.counter)

    def _walk(self, n: int, convert) -> np.ndarray:
        """n draws into a new float64 array; advances counter.

        Per block, convert(bits, out) gets the top 53 bits of each draw
        (a uint64 scratch it may overwrite) and the block's output slice.
        """
        out = np.empty(n)
        step = max(1, min(n, _BLOCK_ELEMS))
        ramp = np.arange(step, dtype=np.uint64)
        ramp *= _U64(_GOLDEN)
        z = np.empty_like(ramp)
        for i in range(0, n, step):
            block = out[i:i + step]
            bits, tmp = z[:block.size], block.view(np.uint64)
            # The block's first state, mod 2^64 in Python ints: a numpy
            # scalar product would warn when it wraps.
            base = (self.seed + (self.counter + i + 1) * _GOLDEN) & _MASK64
            np.add(ramp[:block.size], _U64(base), out=bits)
            # splitmix64's finalizer, with the output slice as the shift scratch.
            np.right_shift(bits, 30, out=tmp)
            bits ^= tmp
            bits *= _MIX1
            np.right_shift(bits, 27, out=tmp)
            bits ^= tmp
            bits *= _MIX2
            np.right_shift(bits, 31, out=tmp)
            bits ^= tmp
            bits >>= 11
            convert(bits, block)
        self.counter += n
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. draws from the open interval (0, 1); advances counter."""
        return self._walk(n, _to_unit)

    def normal(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n i.i.d. N(mean, std^2) draws, norm_ppf(uniform(n))*std + mean bit for
        bit; advances counter."""
        mean, std = check_number("mean", mean), check_number("std", std, ge=0)

        def convert(bits, out):
            # The uniforms overwrite their own bits, and the quantile, *std
            # and +mean (the same two roundings) go into the output slice.
            p = bits.view(np.float64)
            _to_unit(bits, p)
            _normal._ppf_block(p, out)
            out *= std
            out += mean

        return self._walk(n, convert)

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


def _einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def _rank1_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for kk in range(a.shape[1]):
        out += a[:, kk:kk + 1] * b[kk]
    return out


def _ordered(kernel) -> bool:
    """Whether kernel(a, b) has the rank-1 loop's bits on a probe that a fused
    add, a reordered sum or a -0.0 start gets wrong. Its 17 columns run both
    a SIMD body and a scalar tail."""
    a = np.zeros((3, 40))
    # 2^23 only in order: each 1.0 added alone to 2^53 is lost, and the last
    # product is -2^53 + 2^23.
    a[0, 0], a[0, 1:-1], a[0, -1] = 2.0**53, 1.0, -2.0**53
    # -1 + (1 - 2^-60) is 0 with the product rounded first, -2^-60 fused.
    a[1, -2:] = -1.0, 1.0 + 2.0**-30
    a[2] = -0.0  # +0.0 only from a 0.0 start
    b = np.ones((40, 17))
    b[-1] = 1.0 - 2.0**-30
    return np.array_equal(kernel(a, b).view(np.uint64), _rank1_loop(a, b).view(np.uint64))


_EINSUM_ORDERED = _ordered(_einsum)


def _matmul_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Every branch adds a[i,k]*b[k,j] onto 0.0 in increasing k; see the
    # order contract in the module docstring.
    m, k = a.shape
    _, n = b.shape
    if m * n == 1:
        terms = np.empty(k + 1, dtype=np.float64)
        terms[0] = 0.0
        np.multiply(a[0], b[:, 0], out=terms[1:])
        return np.add.accumulate(terms)[-1:].reshape(1, 1)
    if n == 1 or n <= 4 < m:
        return np.ascontiguousarray(_matmul_arrays(b.T, a.T).T)
    kernel = _einsum if _EINSUM_ORDERED else _rank1_loop
    return kernel(np.ascontiguousarray(a), np.ascontiguousarray(b))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product with deterministic left-to-right accumulation.

    A `bias` of shape (n,) is added to every row of the (m, n) product
    before the one finiteness check.
    """
    x, y = a._data, b._data
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {x.shape} and {y.shape}")
    if x.shape[1] != y.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {x.shape} x {y.shape}")
    if bias is not None and bias._data.shape != y.shape[1:]:
        raise ShapeError(f"bias must be ({y.shape[1]},), got {bias._data.shape}")
    # Overflow is left to the output's finiteness check to report.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _matmul_arrays(x, y)
        if bias is not None:
            out += bias._data
    return Tensor._wrap(out)


# ---------------------------------------------------------------------------
# Reductions: the one mean/variance kernel plus min/max/sum.
# ---------------------------------------------------------------------------

def moments(data: np.ndarray, axes=None):
    """Grouped two-pass statistics: (n, mu, data - mu, m2 = sum((data - mu)^2)).

    Groups reduce over `axes` (a tuple; None: all), kept with extent 1.
    The fixed order mu = sum(data) / n (what data.mean(axes) computes),
    data - mu, sum of squares makes m2 / n equal np.mean(centered**2, axes)
    bit for bit; the sums call np.add.reduce directly. Above _WHOLE_ELEMS elements
    of C-contiguous input grouped over trailing axes, the squares are
    summed in cache-sized blocks in numpy's own pairwise order
    (`_sum_squares`), so no full-size square is built and no bit moves.
    A constant group gets its exact value as mu and 0 as centered and m2:
    for any summation order its rounded m2 is below 2n(n*eps*mu)^2, and
    only groups under that bound pay for the min == max test. Overflow
    warns nothing: it stays in the result as inf or NaN, for the caller's
    finiteness check to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.add.reduce(data, axis=axes, keepdims=True)
        n = data.size // mu.size
        mu /= n
        centered = data - mu
        if data.size > _WHOLE_ELEMS and data.flags.c_contiguous and (
                axes is None or sorted(a % data.ndim for a in axes)
                == list(range(data.ndim - len(axes), data.ndim))):
            # Over trailing axes each group is one row of this (groups, n) view.
            m2 = _sum_squares(centered.reshape(mu.size, n)).reshape(mu.shape)
        else:
            m2 = np.add.reduce(centered * centered, axis=axes, keepdims=True)
        suspect = m2 <= np.square((2.0 * n) ** 0.5 * n * 2.0**-52 * mu)
    if np.count_nonzero(suspect):
        lo = data.min(axis=axes, keepdims=True)
        const = suspect & (lo == data.max(axis=axes, keepdims=True))
        if const.any():
            mu = np.where(const, lo, mu)
            centered = np.where(const, 0.0, centered)
            m2 = np.where(const, 0.0, m2)
    return n, mu, centered, m2


# The block walk of the elementwise chains (the gates, their VJP, the
# normal kernels). A block of whole rows holds about _BLOCK_ELEMS elements
# (256 KiB), so a chain's temporaries stay in L2 instead of streaming
# whole arrays once per operation. Up to _WHOLE_ELEMS elements (1 MiB an
# array) the walk slowed the gate forward by about 5%, so they run whole.
_BLOCK_ELEMS = 1 << 15
_WHOLE_ELEMS = 1 << 17


def _row_step(lead: np.ndarray, whole_elems: int | None = None) -> int:
    """Rows per block of the walk down axis 0 of `lead`; 0 up to
    `whole_elems` (default _WHOLE_ELEMS) elements, which run as one block."""
    if lead.size <= (_WHOLE_ELEMS if whole_elems is None else whole_elems):
        return 0
    return max(1, _BLOCK_ELEMS * lead.shape[0] // lead.size)


def _row_blocks(arrays: tuple, whole_elems: int | None = None):
    """The blocks, in order, of a walk down axis 0 of arrays[0]: per entry,
    the block's rows of an array with arrays[0]'s rank and row count, else
    the entry as it is (a broadcasting array, or None). Up to `whole_elems`
    (default _WHOLE_ELEMS) elements, the one block is `arrays` itself."""
    lead = arrays[0]
    step = _row_step(lead, whole_elems)
    if not step:
        return (arrays,)
    rows, ndim = lead.shape[0], lead.ndim
    cut = [getattr(a, "ndim", -1) == ndim and a.shape[0] == rows for a in arrays]
    return [tuple(a[i:i + step] if c else a for a, c in zip(arrays, cut))
            for i in range(0, rows, step)]


class _TreeSum:
    """np.add.reduce of a run of `length` values, bit for bit, taken in order
    block by block (`add`) and holding at most one leaf of them.

    numpy sums a contiguous run pairwise: a run of more than 128 elements
    is cut at n//2 rounded down to a multiple of 8, and the two halves'
    sums are added. Every node of that tree is a run numpy sums the same
    way on its own. So the run is cut as numpy cuts it, down to `leaves` of
    at most _BLOCK_ELEMS elements. A leaf is reduced whole as soon as its
    values are in: from the block that holds all of it, else from the one
    leaf buffer its pieces are copied into. Its sum goes on a stack, and
    each node the leaf ends adds its two children's sums there (left +
    right), so the stack's one entry at the end is the sum of the run.
    """

    __slots__ = ("_leaf", "_length", "leaves", "_merges", "_done", "_sums", "_part", "_fill")

    def __init__(self, length: int):
        # numpy sums a run of up to 128 elements without cutting it, so no
        # leaf may be shorter.
        self._leaf = max(_BLOCK_ELEMS, 128)
        self._length = length
        self.leaves, self._merges = [], []  # per leaf, the number of tree nodes it ends
        self._cut(0, length)
        self._done, self._sums, self._part, self._fill = 0, [], None, 0

    def _cut(self, a: int, b: int) -> None:
        """Append the leaves of run [a, b), cut as numpy sums it."""
        if b - a <= self._leaf:
            self.leaves.append((a, b))
            self._merges.append(0)
            return
        half = (b - a) // 2
        half -= half % 8
        self._cut(a, a + half)
        self._cut(a + half, b)
        self._merges[-1] += 1

    def add(self, values: np.ndarray) -> None:
        """Take the next values.size values of the run, a C-contiguous array."""
        values, i = values.reshape(-1), 0
        while i < values.size:
            a, b = self.leaves[self._done]
            take = min(b - a - self._fill, values.size - i)
            piece = values[i:i + take]
            i += take
            if take < b - a:  # the leaf spans blocks: gather it in the buffer
                if self._part is None:
                    self._part = np.empty(min(self._length, self._leaf))
                self._part[self._fill:self._fill + take] = piece
                self._fill += take
                if self._fill < b - a:
                    continue
                piece, self._fill = self._part[:b - a], 0
            total = np.add.reduce(piece)
            for _ in range(self._merges[self._done]):
                total = self._sums.pop() + total
            self._sums.append(total)
            self._done += 1

    def total(self) -> float:
        """The sum of the whole run, once every value was added."""
        return self._sums[0]


def _sum_squares(groups: np.ndarray) -> np.ndarray:
    """np.add.reduce(groups * groups, axis=1) of a C-contiguous (G, L) array,
    bit for bit, squared into one scratch of one leaf (_BLOCK_ELEMS).

    Rows of up to one leaf are reduced whole, in blocks of rows; a longer
    row goes leaf by leaf through a `_TreeSum`.
    """
    leaf = max(_BLOCK_ELEMS, 128)
    rows, length = groups.shape
    sq = np.empty(min(groups.size, leaf))
    out = np.empty(rows)
    if length <= leaf:
        step = leaf // length
        for i in range(0, rows, step):
            block = groups[i:i + step]
            square = np.multiply(block, block, out=sq[:block.size].reshape(block.shape))
            np.add.reduce(square, axis=1, out=out[i:i + step])
        return out
    for g, run in enumerate(groups):
        tree = _TreeSum(length)
        for a, b in tree.leaves:
            tree.add(np.multiply(run[a:b], run[a:b], out=sq[:b - a]))
        out[g] = tree.total()
    return out


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
