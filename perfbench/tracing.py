"""Spans and counters around ashlab's public entry points, kept in memory.

The tracer replaces a function where its callers look it up (a module
attribute or a class attribute) with a wrapper that times the call and
restores the original on `uninstall`. A span's self time is its duration
minus the time of the spans that ran inside it. Nothing inside ashlab is
changed; in-program spans are a later step.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field


@dataclass
class Acc:
    """Totals for one span or counter name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    elems: int = 0
    flop: int = 0
    bytes: int = 0
    distinct: set = field(default_factory=set)


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0


class Tracer:
    """Wraps entry points; `acc(name)` holds what was recorded under a name."""

    def __init__(self):
        self.accs: dict[str, Acc] = {}
        self.stack: list[_Frame] = []
        self.steps = 0
        self.in_step = False
        self._patches: list[tuple[object, str, object]] = []

    def acc(self, name: str) -> Acc:
        a = self.accs.get(name)
        if a is None:
            a = self.accs[name] = Acc()
        return a

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self.stack)

    def span(self, owners, attr: str, name: str, count=None, before=None) -> None:
        """Time every call of `attr` on each owner under one span `name`.

        `before(args, kwargs)` runs before the call and `count(acc, args,
        kwargs, result)` after a call that returned.
        """
        owners = owners if isinstance(owners, (list, tuple)) else [owners]
        original = owners[0].__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = _Frame(name)
            tracer.stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1].child_ns += dur
                a = tracer.acc(name)
                a.calls += 1
                a.total_ns += dur
                a.self_ns += dur - frame.child_ns
            if count is not None:
                count(a, args, kwargs, result)
            return result

        for owner in owners:
            self._install(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str, when) -> None:
        """Count calls of `attr` for which `when()` is true; no timing."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if when():
                tracer.acc(name).calls += 1
            return original(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def _install(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(ashlab) -> Tracer:
    """Wrap the entry points of every ashlab layer; returns the live tracer.

    `ashlab` is a namespace holding the imported modules: tensor, stats,
    autodiff, activations, nn, datasets, compare and journal.
    """
    t = Tracer()
    tensor, stats, autodiff = ashlab.tensor, ashlab.stats, ashlab.autodiff
    act, nn, datasets, journal = ashlab.activations, ashlab.nn, ashlab.datasets, ashlab.journal

    def matmul_count(a, args, kwargs, result):
        m, k = args[0].shape
        n = args[1].shape[1]
        a.flop += 2 * m * k * n
        a.bytes += 8 * (m * k + k * n + m * n)

    def elems_of_first(a, args, kwargs, result):
        a.elems += args[0].size

    def randn_count(a, args, kwargs, result):
        a.elems += result.size

    def distinct_arg(a, args, kwargs, result):
        a.distinct.add(args[0])

    # tensor: autodiff looks these up as tensor.<name>; stats imported welford.
    t.span(tensor, "matmul", "tensor.matmul", count=matmul_count)
    t.span(tensor, "ewise", "tensor.ewise")
    t.span([tensor, stats], "welford", "tensor.welford", count=elems_of_first)
    t.span(tensor, "randn", "tensor.randn", count=randn_count)

    # autodiff: ops are counted only inside a training step.
    t.span(autodiff, "backward", "autodiff.backward")
    t.counter(autodiff, "record", "autodiff.ops", when=lambda: t.in_step)

    # activations: apply_spec is the layer's entry; hard_ash and gelu are
    # looked up as module globals by apply_spec and baseline.
    t.span(act, "apply_spec", "activations.apply")
    t.span(act, "hard_ash", "activations.hard_ash", count=elems_of_first)
    t.span(act, "gelu", "activations.gelu", count=elems_of_first)

    # stats: compute_stats and kth_largest are stats globals used by the masks.
    t.span(stats, "compute_stats", "stats.compute_stats")
    t.span(stats, "kth_largest", "stats.kth_largest")
    t.span(stats, "gaussian_topk_mask", "stats.gaussian_mask", count=elems_of_first)
    t.span(stats, "z_from_percentile", "stats.z_from_percentile", count=distinct_arg)

    # nn: a training step runs from a trainable forward outside evaluate to
    # the optimizer step that ends it.
    def forward_begin(args, kwargs):
        trainable = kwargs.get("trainable", args[2] if len(args) > 2 else True)
        if trainable and not t.inside("nn.eval"):
            t.in_step = True

    def forward_count(a, args, kwargs, result):
        if t.in_step:
            t.acc("autodiff.tape_len").calls += len(result[0].tape)

    def step_end(a, args, kwargs, result):
        t.in_step = False
        t.steps += 1

    t.span(nn.Model, "forward", "nn.forward", before=forward_begin, count=forward_count)
    t.span(nn, "loss_fn", "nn.loss")
    t.span(nn, "evaluate", "nn.eval")
    t.span(nn.Adam, "step", "nn.optimizer", count=step_end)
    t.span(nn.SGD, "step", "nn.optimizer", count=step_end)

    # harness: dataset generators are datasets globals used by gen_builtin.
    t.span(datasets, "two_moons", "harness.dataset")
    t.span(datasets, "spirals", "harness.dataset")

    def file_bytes(a, args, kwargs, result):
        a.bytes += os.path.getsize(args[0])

    def journal_bytes(args, kwargs):
        t.acc("harness.write").bytes -= args[0]._f.tell()

    def journal_bytes_after(a, args, kwargs, result):
        a.bytes += args[0]._f.tell()

    t.span(journal, "write_csv", "harness.write", count=file_bytes)
    t.span(journal, "save_model_dump", "harness.write", count=file_bytes)
    t.span(journal.JournalWriter, "append", "harness.write",
           before=journal_bytes, count=journal_bytes_after)
    return t
