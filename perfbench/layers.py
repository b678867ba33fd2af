"""The benchmark's own spans around calls into the program's layers.

Spans are recorded with a private :class:`repro.obs.spans.SpanRecorder`
and never with ``repro.obs.enable()``, which would also switch on the
program's internal kernel and runtime spans.  Every span name is the
layer it times (``core.factor``, ``kernels.apply``, ...); the workload
root spans are named ``bench.<op>``.

A layer's self time is its span's duration minus the durations of its
direct children, so the self times of one root span's tree sum to the
root's duration exactly.
"""

from __future__ import annotations

from contextlib import nullcontext

__all__ = ["Layers", "self_times"]


class Layers:
    """Calls a layer's function, inside a span when a recorder is given.

    Without a recorder every call goes straight through and every
    wrapper is the callable itself, so an untraced run executes exactly
    the program's code.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder

    @property
    def traced(self):
        return self.recorder is not None

    def span(self, name):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, cat="perfbench")

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        """``fn`` (a one-argument callable) with every call spanned."""
        if self.recorder is None:
            return fn

        def spanned(x):
            with self.span(name):
                return fn(x)

        return spanned


def self_times(spans):
    """``[(span, self_seconds, root)]`` for single-thread spans.

    ``root`` is the outermost span enclosing each span (itself for a
    root).  Children are found by interval nesting, the discipline the
    recorder's context managers guarantee.
    """
    ordered = sorted(spans, key=lambda e: (e.thread, e.start, -e.duration))
    child_sum = [0.0] * len(ordered)
    roots = [None] * len(ordered)
    stack = []  # indices of open ancestors
    for i, e in enumerate(ordered):
        while stack and (
            ordered[stack[-1]].thread != e.thread or e.start >= ordered[stack[-1]].stop
        ):
            stack.pop()
        if stack:
            child_sum[stack[-1]] += e.duration
            roots[i] = roots[stack[0]]
        else:
            roots[i] = e
        stack.append(i)
    return [(e, e.duration - child_sum[i], roots[i]) for i, e in enumerate(ordered)]
