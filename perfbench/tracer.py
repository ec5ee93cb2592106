"""Spans and counts recorded from outside the program.

The benchmark never edits ``src/``. Instead it replaces a public function
with a wrapper at the place where the calling module looks it up (for
example ``fairmpdag.harness.train_predictor``), records a span around each
call and restores the original afterwards. Spans stay in memory as tuples
and are written out once, when the benchmark ends.
"""
from __future__ import annotations

import inspect
import time
from collections import Counter
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass

# (span id, parent span id or None, name, start, end, run id)
Span = tuple[int, "int | None", str, float, float, int]


@dataclass(frozen=True)
class Hook:
    """One wrapped lookup: ``owner.attr`` replaced for the span ``name``.

    ``after(args, kwargs, result, seconds)`` runs after a call that returned;
    ``on_error(args, kwargs, exc)`` after one that raised (the exception is
    re-raised unchanged).
    """

    owner: object
    attr: str
    name: str
    after: Callable | None = None
    on_error: Callable | None = None


class Tracer:
    """Span recorder. ``recording`` switches span capture on and off."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.recording = False
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            recording = tracer.recording
            if recording:
                span_id = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(None)  # reserve the id; filled on exit
                tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook.on_error is not None:
                    hook.on_error(args, kwargs, exc)
                raise
            finally:
                end = time.perf_counter()
                if recording:
                    tracer._stack.pop()
                    tracer.spans[span_id] = (
                        span_id, parent, hook.name, start, end, tracer.run_id
                    )
            if hook.after is not None:
                hook.after(args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, hooks: Iterable[Hook]):
        """Patch every hook's lookup for the duration of the block."""
        saved = []
        try:
            for hook in hooks:
                raw = vars(hook.owner)[hook.attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, hook))
                else:
                    patched = self.wrap(raw, hook)
                saved.append((hook.owner, hook.attr, raw))
                setattr(hook.owner, hook.attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextmanager
    def recording_run(self, run_id: int):
        self.run_id = run_id
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False


def bind_arguments(fn: Callable) -> Callable:
    """``bind(args, kwargs)`` -> every parameter of ``fn`` by name, defaults filled."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its child spans.

    The tracer is single-threaded, so child spans are nested calls that
    follow one another and never overlap.
    """
    spans = list(spans)
    out = {span_id: end - start for span_id, _, _, start, end, _ in spans}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
