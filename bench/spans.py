"""In-memory span recorder for the benchmark's traced pass.

A span records a name, a start and an end (``perf_counter_ns``), the index
of the span that was open when it started, the id of the command it belongs
to, and work counts taken from the call's arguments and result.  Spans are
kept in a list and written as JSON lines when the benchmark ends.

The recorder hooks into the program only from outside: :func:`hooked`
rebinds public names in the modules that call them (for example
``fracphase.cli.compute_type_system``) to wrappers that open a span around
the call, and restores the originals on exit.  Nothing is rebound outside
the ``with`` block, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    command: int
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects nested spans; one command id per top-level command."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.command = 0

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.command))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def command_span(self, name: str):
        """A top-level span with a fresh command id."""
        self.command += 1
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.finish(index)

    def wrap(self, fn, name, count=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of ``(args, kwargs)``; ``count``
        maps ``(args, kwargs, result)`` to a dict of work counts.
        """

        def traced(*args, **kwargs):
            index = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if count is not None:
                self.spans[index].counts = count(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path, extra=None) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                row = {"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                       "parent": s.parent, "command": s.command, "self_ns": own,
                       "counts": s.counts}
                if extra is not None:
                    row.update(extra(i))
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@contextmanager
def hooked(recorder: Recorder, hooks):
    """Rebind each ``(module, attribute, name, count)`` hook for the block.

    Yields the list of hooks whose attribute was missing, so a renamed
    function shows up as an unhooked layer instead of a crash.
    """
    originals = []
    missing = []
    try:
        for module, attr, name, count in hooks:
            if not hasattr(module, attr):
                missing.append(f"{module.__name__}.{attr}")
                continue
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(fn, name, count))
        yield missing
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
