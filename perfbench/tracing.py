"""In-memory span recorder for the benchmark's traced runs.

The benchmark traces from outside the program: it opens a span around
each public call it makes into a layer (``Freshener.plan``,
``Simulation.run``, ``AdaptiveMirrorManager.run``) and wraps a few
public functions the program calls on its own (``Simulation.build_tape``
and the two fault resolvers).  Boundaries that sit inside one public
call -- slab generation against replay, the manager's plan, estimate
and simulate phases -- come from the program's existing telemetry
spans, read back from the ``repro.obs`` event tape after the run.

Every span carries a name, start, end, parent and the run id.  Spans
stay in memory until the run ends; parents are assigned by interval
containment over the merged benchmark and program spans, and a span's
self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Slack, in seconds, when deciding that one span contains another.
#: Program spans are rebuilt from their end and elapsed time on the
#: registry's clock, which lands them up to a few tens of
#: microseconds off the benchmark's own reads.
CONTAINMENT_SLACK_S = 2e-4


@dataclass
class Span:
    """One completed span.

    Attributes:
        name: Span name (``core.plan``, ``sim.generate``, ...).
        start: ``time.perf_counter`` value at entry, in seconds.
        end: ``time.perf_counter`` value at exit, in seconds.
        source: ``"bench"`` for spans this package opened,
            ``"program"`` for spans read from the program's telemetry.
        run_id: Identifier shared by every span of one run.
        parent: Index of the enclosing span in the tracer's list, or
            None for a root.
    """

    name: str
    start: float
    end: float
    source: str
    run_id: str
    parent: int | None = None

    @property
    def duration(self) -> float:
        """Wall time of the span, in seconds."""
        return self.end - self.start


class Tracer:
    """Collects spans for one run and derives self times.

    Args:
        run_id: Identifier stamped on every span.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []

    def record(self, name: str, start: float, end: float, *,
               source: str = "bench") -> None:
        """Append one completed span."""
        self.spans.append(Span(name, start, end, source, self.run_id))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager recording a benchmark span around a block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, start, time.perf_counter())

    def wrap(self, name: str, func: Callable[..., Any]
             ) -> Callable[..., Any]:
        """``func`` with a benchmark span recorded around every call."""

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter())

        return traced

    def import_program_spans(self, span_events: list[dict[str, Any]],
                             epoch: float) -> None:
        """Add the program's telemetry spans to the trace.

        Args:
            span_events: ``span`` records from the ``repro.obs`` event
                tape, each with ``path``, ``elapsed_s`` and ``t`` (its
                end, in seconds after the registry epoch).
            epoch: The registry epoch on the ``time.perf_counter``
                clock.
        """
        for record in span_events:
            end = epoch + float(record["t"])
            name = str(record["path"]).rsplit("/", 1)[-1]
            self.record(name, end - float(record["elapsed_s"]), end,
                        source="program")

    def link(self) -> None:
        """Sort spans by start; each one's parent is the shortest
        longer span that contains it, within the slack at both ends.

        A benchmark wrapper and the program span around the same call
        (``sim.build_tape`` inside ``sim.generate``) nearly coincide,
        so containment is decided by duration, not by start order.
        """
        self.spans.sort(key=lambda span: (span.start, -span.end))
        for span in self.spans:
            containers = [
                index for index, other in enumerate(self.spans)
                if other.duration > span.duration
                and other.start - CONTAINMENT_SLACK_S <= span.start
                and span.end <= other.end + CONTAINMENT_SLACK_S]
            span.parent = min(
                containers, key=lambda index: self.spans[index].duration,
                default=None)

    def self_times(self) -> list[float]:
        """Per-span self time (duration minus children), after link."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def records(self) -> list[dict[str, Any]]:
        """The spans as JSON-ready dicts, with self times."""
        return [{"id": index, "name": span.name, "source": span.source,
                 "run_id": span.run_id, "parent": span.parent,
                 "start": span.start, "end": span.end,
                 "self_s": own}
                for index, (span, own) in enumerate(
                    zip(self.spans, self.self_times()))]

    def ancestors(self, index: int) -> Iterator[Span]:
        """The spans enclosing span ``index``, innermost first."""
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent
