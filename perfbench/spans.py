"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each public call: the
recorder swaps a traced wrapper in for a function or bound method
(:meth:`SpanRecorder.patch`), and :meth:`SpanRecorder.restore` puts the
originals back.  Untraced runs never construct a recorder, so the code
they time is the program's own, unwrapped.

Every span records its name, start, end and parent, and the seconds
each :class:`StageClock` stage gained while it was open.  Wrappers may
add arguments derived from the call's result; request spans carry the
request's ``seq`` (flush spans the covered ``seqs``), so all spans of
one request share that identifier.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

from repro.serve import SERVE_STAGES, StageClock


class SpanRecorder:
    """Spans plus the serve layer's :class:`StageClock` for one pass."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.stages = StageClock()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> dict[str, Any]:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "stages": [self.stages.seconds[k] for k in SERVE_STAGES],
                "start": time.perf_counter(), "end": None, "args": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        span["stages"] = [self.stages.seconds[k] - t0
                          for k, t0 in zip(SERVE_STAGES, span["stages"])]
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **args: Any):
        """Record one span around the ``with`` body."""
        span = self._open(name)
        span["args"].update(args)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable,
             args_of: Callable[[Any], dict] | None = None) -> Callable:
        """``fn`` with a span around every call; ``args_of(result)``
        adds span arguments."""
        def traced(*a, **kw):
            span = self._open(name)
            try:
                result = fn(*a, **kw)
            finally:
                self._close(span)
            if args_of is not None:
                span["args"].update(args_of(result))
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              args_of: Callable[[Any], dict] | None = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until
        :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, args_of))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- queries --------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def arg_sum(self, name: str, key: str) -> float:
        return sum(s["args"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{row: (calls, self seconds)}``.

        A span's self time is its duration minus its direct children's.
        Stage time gained inside a span and not inside its children gets
        its own row, ``"<span> > <stage>"``, and leaves the span's row.
        Spans nest strictly (one thread), so the rows of every span under
        a root add up to the root's duration exactly.
        """
        n_st = len(SERVE_STAGES)
        child = [[0.0] * (n_st + 1) for _ in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                acc = child[s["parent"]]
                acc[0] += s["end"] - s["start"]
                for i, secs in enumerate(s["stages"]):
                    acc[i + 1] += secs
        out: dict[str, tuple[int, float]] = {}

        def add(row: str, calls: int, secs: float) -> None:
            c, t = out.get(row, (0, 0.0))
            out[row] = (c + calls, t + secs)

        for s in self.spans:
            acc = child[s["id"]]
            own = [secs - acc[i + 1] for i, secs in enumerate(s["stages"])]
            add(s["name"], 1, s["end"] - s["start"] - acc[0] - sum(own))
            for stage, secs in zip(SERVE_STAGES, own):
                if secs:
                    add(f"{s['name']} > {stage}", 0, secs)
        return out

    def write_chrome_trace(self, path: Path, pid: int) -> None:
        """Write the spans as Chrome/Perfetto ``traceEvents`` JSON."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        events = [{"name": s["name"], "ph": "X", "pid": pid, "tid": 0,
                   "ts": (s["start"] - t0) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"],
                            **s["args"]}}
                  for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
