"""Trace (de)serialization: a compact dumpi-like text format.

One JSON object per line; the first line is a header record.  The format
round-trips everything the analyses consume, so traces can be generated
once and replayed many times (or produced by an external tool -- e.g. an
actual dumpi converter -- and fed to this package's analyzers).

Event records::

    {"k": "h", "app": ..., "ranks": N, "meta": {...}}     header
    {"k": "s", "t": time, "r": rank, "d": dst, "g": tag,
     "c": comm, "b": nbytes}                              send
    {"k": "p", "t": time, "r": rank, "s": src, "g": tag,
     "c": comm}                                           recv post
    {"k": "b", "t": time, "r": rank}                      barrier
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .events import BARRIER, COLUMNS, POST, SEND, Trace

__all__ = ["save_trace", "load_trace", "dumps", "loads"]

_FORMAT_VERSION = 1

#: rows formatted per step while writing (bounds the lines held at once)
_BLOCK_ROWS = 1 << 16


#: per-kind line templates; ``%r`` of a Python float/int is exactly
#: what ``json.dumps`` writes for it
_LINE = {
    SEND: '{"k":"s","t":%r,"r":%r,"d":%r,"g":%r,"c":%r,"b":%r}',
    POST: '{"k":"p","t":%r,"r":%r,"s":%r,"g":%r,"c":%r}',
    BARRIER: '{"k":"b","t":%r,"r":%r}',
}
#: the columns each kind's template consumes, in template order
_FIELDS = {
    SEND: ("time", "rank", "peer", "tag", "comm", "nbytes"),
    POST: ("time", "rank", "peer", "tag", "comm"),
    BARRIER: ("time", "rank"),
}


def _lines(trace: Trace) -> Iterator[str]:
    yield json.dumps({"k": "h", "v": _FORMAT_VERSION, "app": trace.app,
                      "ranks": trace.n_ranks, "meta": trace.meta},
                     separators=(",", ":"))
    # per block of rows: format each kind's rows from its columns, then
    # put the lines back in trace order
    columns = trace.columns
    for lo in range(0, len(trace), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        kind = trace.kind[block]
        lines = np.empty(kind.size, dtype=object)
        for code, template in _LINE.items():
            sel = kind == code
            cols = [columns[name][block][sel].tolist()
                    for name in _FIELDS[code]]
            lines[sel] = [template % row for row in zip(*cols)]
        yield from lines.tolist()


def _parse(lines: Iterable[str]) -> Trace:
    header: dict | None = None
    rows: list[tuple] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        kind = rec.get("k")
        if kind == "h":
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if rec.get("v") != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported trace format version {rec.get('v')!r}")
            header = rec
        elif header is None:
            raise ValueError(f"line {lineno}: event before header")
        elif kind == "s":
            rows.append((SEND, rec["t"], rec["r"], rec["d"], rec["g"],
                         rec.get("c", 0), rec.get("b", 8)))
        elif kind == "p":
            rows.append((POST, rec["t"], rec["r"], rec["s"], rec["g"],
                         rec.get("c", 0), 0))
        elif kind == "b":
            rows.append((BARRIER, rec["t"], rec["r"], -1, 0, 0, 0))
        else:
            raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise ValueError("empty trace file (no header)")
    cols = zip(*rows) if rows else [()] * len(COLUMNS)
    return Trace(app=header["app"], n_ranks=header["ranks"],
                 meta=header.get("meta"), columns=dict(zip(COLUMNS, cols)))


def dumps(trace: Trace) -> str:
    """Serialize a trace to a JSONL string."""
    return "\n".join(_lines(trace)) + "\n"


def loads(text: str) -> Trace:
    """Parse a trace from a JSONL string."""
    return _parse(text.splitlines())


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace to ``path`` (JSONL); returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for line in _lines(trace):
            fh.write(line)
            fh.write("\n")
    return path


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with Path(path).open() as fh:
        return _parse(fh)
