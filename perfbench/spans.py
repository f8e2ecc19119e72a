"""Spans around the calls into each randlr module, recorded from outside.

:class:`Tracer` wraps every public function of the package's modules and
puts the wrapper in place of the original wherever the package holds it:
``from .core import ...`` binds the function into each importing module,
and ``experiments.BASELINES`` keeps the baselines by value, so replacing
the name in the defining module alone would let most calls bypass the
span.  Spans are kept in memory as tuples and aggregated (or written)
once the traced work is done.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: The package's modules, which are the layers the benchmark reports.
LAYERS = ("core", "rangefinder", "planner", "baselines", "experiments", "io", "cli")

# Span tuple fields.
SID, NAME, START, END, PARENT, THREAD, LABEL, WORK = range(8)


def _path_bytes(args, kwargs) -> float:
    path = kwargs.get("path", args[0] if args else None)
    return float(os.path.getsize(path))


def _gaussian_entries(args, kwargs) -> float:
    return float(args[0] * args[1])


def _sketch_gflop(args, kwargs) -> float:
    # computed, not counted: the dense product F @ G costs 2*rows*cols*width
    F, width = args[0], args[1]
    return 2.0 * F.shape[0] * F.shape[1] * width / 1e9


#: Work a call does, measured from its arguments after it returns.
MEASURES = {
    "core.gaussian_matrix": _gaussian_entries,
    "rangefinder.sketch": _sketch_gflop,
    "io.read_matrix_market": _path_bytes,
    "io.read_csv": _path_bytes,
    "io.write_matrix_market": _path_bytes,
    "io.write_csv": _path_bytes,
}


class Tracer:
    """Records (id, name, start, end, parent, thread, label, work) spans.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a pool thread) takes as parent the span
    open on the thread that installed the tracer, so trials run by the
    thread pool nest under their ``monte_carlo`` span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.label: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root_stack: list[int] = []
        self.root_thread: int | None = None
        self._replaced: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        work = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            stack.append(sid)
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                stack.pop()
                amount = work(args, kwargs) if done and work else 0.0
                self.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), self.label, amount)
                )
            return result

        return wrapper

    def install(self) -> None:
        """Replace every public function of every layer by its span wrapper."""
        self.root_thread = threading.get_ident()
        self._local.stack = self._root_stack
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"randlr.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "randlr" and not modname.startswith("randlr."):
                continue
            namespace = vars(module)
            holders = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
            for holder in holders:
                for key, value in list(holder.items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        holder[key] = wrappers[id(value)][1]
                        self._replaced.append((holder, key, value))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for holder, key, original in reversed(self._replaced):
            holder[key] = original
        self._replaced.clear()

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span[SID],
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "thread": span[THREAD],
                            "command": span[LABEL],
                            "work": span[WORK],
                        }
                    )
                )
                fh.write("\n")


def self_times(spans: list[tuple]) -> tuple[dict[int, float], dict[int, float]]:
    """Per span id: self time (duration minus the union of its children's
    intervals) and overlap (children's summed durations minus that union,
    non-zero only where children ran in parallel threads)."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    own, overlap = {}, {}
    for span in spans:
        kids = sorted(children.get(span[SID], ()))
        covered = total = 0.0
        lo = hi = None
        for start, end in kids:
            total += end - start
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        own[span[SID]] = (span[END] - span[START]) - covered
        overlap[span[SID]] = total - covered
    return own, overlap


def summarize(spans: list[tuple], root_thread: int) -> dict:
    """Aggregate spans per command label and span name.

    Returns ``{label: {"names": {name: {"calls", "self_s", "work"}},
    "self_sum_s", "overlap_s", "pool_busy_s"}}``.  ``self_sum_s`` minus
    ``overlap_s`` equals the wall time covered by the command's root spans
    when every span nested where it belongs.
    """
    own, overlap = self_times(spans)
    out: dict = {}
    for span in spans:
        entry = out.setdefault(
            span[LABEL],
            {"names": {}, "self_sum_s": 0.0, "overlap_s": 0.0, "pool_busy_s": 0.0},
        )
        name = entry["names"].setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "work": 0.0})
        name["calls"] += 1
        name["self_s"] += own[span[SID]]
        name["work"] += span[WORK]
        entry["self_sum_s"] += own[span[SID]]
        entry["overlap_s"] += overlap[span[SID]]
        if span[THREAD] != root_thread:
            entry["pool_busy_s"] += own[span[SID]]
    return out
