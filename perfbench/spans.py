"""Spans and counters around the package's public functions.

Each hook names a function by its home module and attribute. While the
tracer is installed, every attribute of every loaded ``risnoma`` module
that holds that function object is replaced by a timing wrapper, so a
call is seen whichever module name it goes through (``syslevel`` calls
``dinkelbach_batch`` through ``risnoma.syslevel``, not ``risnoma.eepa``).
A hook whose target no longer exists is reported as missing; it never
fails the run.

Spans are ``(id, name, start, end, parent, run_id)`` tuples kept in
memory and written out once, when the run ends.
"""

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set


@dataclass(frozen=True)
class Hook:
    name: str  # metric prefix, e.g. "eepa.dinkelbach_batch"
    module: str  # home module, e.g. "risnoma.eepa"
    attr: str
    # count(counts, name, args, kwargs, result) adds layer counters
    count: Optional[Callable] = None


@dataclass(frozen=True, slots=True)  # a traced pair-study run keeps ~10^5
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, hooks: Sequence[Hook]):
        self.hooks = list(hooks)
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: Set[str] = set()
        self.run_id = 0
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._patched: List[tuple] = []  # (module dict, attr, original)

    # -- spans ---------------------------------------------------------
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = self.call(hook.name, fn, *args, **kwargs)
            self.counts[f"{hook.name}.calls"] += 1
            if hook.count is not None:
                try:
                    hook.count(self.counts, hook.name, args, kwargs, result)
                except Exception:  # a changed signature must not fail the run
                    self.missing.add(f"{hook.name} (counter)")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "risnoma" or n.startswith("risnoma.")]
        for hook in self.hooks:
            try:
                home = importlib.import_module(hook.module)
            except ImportError:
                self.missing.add(hook.name)
                continue
            target = getattr(home, hook.attr, None)
            if target is None or not callable(target):
                self.missing.add(hook.name)
                continue
            wrapper = self._wrap(hook, target)
            for module in modules:
                ns = vars(module)
                for attr, value in list(ns.items()):
                    if value is target:
                        self._patched.append((ns, attr, target))
                        ns[attr] = wrapper

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched = []

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.run_id]) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: "<name>.s" (inclusive) and "<name>.self_s"."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[f"{s.name}.s"] += s.duration
        totals[f"{s.name}.self_s"] += own[s.id]
    return totals
