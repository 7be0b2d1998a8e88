"""Span tracing from outside the package.

The tracer replaces each listed public function of ``retroclass`` with a
timing wrapper. A module-level function is replaced by identity: every
``retroclass.*`` module attribute that *is* the original function is rebound,
so ``from .index import exact_topk`` in another module is wrapped too. A
method is replaced once, on its class. ``restore`` puts every original
binding back.

Spans are kept in memory; nothing inside ``src/`` changes. The wrapper keeps
a stack of open spans, which is correct only while the traced code runs on
one thread (the benchmark runs every command with ``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "retroclass"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(target: str):
    """Split ``"module:Qual.name"`` into (owner, attribute, raw value).

    Raises LookupError when the module, class or attribute is gone.
    """
    mod_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError as exc:
        raise LookupError(f"module {mod_name} not importable: {exc}") from exc
    *outer, attr = qualname.split(".")
    for part in outer:
        if not hasattr(owner, part):
            raise LookupError(f"{target}: {part} not found")
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: {attr} not defined on the class")
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        raise LookupError(f"{target}: {attr} not found")
    return owner, attr, getattr(owner, attr)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans for the functions named in a span map.

    ``captures`` maps a span name to ``fn(args, kwargs, result)``; its return
    value is appended to ``captured[name]`` after the span closes, so counter
    bookkeeping is not charged to the span.
    """

    def __init__(self, captures=None):
        self.spans: list[Span] = []
        self.op = 0
        self.captures = dict(captures or {})
        self.captured: dict[str, list] = {name: [] for name in self.captures}
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, tracer.op))
            capture = tracer.captures.get(name)
            if capture is not None:
                tracer.captured[name].append(capture(args, kwargs, result))
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, span_map: dict[str, str]) -> None:
        """Wrap every resolvable target; unresolvable ones go to ``absent``."""
        modules = _package_modules()
        for name, target in span_map.items():
            try:
                owner, attr, raw = resolve(target)
            except LookupError as exc:
                self.absent[name] = str(exc)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__))
                elif callable(raw):
                    new = self._wrap(name, raw)
                else:
                    self.absent[name] = f"{target} is not a function"
                    continue
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            if not callable(raw):
                self.absent[name] = f"{target} is not a function"
                continue
            wrapper = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patched.append((mod, key, raw))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Put back every original binding, last patched first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the part its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ()))
        out[span.id] = span.duration - covered
    return out


def top_level_coverage(spans, start: float, end: float) -> float:
    """Share of [start, end] covered by spans that have no parent."""
    wall = end - start
    if wall <= 0:
        raise ValueError("empty window")
    return union_length((max(s.start, start), min(s.end, end))
                        for s in spans if s.parent is None) / wall
