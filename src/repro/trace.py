"""One timing path: ``span(name)`` times its body under the innermost open span;
``count(key, n)`` adds to that span, or does nothing if none is open."""
from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    seconds: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    children: list[Span] = field(default_factory=list)

    def child(self, name: str) -> Span:
        return next(c for c in self.children if c.name == name)

    def timings(self, prefix: str = "") -> dict[str, float]:
        t = {prefix + c.name: c.seconds for c in self.children}  # and their sum as total
        return {**t, prefix + "total": sum(t.values())}


_open: ContextVar[Span | None] = ContextVar("open_span", default=None)


@contextmanager
def span(name: str):
    s, parent = Span(name), _open.get()
    if parent is not None:
        parent.children.append(s)
    token, t0 = _open.set(s), time.perf_counter()
    try:
        yield s
    finally:
        s.seconds = time.perf_counter() - t0
        _open.reset(token)


def count(key: str, n: int = 1) -> None:
    s = _open.get()
    if s is not None:
        s.counts[key] = s.counts.get(key, 0) + n
