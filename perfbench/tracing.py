"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` keeps spans in memory. Each span has a name, start,
end, parent and attributes, and runs under its own Spark job group;
when it closes it reads that group's job ids from
``sc.statusTracker()``, so ``jobs`` counts only the jobs the span
itself started (a child span's jobs are in the child's group).

:func:`patched` swaps the program's public functions for wrappers that
open a span. ``repro.core.gm`` and ``repro.core.rig`` bind their
collaborators with ``from ... import``, so the names are replaced in
those modules, not in the defining ones. ``MatchContext.ms_edge`` is
only counted: it returns a lazy DataFrame, so its time is spent in the
caller's actions.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import gm as gm_mod
from repro.core import matchsets, rig


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    jobs: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder bound to one SparkContext at a time."""

    def __init__(self):
        self.sc = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.ms_edge_calls = 0
        self.ms_edge_distinct = 0  # summed over cache epochs
        self.ms_edge_keys: set = set()

    def bind(self, sc) -> None:
        """Record later spans' jobs against ``sc`` (a restarted context)."""
        self.sc = sc

    def _group(self, sid: int) -> str:
        return f"perfbench-span-{sid}"

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        s = Span(sid, name, self._stack[-1] if self._stack else None, 0.0, attrs=attrs)
        self.spans.append(s)
        self._stack.append(sid)
        self.sc.setJobGroup(self._group(sid), name)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            s.jobs = len(self.sc.statusTracker().getJobIdsForGroup(self._group(sid)))
            if s.parent is None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            else:
                self.sc.setJobGroup(self._group(s.parent), self.spans[s.parent].name)

    def reset_ms_edge_keys(self) -> None:
        """Start a new ``ms(e)`` cache epoch (the run released the cache)."""
        self.ms_edge_keys = set()

    # -- queries over recorded spans ------------------------------------
    @staticmethod
    def named(name: str, spans: list[Span]) -> list[Span]:
        return [s for s in spans if s.name == name]

    def children(self, s: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == s.sid]

    def self_seconds(self, s: Span) -> float:
        """Span duration minus the time its direct children cover."""
        return s.seconds - sum(c.seconds for c in self.children(s))


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, out)
            return out

    wrapper.__wrapped__ = fn
    return wrapper


def _sim_attrs(s: Span, res) -> None:
    s.attrs.update(passes=res.passes, fb_rows=sum(res.counts.values()))


def _rig_attrs(s: Span, r) -> None:
    s.attrs.update(size=r.size(), empty=r.empty)


@contextmanager
def patched(tracer: Tracer):
    """Trace the program's layer entry points for the duration of the block."""
    orig_ms_edge = matchsets.MatchContext.ms_edge

    def ms_edge(self, p, e):
        key = (e.kind, p.label_of(e.src), p.label_of(e.dst))
        tracer.ms_edge_calls += 1
        if key not in tracer.ms_edge_keys:
            tracer.ms_edge_keys.add(key)
            tracer.ms_edge_distinct += 1
        return orig_ms_edge(self, p, e)

    swaps = [
        (matchsets, "transitive_closure", _wrap(tracer, "transitive_closure", matchsets.transitive_closure)),
        (gm_mod, "transitive_reduction", _wrap(tracer, "transitive_reduction", gm_mod.transitive_reduction)),
        (gm_mod, "build_rig", _wrap(tracer, "build_rig", gm_mod.build_rig, _rig_attrs)),
        (gm_mod, "pick_order", _wrap(tracer, "pick_order", gm_mod.pick_order)),
        (gm_mod, "mjoin", _wrap(tracer, "mjoin", gm_mod.mjoin)),
        (rig, "fb_sim", _wrap(tracer, "fb_sim", rig.fb_sim, _sim_attrs)),
        (rig, "fb_sim_bas", _wrap(tracer, "fb_sim_bas", rig.fb_sim_bas, _sim_attrs)),
        (matchsets.MatchContext, "ms_edge", ms_edge),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in swaps]
    try:
        for obj, attr, new in swaps:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)
