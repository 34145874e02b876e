"""Span tracing from outside the program.

A Tracer replaces public functions and methods of the socnavsim modules,
at the attribute the caller looks them up through, with wrappers that
record one span per call: name, start, end, parent span and run id.
Spans stay in memory until the run ends.  remove() puts every original
back.  Nothing here is imported by the program itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# span record layout: [name, start, end, parent index, run id, counters]
NAME, START, END, PARENT, RUN, COUNTERS = range(6)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    owner is a dotted module path, optionally followed by a class name
    (``socnavsim.nn.Conv2d``); attr is looked up on that object.  probe,
    when given, maps (args, kwargs, result) to a dict of counts that is
    stored on the call's span.
    """

    owner: str
    attr: str
    span: str
    probe: object = None


def resolve(owner: str):
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(owner)


class Tracer:
    """Installs wrappers on targets and keeps the spans they record."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers

    def _wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, self.clock
        probe, name = target.probe, target.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run, None])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][END] = clock()
            if probe is not None:
                spans[i][COUNTERS] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner = resolve(target.owner)
            if isinstance(owner, type):
                if target.attr not in owner.__dict__:
                    raise AttributeError(f"{target.owner} does not define {target.attr}")
                original = owner.__dict__[target.attr]
            else:
                original = getattr(owner, target.attr)
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(original, target))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as f:
            for name, start, end, parent, run, counters in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                if counters:
                    rec["counters"] = counters
                f.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Analysis


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(children[i], s[START], s[END]) for i, s in enumerate(spans)
    ]


def under(spans, name: str) -> list[bool]:
    """Whether each span is, or descends from, a span with this name."""
    flags: list[bool] = []
    for s in spans:  # parents are recorded before their children
        flags.append(s[NAME] == name or (s[PARENT] >= 0 and flags[s[PARENT]]))
    return flags


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    durations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total / self.calls if self.calls else 0.0

    @property
    def self_mean_ms(self) -> float:
        return 1e3 * self.self_total / self.calls if self.calls else 0.0


def aggregate(spans, keep=None) -> dict[str, Stat]:
    """Per-name call counts, inclusive and self seconds, and counters.

    keep, when given, is a list of flags selecting the spans to count.
    """
    selfs = self_times(spans)
    stats: dict[str, Stat] = {}
    for i, s in enumerate(spans):
        if keep is not None and not keep[i]:
            continue
        st = stats.setdefault(s[NAME], Stat())
        st.calls += 1
        dur = s[END] - s[START]
        st.total += dur
        st.self_total += selfs[i]
        st.durations.append(dur)
        for k, v in (s[COUNTERS] or {}).items():
            st.counters[k] = st.counters.get(k, 0) + v
    return stats


def breakdown(spans, windows) -> tuple[dict[str, float], float, float]:
    """Self seconds per layer group over the given windows.

    windows is a list of (run id, start, end).  Returns (seconds per
    group, seconds no top-level span covers, total window seconds); the
    group is the span name up to its first dot.  Groups plus the
    uncovered time add up to the window time.
    """
    selfs = self_times(spans)
    groups: dict[str, float] = {}
    other = wall = 0.0
    for run, lo, hi in windows:
        wall += hi - lo
        tops = []
        for i, s in enumerate(spans):
            if s[RUN] != run:
                continue
            group = s[NAME].split(".", 1)[0]
            groups[group] = groups.get(group, 0.0) + selfs[i]
            if s[PARENT] < 0:
                tops.append((s[START], s[END]))
        other += (hi - lo) - _covered(tops, lo, hi)
    return groups, other, wall
