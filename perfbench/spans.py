"""In-memory span recorder that times the program from outside.

Each wrap replaces one module or class attribute -- the name a caller looks
up at call time -- with a wrapper that records a span (name, start, end,
parent) and bumps counters.  Nothing in the program's source changes.  A
name that a later refactor removed is recorded as absent and reported; the
run goes on without it.

Spans nest by a stack, so a span's self time is its duration minus the
durations of its direct children.  Count-only wraps record no span: their
time stays in the enclosing span's self time.
"""

from __future__ import annotations

import time

now = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.maxima = {}
        self.absent = []
        self.broken = set()
        self._stack = []
        self._undo = []

    def add(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, now(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = now()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, span: bool = True, on_return=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``on_return(recorder, args, result)`` runs after each successful call,
        outside the span, to read work counts from arguments and results.
        """
        label = f"{getattr(owner, '__module__', '')}.{getattr(owner, '__name__', owner)}.{attr}"
        orig = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.absent.append(label)
            return
        rec = self

        def wrapper(*args, **kwargs):
            rec.add(name + ".calls")
            if span:
                idx = rec.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    rec.close(idx)
            else:
                result = orig(*args, **kwargs)
            if on_return is not None:
                try:
                    on_return(rec, args, result)
                except Exception as exc:  # a changed signature loses a count, not the run
                    rec.broken.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def summarize(self, root: int) -> dict:
        """Busy and self seconds per span name inside span ``root``.

        ``uncovered_s`` is the root's self time: the part of the operation
        no wrapped layer accounts for.
        """
        end = self.spans[root][2]
        members = [i for i in range(root, len(self.spans)) if self.spans[i][1] <= end]
        child_time = {i: 0.0 for i in members}
        for i in members[1:]:
            name, start, stop, parent = self.spans[i]
            child_time[parent] += stop - start
        busy, self_s = {}, {}
        for i in members[1:]:
            name, start, stop, _ = self.spans[i]
            busy[name] = busy.get(name, 0.0) + (stop - start)
            self_s[name] = self_s.get(name, 0.0) + (stop - start) - child_time[i]
        _, start, stop, _ = self.spans[root]
        return {
            "busy": busy,
            "self": self_s,
            "wall_s": stop - start,
            "uncovered_s": (stop - start) - child_time[root],
        }
