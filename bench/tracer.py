"""In-memory span tracer that times the program's public functions from
outside, by wrapping them in the namespaces where the program looks them
up.

A span's time excludes the time its tracer spent in count hooks, so a
hook that, say, diffs two edge sets does not inflate the stage it
describes. Self time of a span is its time minus that of its direct
children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.ms = defaultdict(float)  # name -> summed span time
        self.self_ms = defaultdict(float)  # name -> summed self time
        self.counts = defaultdict(int)  # name -> summed hook counts
        self._stack = []  # open frames: [start, child_s, excluded_s]
        self._undo = []

    @contextmanager
    def span(self, name):
        frame = [time.perf_counter(), 0.0, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            took = time.perf_counter() - frame[0] - frame[2]
            self.ms[name] += took * 1e3
            self.self_ms[name] += (took - frame[1]) * 1e3
            if self._stack:
                self._stack[-1][1] += took

    @contextmanager
    def untimed(self):
        """Run bookkeeping whose cost no open span should carry."""
        start = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - start
            for frame in self._stack:
                frame[2] += spent

    def wrap(self, fn, name, after=None):
        """`fn` timed as span `name`; `after(args, kwargs, result)` returns
        {count name: amount} and runs untimed."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.untimed():
                    for key, amount in after(args, kwargs, result).items():
                        self.counts[key] += amount
            return result

        return traced

    def patch_attr(self, owner, attr, name, after=None):
        """Replace owner.attr (a module global, class attribute or dict
        entry) with its traced wrapper until restore()."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name, after)
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, after))
            self._undo.append(lambda: setattr(owner, attr, original))

    def patch_function(self, fn, name, after=None):
        """Wrap `fn` under every global of the loaded commbench modules that
        refers to it, so each call site sees the traced version."""
        patched = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "commbench":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, name, after)
                    patched = True
        if not patched:
            raise LookupError(f"{fn.__qualname__} is looked up nowhere in commbench")

    def restore(self):
        while self._undo:
            self._undo.pop()()
