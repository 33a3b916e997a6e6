"""Outside-in span tracer: wraps module functions from outside the program.

The tracer replaces each target function, in every module namespace that
binds it, with a wrapper that records a span ``(name, parent, start, end)``
in memory.  Nothing inside the program is edited, and ``uninstall`` puts the
original objects back.  A span's self time is its duration minus the part
covered by its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """A function to wrap, named ``module.function`` relative to a package.

    ``counter(arguments)`` gets the bound arguments of a call that returned,
    with defaults applied, and returns ``{count name: amount}``.
    """

    name: str
    counter: Optional[Callable] = None


class Tracer:
    def __init__(self, package: str, targets):
        self.package = package
        self.targets = tuple(targets)
        self.names = []
        self._ids = {}
        self.spans = []           # (name id, parent index, start ns, end ns)
        self.counts = Counter()
        self._stack = []
        self._saved = []          # (namespace owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        try:
            for target in self.targets:
                module_name, attr = target.name.rsplit(".", 1)
                original = getattr(
                    sys.modules[f"{self.package}.{module_name}"], attr)
                wrapper = self._wrap(target, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            module, key, original = self._saved.pop()
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter_ns()

    def _close(self, name_id, index, parent, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name_id, parent, start, end)

    def _wrap(self, target, original):
        name_id = self._name_id(target.name)
        calls_key = target.name + ".calls"
        counter = target.counter
        signature = inspect.signature(original) if counter else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name_id, *opened)
                self.counts[calls_key] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(bound.arguments))
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """Record a span around a block of the caller's own code."""
        name_id = self._name_id(name)
        opened = self._open()
        try:
            yield
        finally:
            self._close(name_id, *opened)


def self_times(spans, names):
    """Seconds of self time per span name.

    Each span's parent index points into the same list, so the covered part
    of a span is the summed duration of the spans naming it as parent.
    """
    child_ns = Counter()
    for _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = Counter()
    for index, (name_id, _, start, end) in enumerate(spans):
        totals[names[name_id]] += end - start - child_ns[index]
    return {name: ns * 1e-9 for name, ns in totals.items()}
