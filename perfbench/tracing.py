"""Span tracer that wraps library functions from outside the library.

install_span() replaces a function at every module binding of the
traced package (``from .functionals import jh`` in cli included) with a
wrapper that records a span (name, start, end, parent).  Spans of one op
are kept in memory; when the op ends their self times are folded into
per-name totals, and the raw spans of the first ops are kept for writing
out at the end of the run.  Counters wrap names without recording spans,
for calls too frequent or too foreign to time one by one.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from harness import Span, self_times

# Raw spans kept for the output file; aggregates cover every span.
MAX_KEPT_SPANS = 20000


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.kept: list[tuple[int, str, float, float, int]] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()
        self._op = -1
        self._undo: list[tuple[Any, str, Any]] = []
        self.post_hooks: dict[str, Callable[["Tracer", Any], None]] = {}
        self.op_hooks: list[Callable[["Tracer", str, str, float], None]] = []

    # -- spans ------------------------------------------------------------

    def active(self, name: str) -> bool:
        """True while a span of this name is open."""
        return self._active[name] > 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = self.clock
        spans, stack, active = self._spans, self._stack, self._active

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                span[2] = clock()
            hook = self.post_hooks.get(name)
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable, hook: Callable[["Tracer"], None] | None = None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            if hook is not None:
                hook(self)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def op(self, index: int, kind: str) -> Iterator[None]:
        """Root span of one op; folds the op's spans when it ends."""
        self._op = index
        self._spans.clear()
        self._stack.clear()
        root = [f"op:{kind}", self.clock(), 0.0, -1]
        self._spans.append(root)
        self._stack.append(0)
        try:
            yield
        finally:
            root[2] = self.clock()
            self._stack.clear()
            self._fold(kind)

    def _fold(self, kind: str) -> None:
        spans = [Span(*s) for s in self._spans]
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            for hook in self.op_hooks:
                hook(self, kind, span.name, own)
        room = MAX_KEPT_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend((self._op, *s) for s in spans[:room])

    # -- installation -----------------------------------------------------
    # A name the library no longer has is skipped; its metrics read 0.

    def _rebind(self, modules: list, orig: Any, new: Any) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, new)

    def install_span(self, package: str, module: Any, fn_name: str, label: str) -> None:
        """Trace module.fn_name at every binding in the package."""
        orig = getattr(module, fn_name, None)
        if orig is not None:
            mods = [m for k, m in list(sys.modules.items())
                    if m is not None and (k == package or k.startswith(package + "."))]
            self._rebind(mods, orig, self.wrap(label, orig))

    def install_count(
        self, module: Any, attr: str, label: str, hook: Callable[["Tracer"], None] | None = None
    ) -> None:
        """Count calls through one module's binding of attr only."""
        orig = getattr(module, attr, None)
        if orig is not None:
            self._rebind([module], orig, self.count(label, orig, hook))

    def install_method_count(self, cls: type, method: str, label: str) -> None:
        orig = cls.__dict__.get(method)
        if orig is not None:
            self._undo.append((cls, method, orig))
            setattr(cls, method, self.count(label, orig))

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()
