"""Outside-in spans around the public functions of lkapprox.

`Tracer.install` replaces every public function of the six modules, in
every lkapprox namespace that binds it, with a wrapper that records a span;
`DelayLyapunovMatrix.pair` is wrapped on its class.  `uninstall` puts the
originals back, so untraced ops run the program unchanged.

A span is [name, start, end, parent span, op id, size].  Parents come from a
per-thread stack.  A span that opens on a thread with no open span (a point
of `lk sweep` running in the program's own pool) takes as parent the
innermost open span of the thread that began the op, so the pool's work
counts as child time of the command that waits for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time

MODULES = ("linalg", "spectral", "discretize", "functional", "oracle", "cli")

# Size recorded with each span of these functions: the order d of the
# first argument, from which the computed d^3 work follows.
_SIZED = {"linalg.solve_lyapunov"}


def _public_functions():
    """(span name, function) for every public function of the six modules."""
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"lkapprox.{short}")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for attr in names:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found.append((f"{short}.{attr}", fn))
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._op_stack = None
        self._saved = []
        self._wrappers = {}
        for name, fn in _public_functions():
            self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
        from lkapprox.oracle import DelayLyapunovMatrix
        self._pair_class = DelayLyapunovMatrix
        self._pair = (DelayLyapunovMatrix.pair,
                      self._wrap("oracle.pair", DelayLyapunovMatrix.pair))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        sized = name in _SIZED
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and self._op_stack:
                try:
                    parent = self._op_stack[-1]
                except IndexError:
                    parent = None
            size = len(args[0]) if sized and args else None
            span = [name, time.perf_counter(), None, parent, self.op, size]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        import lkapprox
        namespaces = [lkapprox] + [
            importlib.import_module(f"lkapprox.{m}") for m in MODULES
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        self._saved.append((self._pair_class, "pair", self._pair[0]))
        self._pair_class.pair = self._pair[1]

    def uninstall(self):
        while self._saved:
            ns, attr, value = self._saved.pop()
            setattr(ns, attr, value)

    @contextlib.contextmanager
    def tracing(self, op_id):
        """Record the spans of one op, on this thread and the pools it starts."""
        self.install()
        self.op = op_id
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self.op = None
            self._op_stack = None
            self.uninstall()


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    out = []
    for span in spans:
        t0, t1 = span[1], span[2]
        kids = children.get(id(span))
        out.append((t1 - t0) - (_covered(kids, t0, t1) if kids else 0.0))
    return out


def per_op(spans):
    """{op id: {span name: [calls, self seconds, sum of size^3]}}."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[4], {}).setdefault(span[0], [0, 0.0, 0])
        row[0] += 1
        row[1] += own
        if span[5] is not None:
            row[2] += span[5] ** 3
    return table


def expm_under_pair(spans):
    """Count of linalg.expm spans whose parent is an oracle.pair span."""
    return sum(
        1 for s in spans
        if s[0] == "linalg.expm" and s[3] is not None and s[3][0] == "oracle.pair"
    )
