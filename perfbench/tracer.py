"""Outside-in tracer: wraps the public functions and methods of the
``drinfeld`` layer modules from the benchmark's side, without touching
the library's source.

Each wrapped call is a span.  Spans are aggregated as they close, per
operation, into a call count and a self time (span duration minus the
time covered by its child spans), so the hot arithmetic methods cost one
list update per call rather than one stored record.  A few
(child, ancestor) pairs are also counted, e.g. ``right_divmod`` spans
that run inside ``minimal_N``.

A name bound by ``from .x import f`` is a separate binding of the same
function object, so every ``drinfeld.*`` namespace that holds the
function gets the same wrapper.  Methods are patched on their class.
``ff`` is not wrapped: its element arithmetic is too hot to trace.
"""

import functools
import importlib
import sys
import time
import types

LAYERS = (
    "poly",
    "ratfunc",
    "factor",
    "places",
    "skew",
    "dmod",
    "isogeny",
    "extfield",
    "lattice",
    "modpoly",
    "bounds",
)

# Dunder methods that do arithmetic; other private names are not spans.
ARITH_DUNDERS = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __neg__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __floordiv__ __mod__ __divmod__ __pow__ __call__".split()
)


def _is_span(name):
    return not name.startswith("_") or name in ARITH_DUNDERS


class Tracer:
    """Install with ``install()``, read ``stats`` and ``nested``, and
    restore the library with ``uninstall()``."""

    def __init__(self, nested_pairs=()):
        self.stats = {}  # op -> [calls, self seconds]
        self.nested = {pair: 0 for pair in nested_pairs}  # (child, ancestor) -> count
        self._depth = {anc: 0 for _, anc in nested_pairs}
        self._stack = []  # child-time accumulators of the open spans
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, op, fn):
        stats = self.stats.setdefault(op, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        as_child = [pair for pair in self.nested if pair[0] == op]
        as_ancestor = op in self._depth
        depth = self._depth
        nested = self.nested

        if not as_child and not as_ancestor:
            # the hot path (Poly arithmetic): no nesting checks

            @functools.wraps(fn)
            def span(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    child = stack.pop()
                    stats[0] += 1
                    stats[1] += dur - child
                    if stack:
                        stack[-1] += dur

            return span

        @functools.wraps(fn)
        def watched_span(*args, **kwargs):
            for pair in as_child:
                if depth[pair[1]]:
                    nested[pair] += 1
            if as_ancestor:
                depth[op] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur - child
                if stack:
                    stack[-1] += dur
                if as_ancestor:
                    depth[op] -= 1

        return watched_span

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"drinfeld.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and _is_span(name):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        # every namespace holding a wrapped function, re-exports included
        for modname, mod in list(sys.modules.items()):
            if modname != "drinfeld" and not modname.startswith("drinfeld."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._set(mod, name, wrapped[id(obj)])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if not _is_span(name):
                continue
            op = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrap(op, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(op, attr.__func__)))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reading -----------------------------------------------------------

    def calls(self, op):
        return self.stats.get(op, [0, 0.0])[0]

    def self_s(self, op):
        return self.stats.get(op, [0, 0.0])[1]

    def layer_totals(self):
        """{layer: (calls, self seconds)} over every layer, traced or not."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for op, (n, s) in self.stats.items():
            acc = out[op.split(".", 1)[0]]
            acc[0] += n
            acc[1] += s
        return {layer: tuple(v) for layer, v in out.items()}
