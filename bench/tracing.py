"""Span tracing of the symsq layers, installed from outside the package.

The tracer replaces every public module-level function of the eight
symsq modules, and the Lambda and cyclotomic ring operations, with a
wrapper that records one span (name, start, end, parent, item id) per
call.  Every binding of a function is replaced, so a call through a
``from .x import f`` name or through an ``__rmul__`` alias is traced
like a call through the defining module.  Spans stay in memory and are
written once, when the run ends.

Memoised helpers (``functools.lru_cache`` wrappers such as
``euler_phi``) are not wrapped: after the warm-up they are dictionary
lookups, a span would cost more than the call, and their cost stays in
the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from collections import Counter
from pathlib import Path

MODULES = ("padic", "cyclotomic", "characters", "qexp", "iwasawa", "euler",
           "harness", "cli")

# (module, class, method) -> span name; aliases such as __rmul__ follow
METHODS = {
    ("iwasawa", "IwasawaElement", "__mul__"): "iwasawa.mul",
    ("cyclotomic", "CycNumber", "__mul__"): "cyclotomic.mul",
    ("cyclotomic", "CycNumber", "__add__"): "cyclotomic.add",
}

ITEM = "bench.item"


class Tracer:
    """In-memory span recorder; ``active`` gates every wrapper."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.spans: list = []          # [name, start_ns, end_ns, parent, item]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.lift_requests: list = []  # (item, form, q, psi, t) per lift
        self.last_cache_key: str | None = None   # set by cache_key
        self.lift_mark = 0        # euler_to_lambda count when a lift began
        self._restore: list = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.item])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def begin_item(self, item_id: int):
        """Open the root span of one item; spans inside carry its id."""
        self.item = item_id
        self._open(ITEM)

    def end_item(self):
        self._close(self.stack[-1])
        self.item = -1

    def wrap(self, name: str, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer module of `package`,
        and the METHODS, at every binding that holds them."""
        mods = {name: getattr(package, name) for name in MODULES}
        owners = [package, *mods.values()]
        targets = [(f"{mname}.{attr}", obj, owners)
                   for mname, mod in mods.items()
                   for attr, obj in vars(mod).items()
                   if not attr.startswith("_") and inspect.isfunction(obj)
                   and obj.__module__ == mod.__name__]
        for (mname, cname, meth), name in METHODS.items():
            cls = getattr(mods[mname], cname)
            targets.append((name, cls.__dict__[meth], [cls]))
        for name, fn, where in targets:
            wrapped = self.wrap(name, fn, *_HOOKS.get(name, (None, None)))
            for owner in where:
                for attr, obj in list(vars(owner).items()):
                    if obj is fn:
                        setattr(owner, attr, wrapped)
                        self._restore.append((owner, attr, fn))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside run untraced (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- output --------------------------------------------------------------

    def write(self, path: Path):
        """Write every span as one JSON line; parent is a span index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i, (name, t0, t1, parent, item) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start_ns": t0,
                                      "end_ns": t1, "parent": parent,
                                      "item": item}) + "\n")

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self_ns) per span name; self = own span minus children."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, self_ns = Counter(), Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - child_ns[i]
        return calls, self_ns


# -- per-function counters -------------------------------------------------


def _mul_terms(tracer, args):
    """Schoolbook coefficient products of a series-by-series multiply."""
    a, b = args
    if type(b) is type(a):
        d = min(len(a.coeffs), len(b.coeffs)) - 1
        tracer.counters["iwasawa.mul.terms"] += (d + 1) * (d + 2) // 2


def _lift_pre(tracer, args):
    form, q, psi, t = args[:4]
    tracer.lift_requests.append((tracer.item, form, q, psi, t))
    tracer.last_cache_key = None
    tracer.lift_mark = tracer.counters["euler.euler_to_lambda"]


def _lift_post(tracer, args, kwargs, result):
    """A lift that called euler_to_lambda missed; count what it wrote."""
    cache_dir = args[5] if len(args) > 5 else kwargs.get("cache_dir")
    missed = tracer.counters["euler.euler_to_lambda"] > tracer.lift_mark
    if missed and cache_dir is not None and tracer.last_cache_key:
        path = Path(cache_dir) / (tracer.last_cache_key + ".json")
        tracer.counters["harness.cache.bytes_written"] += path.stat().st_size


def _key_post(tracer, args, kwargs, result):
    tracer.last_cache_key = result


def _count_euler(tracer, args):
    tracer.counters["euler.euler_to_lambda"] += 1


_HOOKS = {
    "iwasawa.mul": (_mul_terms, None),
    "euler.euler_to_lambda": (_count_euler, None),
    "harness.cache_key": (None, _key_post),
    "harness.lift_factor": (_lift_pre, _lift_post),
}
