"""Outside per-layer tracer for probdowling.

The tracer times the library from outside: it replaces every function
defined in the traced modules with a timing wrapper at every module-level
binding site, so calls through names imported into other modules
(``egf_mul`` in ``moments``, ``bell`` and ``dowling``), through the
package namespace, through module-level dicts (``cli._DISPATCH``) and
recursive calls of memoized functions through their module global all
pass through it.  A memoized function is wrapped outside its cache, so a
cache hit still counts as a call, and the original cache object stays
reachable for ``cache_info()``.

Spans nest on one stack, so the tracer assumes one thread; the benchmark
leaves ``DOWLING_THREADS`` unset.  A span's self time is its duration
minus the durations of the spans it directly contains.  Generator
functions are left unwrapped: their work runs inside the consumer's span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

PACKAGE = "probdowling"
MODULES = ("ratcore", "series", "moments", "bell", "dowling", "identities",
           "montecarlo", "cli")


class LayerTrace:
    """Install with ``install()``; read with ``snapshot()``; undo with
    ``uninstall()``."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # "module.func" -> [calls, total_s, self_s]
        self.memo: dict[str, object] = {}  # "module.func" -> lru_cache object
        self._stack: list[float] = []
        self._patches: list[tuple[dict, object, object]] = []

    def install(self) -> "LayerTrace":
        wrappers = {}
        for name in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{name}")
            for attr, obj in vars(mod).items():
                if _traceable(obj, mod.__name__):
                    key = f"{name}.{attr}"
                    wrappers[id(obj)] = self._wrap(key, obj)
                    if hasattr(obj, "cache_info"):
                        self.memo[key] = obj
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(mod)
            self._patch(namespace, wrappers)
            for value in list(namespace.values()):
                if isinstance(value, dict) and value is not namespace:
                    self._patch(value, wrappers)
        return self

    def uninstall(self) -> None:
        for space, key, original in reversed(self._patches):
            space[key] = original
        self._patches.clear()

    def _patch(self, space: dict, wrappers: dict) -> None:
        for key, value in list(space.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                self._patches.append((space, key, value))
                space[key] = wrapper

    def _wrap(self, key: str, fn):
        record = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def snapshot(self) -> dict:
        """JSON-ready counters: per function calls/total_s/self_s, and
        cache_info() of every memoized function."""
        return {
            "funcs": {key: {"calls": c, "total_s": t, "self_s": s}
                      for key, (c, t, s) in sorted(self.stats.items())},
            "memo": {key: fn.cache_info()._asdict()
                     for key, fn in sorted(self.memo.items())},
        }


def _traceable(obj, modname: str) -> bool:
    if getattr(obj, "__module__", None) != modname:
        return False
    if hasattr(obj, "cache_info"):
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
