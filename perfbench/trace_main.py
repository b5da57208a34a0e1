"""Run one symblocks command with every layer's public functions wrapped.

    PYTHONPATH=src python perfbench/trace_main.py SUMMARY.json -- ARGV...

The wrappers are installed from outside the package: nothing under src/
changes.  A layer is one module (algebra, partitions, wreath, blocks,
unipotent, cli).  Each wrapped call is a span; spans nest on one stack, so
a span's self time is its duration minus the time of the wrapped calls it
made.  Spans are folded into per-function totals in memory, and the totals
are written to SUMMARY.json once the command has finished.  The report on
stdout and the exit status are those of `symblocks.cli.main(ARGV)`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("algebra", "partitions", "wreath", "blocks", "unipotent", "cli")

# Arithmetic dunders are the algebra layer's real entry points
# (``a * b`` on Poly or CycElt); other dunders are bookkeeping.
ARITHMETIC_DUNDERS = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __neg__ __pow__ "
    "__truediv__ __rtruediv__ __mod__ __call__".split()
)


class Tracer:
    """Span stack plus per-function and per-(n, p) totals."""

    def __init__(self):
        self.stack: list[float] = []  # child time accumulated per open span
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.key_seconds: dict[str, float] = {}
        self._blocks_depth = [0]

    def wrap(self, layer: str, fn):
        """A wrapper that records each call of fn as a span."""
        stat = self.stats.setdefault(f"{layer}.{fn.__qualname__}", [0, 0.0])
        stack = self.stack
        clock = perf_counter

        def close(t0: float) -> float:
            dt = clock() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            stat[0] += 1
            stat[1] += dt - child
            return dt

        if inspect.isgeneratorfunction(fn):
            # Each resume is a span.  A recursive call made during a resume
            # is left untimed: the enclosing resume already covers it.
            resuming = [0]

            def timed(it):
                while True:
                    resuming[0] += 1
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        resuming[0] -= 1
                        close(t0)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                return it if resuming[0] else timed(it)

            return gen_wrapper

        if layer == "blocks":
            return self._wrap_block(fn, close)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(t0)

        if hasattr(fn, "cache_info"):  # keep lru_cache introspection
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _wrap_block(self, fn, close):
        """Blocks spans also add their time to the (n, p) key of the
        outermost blocks call, the unit of work --jobs hands out."""
        depth = self._blocks_depth
        stack = self.stack
        keys = self.key_seconds
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = close(t0)
                depth[0] -= 1
                if not depth[0]:
                    key = _block_key(args)
                    if key is not None:
                        keys[key] = keys.get(key, 0.0) + dt

        return wrapper


def _block_key(args) -> str | None:
    """The (n, p) key of a blocks-layer call, as the --jobs pool splits work.

    Calls take a partition and a prime, n and a prime, or a block.
    """
    if not args:
        return None
    first = args[0]
    label = getattr(first, "label", None)
    if label is not None:
        return f"{label.n},{label.p}"
    if len(args) >= 2 and isinstance(args[1], int):
        if isinstance(first, tuple):
            return f"{sum(first)},{args[1]}"
        if isinstance(first, int):
            return f"{first},{args[1]}"
    return None


def _is_plain_function(obj) -> bool:
    """A def'd function, or one behind functools.lru_cache."""
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every public function and class method of each layer module.

    Every module attribute that refers to a wrapped function is rebound, so
    names imported with ``from ... import`` (cli's relative_hook_degree,
    unipotent's zsigmondy, ...) are traced too.
    """
    replaced: dict[int, object] = {}

    def wrapped(layer, fn):
        if id(fn) not in replaced:
            replaced[id(fn)] = tracer.wrap(layer, fn)
        return replaced[id(fn)]

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if _is_plain_function(obj) and obj.__module__ == mod.__name__:
                wrapped(layer, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                # __rmul__ = __mul__ shares one function: both names get
                # the same wrapper, so calls of either are counted.
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in ARITHMETIC_DUNDERS:
                        continue
                    if isinstance(raw, staticmethod):
                        setattr(obj, attr, staticmethod(wrapped(layer, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, attr, wrapped(layer, raw))
    # The wrappers hold the originals, so their ids stay unique meanwhile.
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def cache_report(modules: dict) -> dict:
    """hits, misses and current size of each lru_cache, by layer.function."""
    out = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == mod.__name__:
                ci = info()
                out[f"{layer}.{name}"] = [ci.hits, ci.misses, ci.currsize]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_main.py SUMMARY.json -- ARGV...", file=sys.stderr)
        return 2
    summary_path, command = argv[0], argv[2:]
    modules = {
        layer: importlib.import_module(f"symblocks.{layer}") for layer in LAYERS
    }
    tracer = Tracer()
    install(tracer, modules)
    status = modules["cli"].main(command)
    sys.stdout.flush()
    summary = {
        "functions": tracer.stats,
        "caches": cache_report(modules),
        "block_keys": tracer.key_seconds,
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
