"""Per-layer accounting for a traced workload pass.

install() wraps every public function defined in a specgap module (cli
excepted: the pass times each cli.main call itself) at every module
attribute bound to it. pipeline, cli and rearrange bind these functions
with `from ... import`, so patching only the defining module would miss
their calls. Functions held elsewhere (in a dict, a default argument or a
closure) are not seen.

A span is opened where a call crosses from one layer (module) into
another, and collapsed at once into totals per function: total seconds
and self seconds (total minus the spans opened inside it). Every call,
across layers or within one, adds to the function's call count, its
raised count and its problem size where SIZES defines one, and to a
count per (innermost span, callee) pair. A call within a layer opens no
span, so its time stays with its caller's span: smallest_eigenpair's
self time includes its Sturm counts, and constants.search's includes the
200,000 is_feasible checks it makes. Keeping totals rather than a list of
spans, and timing only layer crossings, keeps the cost per call near a
microsecond; the hot scalar function that is still timed,
sublevel.width (about 140,000 calls from cli in the fine1d workload),
shows in trace.overhead_frac.

install() also swaps concurrent.futures.ProcessPoolExecutor, in that
module and wherever specgap bound it, for an executor that runs each task
at once in this process. The 2D sweep therefore runs serially under the
trace, and no span is lost in a pool worker. This does not depend on any
specgap option, so it keeps working if the pool or its --workers flag
goes away.
"""

import concurrent.futures
import functools
import inspect
import sys
import time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# problem size summed over the calls of a function
SIZES = {
    "eigensolve1d.smallest_eigenpair": lambda a, k: _arg(a, k, 0, "op").n,
    "eigensolve2d.smallest_eigenpair_2d": lambda a, k: _arg(a, k, 0, "grid").activeCount,
    "potential.sample": lambda a, k: _arg(a, k, 1, "n"),
}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s, raised, size]
        self.edges = {}  # (caller, callee) -> calls
        self.inline_pool_calls = 0
        self._stack = []  # open spans, innermost last

    def wrap(self, name, fn, size=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        layer = name.split(".", 1)[0]
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            key = (caller[0] if caller else None, name)
            edges[key] = edges.get(key, 0) + 1
            stats[0] += 1
            if size is not None:
                stats[4] += size(args, kwargs)
            if caller is not None and caller[2] == layer:
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    stats[3] += 1
                    raise
            frame = [name, 0.0, layer]  # span name, seconds in spans opened inside it, layer
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                seconds = clock() - start
                stack.pop()
                stats[1] += seconds
                stats[2] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def totals(self):
        return {
            "stats": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "raised": s[3], "size": s[4]}
                for name, s in self.stats.items()
            },
            "edges": [[caller, callee, n] for (caller, callee), n in self.edges.items()],
        }


def install():
    """Wrap specgap's public functions and inline its process pool."""
    tracer = Tracer()
    modules = {
        name: module
        for name, module in sys.modules.items()
        if module is not None and name.startswith("specgap.") and name not in ("specgap.cli", "specgap.__main__")
    }
    wrapped = {}
    for modname, module in modules.items():
        layer = modname.split(".", 1)[1]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, SIZES.get(name))

    class InlineExecutor(concurrent.futures.Executor):
        """Runs each submitted task at once, in the calling process."""

        def __init__(self, *args, **kwargs):
            pass

        def submit(self, fn, /, *args, **kwargs):
            tracer.inline_pool_calls += 1
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:
                future.set_exception(exc)
            return future

    pool = concurrent.futures.ProcessPoolExecutor
    concurrent.futures.ProcessPoolExecutor = InlineExecutor
    for module in list(modules.values()) + [sys.modules["specgap.cli"]]:
        for attr, obj in list(vars(module).items()):
            if obj is pool:
                setattr(module, attr, InlineExecutor)
            elif inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    return tracer
