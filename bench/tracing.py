"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

``Tracer.install()`` wraps, in each layer module of ``dioph``:

* every public module-level function;
* every private one that another ``dioph`` module imports by name (those
  calls cross a layer boundary);
* the public and dunder methods, static methods and properties of the
  module's public classes that are written in its own file (dataclass-made
  methods are left alone).

The wrapper replaces the name in every ``dioph`` module that holds the same
function object, so a call from any layer goes through it.  Spans nest on
one stack; a span's self time is its duration minus the durations of its
child spans, and a layer's self time is the sum over its spans.  Private
helpers called only inside their own module stay unwrapped, so their time
is self time of the public function that called them.

Generator functions get no timed span, which would only cover creating the
generator; their wrapper re-yields each item and counts it, and the time
spent producing items falls to whichever span consumes them.

Spans stay in memory, merged per request by their layer path (consecutive
frames of one layer collapse into one node): calls that entered the layer
there, busy and self time, and the first start and last end relative to
the request start.  ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "svgplot", "dioset", "quality", "contfrac", "arith", "topology", "bands")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [key, layer, start, path, child_time]
        self.fn: dict[str, list] = defaultdict(lambda: [0, 0.0])  # key -> [calls, self_s]
        self.items: Counter = Counter()   # generator key -> items yielded
        self.generators: set[str] = set()
        self.active: Counter = Counter()  # layer -> frames on the stack
        self.counts: Counter = Counter()  # counts taken from results
        self.den_bits: list[int] = []     # bit length of each exact measure's denominator
        self.requests: list[dict] = []
        self._nodes: dict[tuple, list] = {}
        self._t0 = 0.0

    # -- requests -----------------------------------------------------------

    def begin_request(self) -> None:
        self._nodes = {}
        self._t0 = time.perf_counter()

    def end_request(self, i: int, cmd: str) -> None:
        t0 = self._t0
        spans = [{"path": "/".join(path), "calls": n[0], "busy_s": n[1], "self_s": n[2],
                  "start_s": n[3] - t0, "end_s": n[4] - t0}
                 for path, n in self._nodes.items()]
        self.requests.append({"i": i, "cmd": cmd, "spans": spans})

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"requests": self.requests}, fh)

    # -- spans --------------------------------------------------------------

    def _enter(self, key: str, layer: str) -> list:
        stack = self.stack
        if stack and stack[-1][1] == layer:
            path = stack[-1][3]
        else:
            path = (stack[-1][3] if stack else ()) + (layer,)
        frame = [key, layer, time.perf_counter(), path, 0.0]
        stack.append(frame)
        self.active[layer] += 1
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[2]
        own = dur - frame[4]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += dur
        self.active[frame[1]] -= 1
        stats = self.fn[frame[0]]
        stats[0] += 1
        stats[1] += own
        path = frame[3]
        node = self._nodes.get(path)
        if node is None:
            node = self._nodes[path] = [0, 0.0, 0.0, frame[2], end]
        node[2] += own
        if parent is None or parent[3] is not path:  # this span entered the layer
            node[0] += 1
            node[1] += dur
            node[3] = min(node[3], frame[2])
            node[4] = max(node[4], end)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, hook=None):
        if inspect.isgeneratorfunction(fn):
            self.generators.add(key)
            items, calls = self.items, self.fn[key]

            def traced_gen(*args, **kwargs):
                calls[0] += 1
                for item in fn(*args, **kwargs):
                    items[key] += 1
                    yield item
            return traced_gen

        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if hook is not None:
                hook(result)
            return result
        return traced

    def _hooks(self) -> dict:
        def intervals_out(s):
            self.counts["dioset.intervals_out"] += len(s.intervals)

        def den_bits(m):
            self.den_bits.append(m.denominator.bit_length())

        def row_built(_r):
            if self.active["quality"]:
                self.counts["quality.rows_built"] += 1

        return {"dioset.truncated_set": intervals_out,
                "dioset.IntervalSet.measure": den_bits,
                "contfrac.tail_real": row_built}

    def install(self) -> None:
        """Wrap the layer functions of the imported ``dioph`` package."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "dioph" or n.startswith("dioph.")]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"dioph.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not name.startswith("_"):
                        self._wrap_class(obj, layer, mod.__file__, hooks)
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "__wrapped__")):
                    continue
                if name.startswith("_") and not any(
                        vars(m).get(name) is obj for m in mods if m is not mod):
                    continue
                key = f"{layer}.{name}"
                wrapped = self._wrap(obj, key, layer, hooks.get(key))
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, attr, wrapped)

    def _wrap_class(self, cls, layer: str, filename: str, hooks: dict) -> None:
        def own(fn):
            code = getattr(fn, "__code__", None)
            return code is not None and code.co_filename == filename

        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not attr.endswith("__"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            hook = hooks.get(key)
            if isinstance(raw, staticmethod) and own(raw.__func__):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, key, layer, hook)))
            elif isinstance(raw, property) and own(raw.fget):
                setattr(cls, attr, property(self._wrap(raw.fget, key, layer, hook),
                                            raw.fset, raw.fdel, raw.__doc__))
            elif inspect.isfunction(raw) and own(raw):
                setattr(cls, attr, self._wrap(raw, key, layer, hook))

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, own) in self.fn.items():
            layer = key.split(".", 1)[0]
            if key in self.generators:  # calls but no span
                continue
            out[layer][0] += calls
            out[layer][1] += own
        return out
