"""Outside-in tracing of shiftlab's layers.

The layers are the package's modules.  Each public function of a
layer, and each underscore helper that another module imports, is
replaced at every module binding (including module-level tuples of
functions) by a wrapper that opens a span.  A few methods are wrapped
on their class: LabeledGraph.step and the constructors that do real
work.  Calls that stay inside a module through private helpers open no
span, so their time counts as that module's self time.

A span records its name, start, end, parent span and op id.  Spans are
kept in memory, up to MAX_SPANS, and written out by the caller at exit;
the aggregates (calls, total and self time, extra counters) cover
every call whether its span was kept or not.
"""

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "acceptance", "analysis", "codes", "covers", "oracle", "core")
METHODS = (
    ("core", "LabeledGraph", "step", "core.LabeledGraph.step"),
    ("core", "LabeledGraph", "__init__", "core.LabeledGraph"),
    ("codes", "FactorMap", "__init__", "codes.FactorMap"),
    ("analysis", "PairAutomaton", "__init__", "analysis.PairAutomaton"),
)
MAX_SPANS = 20_000


class Tracer:
    def __init__(self, max_spans=MAX_SPANS):
        self.max_spans = max_spans
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.dropped = 0
        self.op = 0
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span id, name, start, child time]
        self._next = 1
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name):
        frame = [self._next, name, time.perf_counter(), 0.0]
        self._next += 1
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent[0] if parent else 0, self.op, name, start, end))
        else:
            self.dropped += 1

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        tracer = self
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        """Each resumption of the generator is one span of `name`; the
        call is counted once and every yielded item is counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(frame)
                    tracer.counts[name + ".yielded"] += 1
                    yield item
            finally:
                gen.close()

        return traced

    def install(self):
        """Wrap the layers' functions at every module binding."""
        pkg = importlib.import_module("shiftlab")
        mods = {layer: importlib.import_module("shiftlab." + layer) for layer in LAYERS}
        names = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith("shiftlab."):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                exported = not attr.startswith("_") and obj.__module__ == mod.__name__
                imported = attr.startswith("_") and obj.__module__ != mod.__name__
                if home in mods and (exported or imported):
                    names[id(obj)] = (obj, f"{home}.{obj.__name__}")
        wrapped = {key: self.wrap(fn, name) for key, (fn, name) in names.items()}
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    new = wrapped[id(obj)]
                elif isinstance(obj, tuple) and any(id(x) in wrapped for x in obj):
                    new = tuple(wrapped.get(id(x), x) for x in obj)
                else:
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, new)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self):
        while self._undo:
            target, attr, obj = self._undo.pop()
            setattr(target, attr, obj)

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-layer metrics, each divided by the number of traced rounds."""

        def per_round(x):
            x /= rounds
            return int(x) if x == int(x) else x

        def self_s(prefix):
            return per_round(sum(t for n, t in self.self_time.items() if n == prefix or n.startswith(prefix + ".")))

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (per_round(sum(c for n, c in self.calls.items() if n.startswith(layer + "."))), "count")
            m[f"{layer}.self_s"] = (self_s(layer), "s")
        m["cli.parse_s"] = (per_round(self.total["cli.main"] - self.total["cli.run"]), "s")
        m["core.step_calls"] = (per_round(self.calls["core.LabeledGraph.step"]), "count")
        m["core.image_set_calls"] = (per_round(self.calls["core.image_set"]), "count")
        m["core.blocks_yielded"] = (per_round(self.counts["core.iter_admissible_blocks.yielded"]), "count")
        m["covers.subset_states"] = (per_round(self.counts["covers.subset_states"]), "count")
        for fn in ("fischer_cover", "follower_separation", "find_synchronizing_word", "is_half_synchronizing"):
            m[f"covers.{fn}.self_s"] = (per_round(self.self_time[f"covers.{fn}"]), "s")
        m["covers.languages_equal.calls"] = (per_round(self.calls["covers.languages_equal"]), "count")
        m["codes.FactorMap.self_s"] = (per_round(self.self_time["codes.FactorMap"]), "s")
        m["codes.recode_to_one_block.calls"] = (per_round(self.calls["codes.recode_to_one_block"]), "count")
        for fn in ("degree", "find_decoder_block", "find_hyperbolic_certificate", "fiber_product",
                   "check_theorem_3_3"):
            m[f"analysis.{fn}.self_s"] = (per_round(self.self_time[f"analysis.{fn}"]), "s")
        m["oracle.blocks_yielded"] = (per_round(self.counts["oracle.oracle_blocks.yielded"]), "count")
        return m


def _count_subset_states(counts, result):
    order, _ = result
    counts["covers.subset_states"] += len(order)


RESULT_HOOKS = {"covers._subset_automaton": _count_subset_states}
