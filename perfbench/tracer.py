"""Spans and counts around calls into ``quiverforge`` layers.

The tracer patches, from outside the package, every public function of the
layer modules at every module attribute where a caller looks it up (for
example ``counting.orbit_partition`` as well as ``orbits.orbit_partition``),
and the public methods of the layer classes on the class itself.  It also
shadows ``open`` in the ``cache`` module, so that the lines ``cache_lookup``
iterates are counted as it reads them.  Nothing inside ``src/quiverforge``
changes; ``uninstall`` puts every original back.

Each wrapped call is a span: name, start, end, parent span and the id of
the benchmark job it ran under.  A generator function (``all_representations``,
``level_set_points``, ...) gets one span whose time is summed over its
``next()`` calls.  Self time is span time minus the time covered by wrapped
calls made inside it, so a span's self time includes every unwrapped helper
it calls.  Calls that run once per matrix operation or per point (class
methods, ``moment_map``, ``satisfies_relations``) are summed per name
instead of kept one by one; every other span is kept in memory and written
out at the end of the run.  Counts are recorded in the same wrappers.

Every timed window (a call, or one ``next()``) costs about 1.5 µs of
wrapper code, which matters under millions of matrix calls.  ``wrapper_cost``
measures that cost in the running process, split into the part inside the
window and the part the caller sees.  ``settle``, called between jobs,
charges it to each name: window count times the inside part to its self
time, and child window count times the outside part as well.  ``self_s``
and ``total_s`` report times less that charge.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter

from quiverforge import cache, cli, counting, ffield, moduli, orbits, quiver, reps, series
from quiverforge.errors import DEFAULT_CAP

LAYER_MODULES = (orbits, reps, ffield, counting, moduli, series, quiver, cache, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in LAYER_MODULES)
LAYER_CLASSES = (ffield.FqMatrix, quiver.Quiver, series.ExactPolynomial, series.TruncatedSeries)
WRAPPED_DUNDERS = {"__init__", "__eq__", "__call__"}
SUMMED_ONLY = {"moduli.moment_map", "moduli.satisfies_relations"}
# unwrapped originals, for counts computed inside wrappers
_gl_order = ffield.gl_order
_content_hash = quiver.Quiver.content_hash


class Tracer:
    def __init__(self):
        # open spans: [child time, child windows, descendant windows, span id, name]
        self.stack: list[list] = []
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end, busy)
        # name -> [calls, timed windows, time, self time, child windows, descendant windows]
        self.acc: defaultdict = defaultdict(lambda: [0, 0, 0.0, 0.0, 0, 0])
        self.counts: Counter = Counter()
        self.cap_use = 0.0
        self.seen_classify: set = set()
        self.job = None
        # tracer cost per name, charged by settle: [to self time, to time]
        self.charged: defaultdict = defaultdict(lambda: [0.0, 0.0])
        self.charged_pass = 0.0
        self.costs: list[tuple] = []  # (inside, outside) per window, as measured this pass
        self._settled: dict = {}  # name -> (windows, child windows, descendant windows)
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- span bookkeeping

    def _close(self, frame: list, start: float, end: float, call: int) -> float:
        """Account one timed window of ``frame``; ``call`` is 1 when the
        window is a whole call and 0 when it is one ``next()``."""
        stack = self.stack
        stack.pop()
        busy = end - start
        acc = self.acc[frame[4]]
        acc[0] += call
        acc[1] += 1
        acc[2] += busy
        acc[3] += busy - frame[0]
        acc[4] += frame[1]
        acc[5] += frame[2]
        if stack:
            parent = stack[-1]
            parent[0] += busy
            parent[1] += 1
            parent[2] += 1 + frame[2]
        if frame[3] is not None:
            self.spans.append((frame[3], self.parent_id(), self.job, frame[4], start, end, busy))
        return busy

    def _hook(self, hook, *args) -> None:
        """Run a counting hook; its time is hidden from the enclosing span."""
        start = perf_counter()
        hook(self, *args)
        if self.stack:
            self.stack[-1][0] += perf_counter() - start

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def parent_id(self):
        return self.stack[-1][3] if self.stack else None

    def parent_name(self):
        return self.stack[-1][4] if self.stack else None

    def reset_pass(self):
        """Start the counts and times of a new pass; spans are kept."""
        self.acc.clear()
        self.counts.clear()
        self.cap_use = 0.0
        self.seen_classify.clear()
        self.charged.clear()
        self.charged_pass = 0.0
        self.costs.clear()
        self._settled.clear()

    # -- tracer cost

    def start_pass(self) -> None:
        """``reset_pass``, then measure the wrapper cost that the first
        ``settle`` of the pass starts from."""
        self.reset_pass()
        self.costs.append(wrapper_cost())

    def settle(self) -> float:
        """Charge the tracer's cost of the windows timed since the last
        settle, at the mean of the wrapper cost measured then and now.
        Called between jobs, so that the cost is measured near the work it
        is taken off while the host's speed drifts.  Returns the seconds it
        took."""
        start = perf_counter()
        cost = wrapper_cost()
        cost_in, cost_out = ((a + b) / 2 for a, b in zip(self.costs[-1], cost))
        self.costs.append(cost)
        for name, acc in self.acc.items():
            windows, children, descendants = acc[1], acc[4], acc[5]
            before = self._settled.get(name, (0, 0, 0))
            new = windows - before[0]
            if new:
                charged = self.charged[name]
                charged[0] += new * cost_in + (children - before[1]) * cost_out
                charged[1] += new * cost_in + (descendants - before[2]) * (cost_in + cost_out)
                self.charged_pass += new * (cost_in + cost_out)
                self._settled[name] = (windows, children, descendants)
        return perf_counter() - start

    # -- per-name results

    def calls(self, name: str) -> int:
        return self.acc[name][0] if name in self.acc else 0

    def self_s(self, name: str) -> float:
        """Self time of ``name`` less the tracer's cost charged to it."""
        if name not in self.acc:
            return 0.0
        return self.acc[name][3] - self.charged[name][0]

    def total_s(self, name: str) -> float:
        """Time of ``name`` including its children, less the tracer's cost."""
        if name not in self.acc:
            return 0.0
        return self.acc[name][2] - self.charged[name][1]

    # -- wrappers

    def _wrap_function(self, name: str, fn, keep: bool):
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        tracer, stack, close = self, self.stack, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(before, args, kwargs)
            frame = [0.0, 0, 0, tracer.new_id() if keep else None, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start, perf_counter(), 1)
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer, stack, close = self, self.stack, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.acc[name][0] += 1
            span_id, parent_id, parent = tracer.new_id(), tracer.parent_id(), tracer.parent_name()
            inner = fn(*args, **kwargs)
            first = last = None
            busy = 0.0
            yielded = 0
            try:
                while True:
                    frame = [0.0, 0, 0, None, name]
                    stack.append(frame)
                    start = perf_counter()
                    if first is None:
                        first = start
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        busy += close(frame, start, last, 0)
                    yielded += 1
                    yield item
            finally:
                inner.close()
                tracer.counts[f"{name}.yielded"] += yielded
                if parent is not None:
                    tracer.counts[f"{name}.yielded_under.{parent}"] += yielded
                if first is not None:
                    tracer.spans.append((span_id, parent_id, tracer.job, name, first, last, busy))

        return wrapper

    def _wrapper_for(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn, keep=name not in SUMMED_ONLY)

    # -- install / uninstall

    def install(self):
        """Patch every lookup site; returns self so that ``with`` works."""
        wrappers = {}
        for mod in LAYER_MODULES:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrapper_for(f"{layer}.{attr}", obj)
        namespaces = [sys.modules["quiverforge"], *LAYER_MODULES]
        namespaces += [m for name, m in sys.modules.items()
                       if name.startswith("quiverforge.") and m not in namespaces]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._patch(ns, attr, obj, wrappers[id(obj)])
        for cls in LAYER_CLASSES:
            layer = cls.__module__.rsplit(".", 1)[1]
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                    continue
                name = f"{layer}.{cls.__name__}.{attr}"
                if isinstance(obj, types.FunctionType):
                    new = self._wrap_function(name, obj, keep=False)
                elif isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(self._wrap_function(name, obj.__func__, keep=False))
                else:
                    continue
                self._patch(cls, attr, obj, new)
        self._patch(cache, "open", vars(cache).get("open", _ABSENT), self._counting_open)
        return self

    def _counting_open(self, file, mode="r", *args, **kwargs):
        """``open`` as the cache module sees it while tracing: files opened
        for reading count the lines the caller iterates."""
        fh = open(file, mode, *args, **kwargs)
        return fh if any(c in mode for c in "wax+") else _LineCountingFile(fh, self)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_s(k) for k in self.acc if k.startswith(prefix))

    def pass_metrics(self) -> dict:
        """The per-layer metrics of the pass since ``reset_pass``; times are
        less the tracer's cost charged by ``settle``."""
        c, n, s, t = self.counts, self.calls, self.self_s, self.total_s
        walk_points = c["reps.all_representations.yielded_under.moduli.level_set_points"]
        return {
            "orbits.partition.calls": n("orbits.orbit_partition"),
            "orbits.partition.self_s": s("orbits.orbit_partition"),
            "orbits.partition.points": c["orbits.points"],
            "orbits.points_per_s": _ratio(c["orbits.points"], t("orbits.orbit_partition")),
            "orbits.cap_use": self.cap_use,
            "reps.enum.points": c["reps.all_representations.yielded"],
            "reps.enum.self_s": s("reps.all_representations"),
            "reps.hom_space.calls": n("reps.hom_space"),
            "reps.hom_space.self_s": s("reps.hom_space"),
            "reps.end_scan.calls": n("reps.scan_endomorphisms"),
            "reps.end_scan.self_s": s("reps.scan_endomorphisms"),
            "reps.end_scan.space": c["reps.end_scan.space"],
            "reps.end_scan.early_exit_frac": _ratio(c["reps.indecomposable.false"],
                                                    c["reps.indecomposable.calls"]),
            "ffield.self_s": self.layer_self("ffield"),
            "ffield.matrix_calls": sum(n(k) for k in self.acc if k.startswith("ffield.FqMatrix.")),
            "ffield.det_calls": n("ffield.FqMatrix.det"),
            "ffield.mul_calls": n("ffield.FqMatrix.mul"),
            "ffield.rref_calls": n("ffield.FqMatrix.rref"),
            "counting.classify.calls": n("counting.classify_classes"),
            "counting.classify.repeat_frac": _ratio(c["counting.classify.repeats"],
                                                    n("counting.classify_classes")),
            "counting.burnside.self_s": s("counting.count_iso_classes"),
            "counting.burnside.group_elements": c["counting.burnside.group_elements"],
            "counting.kac.evaluations": c["counting.kac.evaluations"],
            "moduli.level_walk.calls": n("moduli.level_set_points"),
            "moduli.level_walk.self_s": s("moduli.level_set_points"),
            "moduli.level_walk.points": walk_points,
            "moduli.level_walk.hit_frac": _ratio(c["moduli.level_set_points.yielded"],
                                                 walk_points),
            "moduli.moment_map.calls": n("moduli.moment_map"),
            "series.self_s": self.layer_self("series"),
            "quiver.self_s": self.layer_self("quiver"),
            "cache.lookup.calls": n("cache.cache_lookup"),
            "cache.lookup_s": t("cache.cache_lookup"),
            "cache.lines_scanned": c["cache.lines_scanned"],
            "cache.hit_frac": _ratio(c["cache.hits"], n("cache.cache_lookup")),
            "cache.store_s": t("cache.cache_store"),
            "cli.main.calls": n("cli.main"),
            "cli.self_s": self.layer_self("cli"),
        }

    def inclusive_seconds(self) -> dict:
        """Time including children, for the names the layer shares use."""
        t = self.total_s
        return {
            "orbits.orbit_partition": t("orbits.orbit_partition"),
            "reps.scan_endomorphisms": t("reps.scan_endomorphisms"),
            "moduli.level_set_points": t("moduli.level_set_points"),
            "cache.cache_lookup+cache_store": t("cache.cache_lookup") + t("cache.cache_store"),
            "cli.main": t("cli.main"),
        }

    def layer_self_seconds(self) -> dict:
        return {layer: self.layer_self(layer) for layer in LAYERS}


_ABSENT = object()  # marks a patched name that did not exist before


class _LineCountingFile:
    """A read-only file whose iteration adds the lines it yields to
    ``cache.lines_scanned``."""

    def __init__(self, fh, tracer):
        self._fh = fh
        self._tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __iter__(self):
        n = 0
        try:
            for line in self._fh:
                n += 1
                yield line
        finally:
            self._tracer.counts["cache.lines_scanned"] += n


def wrapper_cost(n: int = 5000, repeats: int = 3) -> tuple[float, float]:
    """What one timed window costs in this process: (inside, outside) in
    seconds.  The inside part lands in the callee's time, the outside part
    in the caller's self time.  Each is the median of ``repeats`` probes of
    ``n`` wrapped calls to a no-op, less the same loop unwrapped."""
    probe = Tracer()

    def noop():
        return None

    def loop(fn):
        for _ in range(n):
            fn()

    child = probe._wrap_function("child", noop, keep=False)
    parent = probe._wrap_function("parent", loop, keep=False)
    inside, outside = [], []
    for _ in range(repeats):
        probe.reset_pass()
        parent(child)
        start = perf_counter()
        loop(noop)
        bare = perf_counter() - start
        inside.append(probe.acc["child"][2] / n)
        outside.append((probe.acc["parent"][3] - bare) / n)
    return median(inside), median(outside)


def _ratio(a, b) -> float:
    """a / b, or 0.0 when nothing was attempted."""
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# counts recorded at the wrappers; keyed by wrapped name


def _cap_arg(args, kwargs, position):
    return kwargs.get("cap", args[position] if len(args) > position else DEFAULT_CAP)


def _after_orbit_partition(tracer, args, kwargs, result):
    n_points = result[1]
    tracer.counts["orbits.points"] += n_points
    tracer.cap_use = max(tracer.cap_use, n_points / _cap_arg(args, kwargs, 3))


def _after_scan(tracer, args, kwargs, result):
    tracer.counts["reps.end_scan.space"] += args[0].field.q ** result[0]


def _after_is_indecomposable(tracer, args, kwargs, result):
    tracer.counts["reps.indecomposable.calls"] += 1
    if not result:
        tracer.counts["reps.indecomposable.false"] += 1


def _before_classify(tracer, args, kwargs):
    key = (_content_hash(args[0]), tuple(args[1]), args[2])
    if key in tracer.seen_classify:
        tracer.counts["counting.classify.repeats"] += 1
    tracer.seen_classify.add(key)


def _before_count_iso(tracer, args, kwargs):
    tracer.counts["counting.burnside.group_elements"] += _gl_order(tuple(args[1]), args[2])


def _before_count_abs(tracer, args, kwargs):
    if tracer.parent_name() == "counting.kac_polynomial":
        tracer.counts["counting.kac.evaluations"] += 1


def _after_cache_lookup(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["cache.hits"] += 1


_BEFORE = {
    "counting.classify_classes": _before_classify,
    "counting.count_iso_classes": _before_count_iso,
    "counting.count_abs_indecomposable": _before_count_abs,
}
_AFTER = {
    "orbits.orbit_partition": _after_orbit_partition,
    "reps.scan_endomorphisms": _after_scan,
    "reps.is_indecomposable": _after_is_indecomposable,
    "cache.cache_lookup": _after_cache_lookup,
}
