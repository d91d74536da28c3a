"""Span tracing of pig's layers from outside the package.

``Tracer.install`` replaces each public function of the traced layers by a
wrapper that records one span per call: name, start, end, parent span and
the id of the benchmark operation it ran under.  A name is patched in every
loaded ``pig`` module that binds it (``extract`` imports ``triangulate``,
``certify_plan``, ``run_main`` and others with ``from ... import``), so
every call site is reached; ``uninstall`` puts the originals back.
Generator functions get one span per ``next()``.

Spans are kept in memory while the run lasts.  A span's self time is its
duration minus the time covered by its child spans; calls nest strictly in
one thread, so that is the duration minus the sum of the children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# (layer, module, attribute, kind).  The layer prefixes every metric name;
# kind is "fn", "gen" (generator function), "method" or "classmethod".
TARGETS = (
    ("graph.construct", "pig.graph", "EmbeddedGraph.__init__", "method"),
    ("graph.faces", "pig.graph", "EmbeddedGraph.faces", "method"),
    ("graph.components", "pig.graph", "EmbeddedGraph.components", "method"),
    ("graph.subgraph", "pig.graph", "EmbeddedGraph.subgraph", "method"),
    ("graph.contract_set", "pig.graph", "EmbeddedGraph.contract_set", "method"),
    ("graph.triangulate", "pig.graph", "triangulate", "fn"),
    ("graph.separating_triangles", "pig.graph", "separating_triangles", "fn"),
    ("graph.parse", "pig.graph", "parse_rotation_graph", "fn"),
    ("generate", "pig.generate", "generate", "fn"),
    ("mis.alpha", "pig.mis", "alpha", "fn"),
    ("mis.mis_exact", "pig.mis", "mis_exact", "fn"),
    ("mis.alpha_at_least", "pig.mis", "alpha_at_least", "fn"),
    ("mis.verify_independent", "pig.mis", "verify_independent", "fn"),
    ("discharge.run_main", "pig.discharge", "run_main", "fn"),
    ("configs.iter_configs", "pig.configs", "iter_configs", "gen"),
    ("configs.tight_sets", "pig.configs", "tight_sets", "gen"),
    ("reduce.find_low_degree_plan", "pig.reduce", "find_low_degree_plan", "fn"),
    ("reduce.candidate_plans", "pig.reduce", "candidate_plans", "gen"),
    ("reduce.plans_for_independent_set", "pig.reduce", "plans_for_independent_set", "gen"),
    ("reduce.certify_plan", "pig.reduce", "certify_plan", "fn"),
    ("reduce.apply_plan", "pig.reduce", "apply_plan", "fn"),
    ("reduce.lift", "pig.reduce", "lift", "fn"),
    ("reduce.split_plan", "pig.reduce", "split_plan", "fn"),
    ("reduce.split_subproblems", "pig.reduce", "split_subproblems", "fn"),
    ("reduce.split_combine", "pig.reduce", "split_combine", "fn"),
    ("extract.extract", "pig.extract", "extract", "fn"),
    ("extract.check_certificate", "pig.extract", "check_certificate", "fn"),
    ("extract.to_json", "pig.extract", "Certificate.to_json", "method"),
    ("extract.from_json", "pig.extract", "Certificate.from_json", "classmethod"),
)

LAYER_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Records spans of wrapped calls made inside benchmark operations."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._next_sid = 0
        self._stack: list[int] = []
        self.op: tuple[int, str] | None = None  # (id, kind) of the open op
        self._op_ids = 0
        # span columns: name index, parent sid, op id, start, end
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_kind: dict[int, str] = {}
        self.op_wall: dict[int, float] = {}
        self._op_t0 = 0.0
        # extra counts, keyed by (op kind, metric name)
        self.counts: Counter = Counter()

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self._op_ids += 1
        self.op = (self._op_ids, kind)
        self.op_kind[self._op_ids] = kind
        self._op_t0 = time.perf_counter()

    def end_op(self) -> None:
        self.op_wall[self.op[0]] = time.perf_counter() - self._op_t0
        self.op = None
        self._stack.clear()

    def count(self, metric: str, k: int = 1) -> None:
        if self.op is not None:
            self.counts[(self.op[1], metric)] += k

    # -- spans --------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, idx: int, sid: int, parent: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.sid.append(sid)
        self.name.append(idx)
        self.parent.append(parent)
        self.op_id.append(self.op[0])
        self.start.append(t0)
        self.end.append(t1)

    def _index(self, layer: str) -> int:
        if layer not in self._name_index:
            self._name_index[layer] = len(self.names)
            self.names.append(layer)
        return self._name_index[layer]

    def span_fn(self, layer: str, fn, after=None):
        """Wrap ``fn``; ``after(args, kwargs, result, exc)`` adds counts."""
        idx = self._index(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, sid, parent, t0)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            tracer._close(idx, sid, parent, t0)
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def span_gen(self, layer: str, fn):
        """Wrap a generator function: one span per ``next()``."""
        idx = self._index(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.op is None:
                return inner
            return tracer._timed_iter(idx, layer, inner)

        return wrapper

    def _timed_iter(self, idx: int, layer: str, inner):
        while True:
            if self.op is None:
                yield from inner
                return
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                self._close(idx, sid, parent, t0)
                return
            except BaseException:
                self._close(idx, sid, parent, t0)
                raise
            self._close(idx, sid, parent, t0)
            self.count(f"{layer}.yielded")
            yield item

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every target at its definition and at each binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "pig" or k.startswith("pig."))]
        for layer, modname, attr, kind in TARGETS:
            mod = importlib.import_module(modname)
            if kind in ("method", "classmethod"):
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if kind == "classmethod":
                    wrapped = classmethod(self.span_fn(layer, raw.__func__))
                else:
                    wrapped = self.span_fn(layer, raw, _after(self, layer))
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            if kind == "gen":
                wrapped = self.span_gen(layer, original)
            else:
                wrapped = self.span_fn(layer, original, _after(self, layer))
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        pos = {sid: i for i, sid in enumerate(self.sid)}
        child = [0.0] * len(self.sid)
        for i in range(len(self.sid)):
            p = self.parent[i]
            if p >= 0:
                child[pos[p]] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.sid))]

    def layer_totals(self, kinds: set[str]) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer over ops of the given kinds."""
        selfs = self.self_times()
        calls: Counter = Counter()
        secs: defaultdict = defaultdict(float)
        for i in range(len(self.sid)):
            if self.op_kind[self.op_id[i]] in kinds:
                layer = self.names[self.name[i]]
                calls[layer] += 1
                secs[layer] += selfs[i]
        return {k: (calls[k], secs[k]) for k in calls}

    def op_self_sums(self) -> dict[int, float]:
        """Summed self time of all spans of each op."""
        out: defaultdict = defaultdict(float)
        for i, s in enumerate(self.self_times()):
            out[self.op_id[i]] += s
        return dict(out)

    def write_spans(self, path) -> None:
        """One line per span: sid parent op name start end."""
        with open(path, "w") as fh:
            for i in range(len(self.sid)):
                fh.write(
                    f"{self.sid[i]} {self.parent[i]} {self.op_id[i]} "
                    f"{self.names[self.name[i]]} {self.start[i]:.9f} "
                    f"{self.end[i]:.9f}\n"
                )


def _window(args, kwargs, pos: int) -> int:
    g = args[0]
    vs = kwargs.get("vertices", args[pos] if len(args) > pos else None)
    return g.n if vs is None else len(set(vs))


def _after(tracer: Tracer, layer: str):
    """Extra counts recorded after a call, per layer."""
    count = tracer.count
    if layer == "graph.construct":
        def after(args, kwargs, result, exc):
            if kwargs.get("validate", True):
                count("graph.construct.validated")
    elif layer == "graph.triangulate":
        def after(args, kwargs, result, exc):
            if result is not None:
                count("graph.triangulate.edges_added", result.m - args[0].m)
    elif layer in ("mis.alpha", "mis.mis_exact"):
        def after(args, kwargs, result, exc):
            count(f"{layer}.window_vertices", _window(args, kwargs, 1))
    elif layer == "mis.alpha_at_least":
        def after(args, kwargs, result, exc):
            count(f"{layer}.window_vertices", _window(args, kwargs, 2))
    elif layer == "reduce.find_low_degree_plan":
        def after(args, kwargs, result, exc):
            if result is not None:
                count("reduce.find_low_degree_plan.hits")
    elif layer == "reduce.certify_plan":
        rejected = importlib.import_module("pig.reduce").PlanRejected

        def after(args, kwargs, result, exc):
            if isinstance(exc, rejected):
                count("reduce.certify_plan.rejected")
    else:
        after = None
    return after
