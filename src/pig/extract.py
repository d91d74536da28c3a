"""Certified extraction and replayable certificates.

The extractor peels a planar graph down with the cheapest sound move at
every level: per-component handling, an exact base case, triangulation,
low-degree reductions, separating-triangle splits, then oracle-certified
configuration reductions.  ``next_step`` is the one place that order is
written, for extraction, certificate replay and ``pig reduce``; replay
reads only a reduction's plan and a split's triangle from the record, and
never runs the planner.  ``_walk`` runs the levels of both on an explicit
stack.  Solutions are lifted bottom-up; every level checks its own size
contract and independence where its step could break it, and the whole
set is checked once at the root, so the final certificate either meets
ceil(c*n) or the run raises a typed error.
"""

from __future__ import annotations

import json
import reprlib
import time
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable, Sequence

from . import mis
from .configs import ball, iter_configs, tight_sets
from .discharge import DischargeError, negative_vertices, run_main
from .generate import GenSpec, GenerationError, generate
from .graph import (
    EmbeddedGraph,
    GraphError,
    separating_triangles,
    triangulate,
)
from .reduce import (
    CertifiedPlan,
    LiftError,
    PlanRejected,
    Ratio,
    ReductionPlan,
    apply_plan,
    candidate_plans,
    certify_plan,
    find_low_degree_plan,
    lift,
    plans_for_independent_set,
    split_combine,
    split_plan,
    split_subproblems,
)

BASE_EXACT_N = 20
CERT_FORMAT = "pig-certificate/7"
_HEADER = {"format", "ratio", "graph_hash", "n", "bound", "size",
           "independent_set", "steps"}


class IncompletenessDiagnostic(RuntimeError):
    """No certified reduction found on a min-degree-5 triangulation without
    separating triangles: a detector or planner gap.  Carries the offending
    graph for triage; extraction never silently returns an undersized set.
    A level whose set falls short of its size contract is reported with
    the root graph and ``where`` the level is, since its own graph is gone."""

    def __init__(self, g: EmbeddedGraph, ratio: Ratio, where: str | None = None):
        what = (
            f"size contract broken at {where}" if where
            else f"no certified reduction on n={g.n} triangulation"
        )
        super().__init__(f"{what} at ratio {ratio}")
        self.graph_text = g.serialize()
        self.ratio = str(ratio)


class CertificateError(ValueError):
    """Certificate fails structural validation before replay."""


@dataclass(frozen=True)
class Certificate:
    """Extraction result plus the ordered reduction trace for replay:
    ``root`` is the step tree, which the JSON writes as a flat list."""

    ratio: str
    graph_hash: str
    n: int
    bound: int
    independent_set: tuple[int, ...]
    root: dict

    @property
    def size(self) -> int:
        return len(self.independent_set)

    def to_json(self) -> str:
        payload = {
            "format": CERT_FORMAT,
            "ratio": self.ratio,
            "graph_hash": self.graph_hash,
            "n": self.n,
            "bound": self.bound,
            "size": self.size,
            "independent_set": list(self.independent_set),
            "steps": _steps(self.root),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int over the digit limit
            raise CertificateError(f"bad JSON: {exc}") from None
        except RecursionError:
            raise CertificateError("bad JSON: nested too deep") from None
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != CERT_FORMAT:
            read = repr(fmt[:40]) if isinstance(fmt, str) else "none"
            raise CertificateError(
                f"unknown certificate format {read}, expected {CERT_FORMAT!r}")
        if payload.keys() != _HEADER:
            odd = _brief(", ".join(sorted(payload.keys() ^ _HEADER)))
            raise CertificateError(f"header fields missing or unknown: {odd}")
        if not isinstance(payload["independent_set"], list):
            raise CertificateError("independent_set is not a list")
        numbers = (payload["n"], payload["bound"], payload["size"])
        if any(type(x) is not int for x in (*numbers, *payload["independent_set"])):
            raise CertificateError("n, bound, size and the set's members must be ints")
        if payload["size"] != len(payload["independent_set"]):
            raise CertificateError("header size is not the set's size")
        return cls(
            ratio=payload["ratio"],
            graph_hash=payload["graph_hash"],
            n=payload["n"],
            bound=payload["bound"],
            independent_set=tuple(payload["independent_set"]),
            root=_tree(payload["steps"]),
        )


def _steps(root: dict) -> list[dict]:
    """The step tree in pre-order, each node without its sub-trees and
    with their count in ``kids`` where it is not one."""
    out, todo = [], [root]
    while todo:
        node = todo.pop()
        kids = _recorded_kids(node)
        entry = {k: v for k, v in node.items() if k not in ("child", "children")}
        if len(kids) != 1:
            entry["kids"] = len(kids)
        out.append(entry)
        todo += reversed(kids)
    return out


def _tree(steps) -> dict:
    """The step tree that a pre-order list of steps writes, rebuilt from
    the last entry back, each entry taking the sub-trees built after it;
    a list whose counts do not add up is refused, naming the entry."""
    if not isinstance(steps, list) or not steps:
        raise CertificateError("steps is not a non-empty list")
    built: list[tuple[int, dict]] = []  # (index, sub-tree), the first in order last
    for i in reversed(range(len(steps))):
        node = steps[i]
        if not isinstance(node, dict) or "child" in node or "children" in node:
            raise CertificateError(f"{_at(i)}: not an object, or holds 'child' or 'children'")
        written = node.pop("kids", None)
        if written == 1:  # left out where it is one
            raise CertificateError(f"{_at(i)}: 'kids' {_brief(written)} where none is written")
        due = 1 if written is None else written
        if type(due) is not int or not 0 <= due <= len(built):
            raise CertificateError(f"{_at(i)}: 'kids' {_brief(due)} is not in 0..{len(built)}")
        kids = [built.pop()[1] for _ in range(due)]
        if kids:
            node |= {"child": kids[0]} if due == 1 else {"children": kids}
        built.append((i, node))
    if len(built) > 1:
        raise CertificateError(f"{_at(built[-2][0])}: after the root's tree has closed")
    return built[0][1]


# -- the step engine -------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One step of the recursion on ``g``: the sub-instances (graphs) it
    leaves and how their solutions combine into a solution of ``g``.

    ``fields`` are the certificate fields the choice of step fixes.
    ``combine(sols)`` maps the sub-solutions to the solution; it keeps no
    sub-instance alive.  A node records the step's op, its choices and its
    sub-trees, ``child`` for one and ``children`` for several, and nothing
    replay derives; the set is recorded once, in the certificate header.
    """

    op: str
    fields: dict
    subs: tuple[EmbeddedGraph, ...]
    combine: Callable[[list[frozenset[int]]], frozenset[int]]

    def finish(self, sols: list, kids: list) -> tuple[frozenset[int], dict]:
        """Combine the sub-solutions; return the solution and its node."""
        node = {"op": self.op} | self.fields
        if kids:
            node |= {"child": kids[0]} if len(kids) == 1 else {"children": kids}
        return self.combine(sols), node

    def summary(self) -> dict:
        """The step as ``pig reduce`` prints it."""
        return {"step": self.op, "count": len(self.subs)} | self.fields


def _exact(g: EmbeddedGraph) -> Step:
    def combine(sols):
        out = frozenset(mis.mis_exact(g))
        if not mis.verify_independent(g, out):
            raise LiftError("exact solution not independent")  # unreachable
        return out

    return Step("exact", {}, (), combine)


def _components(g: EmbeddedGraph) -> Step:
    return Step(
        "components", {}, tuple(g.subgraph(comp) for comp in g.components()),
        lambda sols: frozenset().union(*sols),
    )


def _reduce(g: EmbeddedGraph, cert: CertifiedPlan, **label) -> Step:
    """A reduction that leaves more than ``BASE_EXACT_N`` vertices, which
    the next step would triangulate, chords what it leaves in the same
    edit: its one node stands for the fan-chord triangulation too."""
    fill = g.n - len(cert.plan.s) + cert.plan.t > BASE_EXACT_N
    reduced, ctx = apply_plan(g, cert, fill)
    fields = {"plan": cert.plan.summary()} | label
    return Step("reduce", fields, (reduced,), lambda sols: lift(sols[0], ctx))


def _split(g: EmbeddedGraph, c: Ratio, triangle) -> Step:
    sp = split_plan(g, triangle, c)
    subs = split_subproblems(g, sp)
    tags = [(sub.tag, sub.merged, sub.floor) for sub in subs]  # not the graphs

    def combine(sols):
        if any(len(sol) < floor for (_, _, floor), sol in zip(tags, sols)):
            raise LiftError("split sub-solution below its floor")  # unreachable
        return split_combine(
            g, sp,
            {tag: sol for (tag, _, _), sol in zip(tags, sols)},
            {tag: merged for tag, merged, _ in tags},
        )

    fields = {"triangle": list(sp.triangle)}
    return Step("split", fields, tuple(sub.graph for sub in subs), combine)


def _certified_config_plan(g: EmbeddedGraph, c: Ratio) -> tuple[CertifiedPlan, str]:
    """Search matches in priority order, certify candidate plans, windowed
    to the negative-charge neighborhoods first and globally after.  Returns
    the certified plan and the label of what found it."""
    windows: frozenset[int] | None
    try:
        windows = ball(g, negative_vertices(run_main(g)), 2)
    except DischargeError:
        windows = None
    scopes = [windows, None] if windows else [None]
    for scope in scopes:
        for match in iter_configs(g, scope):
            for plan in candidate_plans(g, match, c):
                try:
                    return certify_plan(g, plan), match.kind
                except PlanRejected:
                    continue
    # last resort: generic tight independent sets near negative charge
    sweep_scopes = [s for s in (windows, frozenset(g.vertices)) if s]
    for scope in sweep_scopes:
        for jset in tight_sets(g, scope):
            for plan in plans_for_independent_set(g, jset, c):
                try:
                    return certify_plan(g, plan), "sweep"
                except PlanRejected:
                    continue
    raise IncompletenessDiagnostic(g, c)


def next_step(g: EmbeddedGraph, c: Ratio, node: dict | None = None) -> Step:
    """The step taken on ``g``: the one copy of the order.  The graph forces
    components, the exact base case and triangulation; a reduction's plan
    and a split's triangle are the planner's, or the recorded ``node``'s."""
    if not g.is_connected():
        return _components(g)
    if g.n <= BASE_EXACT_N:
        return _exact(g)
    if not g.is_triangulation():
        return Step("triangulate", {}, (triangulate(g),), lambda sols: sols[0])
    if node is not None:
        return _recorded(g, c, node)
    plan = find_low_degree_plan(g, c)
    if plan is not None:
        return _reduce(g, certify_plan(g, plan))
    septris = separating_triangles(g)
    if septris:
        return _split(g, c, septris[0])
    cert, label = _certified_config_plan(g, c)
    return _reduce(g, cert, match=label)


def _at(i: int, op: str | None = None) -> str:
    """How messages name the step with pre-order index ``i``, the index
    of its entry in ``steps``, and with its op once it is known."""
    return f"step {i}" if op is None else f"step {i} ({op})"


def _brief(value) -> str:
    """``value`` as an error message echoes it: a repr cut in depth and
    to 40 characters, however deep or long the recorded value is."""
    return reprlib.repr(value)[:40]


def _get(record, key: str, ok: Callable[[object], bool]):
    """A recorded choice, type-checked before replay uses it."""
    value = record.get(key)
    if not ok(value):
        raise CertificateError(f"malformed {key!r}: {_brief(value)}")
    return value


def _ids(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _recorded(g: EmbeddedGraph, c: Ratio, node: dict) -> Step:
    """The step a recorded ``reduce`` or ``split`` node chooses."""
    op = node.get("op")
    if op == "split":
        return _split(g, c, _get(node, "triangle", _ids))
    if op != "reduce":
        raise CertificateError(f"op {_brief(op)} where a reduce or split is due")
    rec = _get(node, "plan", lambda v: isinstance(v, dict))
    s = frozenset(_get(rec, "S", _ids))
    parts = _get(rec, "parts", lambda v: isinstance(v, list) and all(map(_ids, v)))
    plan = ReductionPlan(s, tuple(map(frozenset, parts)), c)
    label = {}
    if "match" in node:  # recorded for the catalog's steps, never interpreted
        label["match"] = _get(node, "match", lambda v: isinstance(v, str))
    return _reduce(g, certify_plan(g, plan), **label)


def _recorded_kids(node: dict) -> list:
    """The recorded sub-trees; a malformed one fails where it is replayed."""
    if "child" in node:
        return [node["child"]]
    kids = node.get("children", [])
    return kids if isinstance(kids, list) else [None]


def _own(node: dict) -> dict:
    """The node with its sub-trees blanked: the fields replay compares.
    Comparing whole sub-trees at every level would make replay quadratic."""
    return {k: None if k in ("child", "children") else v for k, v in node.items()}


# -- extraction and replay -------------------------------------------------------


@dataclass
class _Level:
    """An open level of the walk: its step with the sub-instances taken
    off, the sub-instances not yet run, and what the finished ones gave."""

    step: Step
    n: int
    i: int  # its index in pre-order, the index of its entry in ``steps``
    record: object  # the recorded node on replay
    todo: list  # (graph, record) per sub-instance not yet run, last first
    sols: list = field(default_factory=list)
    nodes: list = field(default_factory=list)

    @property
    def where(self) -> str:
        return _at(self.i, self.step.op)


def _walk(g: EmbeddedGraph, record, expand, close) -> tuple[frozenset[int], dict]:
    """Run the steps from ``g`` in post-order, on an explicit stack.

    ``expand(g, record, i)`` returns the step taken on ``g``, the ``i``-th
    in pre-order, and one record per sub-instance.
    ``close(level, out, node)`` checks a finished level and returns the
    node its parent combines.  Once a level's sub-instances are on the
    stack it keeps only its combine data and ``n``, so no level's graph
    outlives its step.
    """
    stack: list[_Level] = []
    order = count()

    def push(sub: EmbeddedGraph, rec) -> None:
        i = next(order)
        step, kids = expand(sub, rec, i)
        todo = list(zip(step.subs, kids))[::-1]
        stack.append(_Level(replace(step, subs=()), sub.n, i, rec, todo))

    push(g, record)
    while True:
        top = stack[-1]
        if top.todo:
            push(*top.todo.pop())
            continue
        stack.pop()
        out, node = top.step.finish(top.sols, top.nodes)
        node = close(top, out, node)
        if not stack:
            return out, node
        stack[-1].sols.append(out)
        stack[-1].nodes.append(node)


def extract(g: EmbeddedGraph, c: Ratio | str) -> Certificate:
    """Extract a verified independent set of size >= ceil(c*n) with trace."""
    ratio = Ratio.parse(c) if isinstance(c, str) else c

    def expand(sub, rec, i):
        step = next_step(sub, ratio)
        return step, [None] * len(step.subs)

    def close(level, out, node):
        if len(out) < ratio.ceil_mul(level.n):  # checked at every level
            raise IncompletenessDiagnostic(g, ratio, f"{level.where}, n={level.n}")
        return node

    sol, root = _walk(g, None, expand, close)
    if not mis.verify_independent(g, sol):
        raise LiftError("extracted set not independent")
    return Certificate(
        ratio=str(ratio),
        graph_hash=g.graph_hash(),
        n=g.n,
        bound=ratio.ceil_mul(g.n),
        independent_set=tuple(sorted(sol)),
        root=root,
    )


def _replay(g: EmbeddedGraph, root, c: Ratio) -> frozenset[int]:
    """Re-run the recorded steps and check each node's own fields."""

    def expand(sub, node, i):
        try:
            if not isinstance(node, dict):
                raise CertificateError("not a node")
            step = next_step(sub, c, node)
            if node.get("op") != step.op:
                raise CertificateError(f"op {_brief(node.get('op'))} where {step.op!r} is due")
            kids = _recorded_kids(node)
            if len(kids) != len(step.subs):
                raise CertificateError(
                    f"{len(kids)} sub-trees recorded, the step makes {len(step.subs)}"
                )
        except CertificateError as exc:
            raise CertificateError(f"{_at(i)}: {exc}") from None
        return step, kids

    def close(level, got, fresh):
        ours, theirs = _own(fresh), _own(level.record)
        if ours != theirs:
            keys = ", ".join(sorted(k for k in ours | theirs if ours.get(k) != theirs.get(k)))
            raise CertificateError(f"{level.where}: replay diverges in {_brief(keys)}")
        if len(got) < c.ceil_mul(level.n):
            raise CertificateError(f"{level.where}: recorded set breaks the size contract")
        return level.record  # the parent compares its own fields only

    return _walk(g, root, expand, close)[0]


def check_certificate(g: EmbeddedGraph, cert: Certificate) -> tuple[bool, str]:
    """Replay every step and size-ledger entry; (ok, reason).  Never raises
    on a malformed certificate, one that exhausts the oracle's budget too."""
    if cert.graph_hash != g.graph_hash():
        return False, "graph hash mismatch"
    try:
        ratio = Ratio.parse(str(cert.ratio))
    except ValueError as exc:
        return False, str(exc)
    if cert.bound != ratio.ceil_mul(g.n) or cert.n != g.n:
        return False, "header bound/size mismatch"
    try:
        got = _replay(g, cert.root, ratio)
    except (CertificateError, GraphError, LiftError, PlanRejected) as exc:
        return False, str(exc)
    except mis.OracleBudgetExceeded as exc:
        return False, f"oracle budget exceeded: {exc}"
    if tuple(sorted(got)) != cert.independent_set:
        return False, "final set differs from trace"
    if not mis.verify_independent(g, got):
        return False, "final set not independent"
    if len(got) < cert.bound:
        return False, "final set below bound"
    return True, "ok"


# -- corpus ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    spec: GenSpec
    n: int
    bound: int
    size: int
    ok: bool
    seconds: float
    diagnostic: str | None = None
    graph_text: str | None = None


@dataclass(frozen=True)
class CorpusReport:
    ratio: str
    entries: tuple[CorpusEntry, ...]

    @property
    def successes(self) -> int:
        return sum(1 for e in self.entries if e.ok)

    @property
    def diagnostics(self) -> tuple[CorpusEntry, ...]:
        return tuple(e for e in self.entries if e.diagnostic)

    def summary(self) -> dict:
        achieved = [e.size / e.n for e in self.entries if e.ok and e.n]
        return {
            "ratio": self.ratio,
            "instances": len(self.entries),
            "successes": self.successes,
            "diagnostics": len(self.diagnostics),
            "min_achieved_ratio": round(min(achieved), 4) if achieved else None,
            "mean_achieved_ratio": (
                round(sum(achieved) / len(achieved), 4) if achieved else None
            ),
            "total_seconds": round(sum(e.seconds for e in self.entries), 3),
        }


def corpus_run(specs: Sequence[GenSpec], c: Ratio | str) -> CorpusReport:
    """Extraction over a generated corpus; diagnostics are collected, not
    raised, so one bad instance cannot hide the rest."""
    ratio = Ratio.parse(c) if isinstance(c, str) else c
    entries = []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            g = generate(spec)
        except (GenerationError, GraphError) as exc:
            entries.append(
                CorpusEntry(spec, 0, 0, 0, False, time.perf_counter() - t0, str(exc))
            )
            continue
        size, ok, diagnostic, graph_text = 0, False, None, None
        try:
            cert = extract(g, ratio)
            size = cert.size
            ok = size >= cert.bound and mis.verify_independent(g, cert.independent_set)
        except IncompletenessDiagnostic as exc:
            diagnostic, graph_text = str(exc), exc.graph_text
        except mis.OracleBudgetExceeded as exc:
            diagnostic = f"oracle budget exceeded: {exc}"
        entries.append(CorpusEntry(
            spec, g.n, ratio.ceil_mul(g.n), size, ok,
            time.perf_counter() - t0, diagnostic, graph_text,
        ))
    return CorpusReport(str(ratio), tuple(entries))
