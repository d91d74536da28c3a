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
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable

from . import mis
from .configs import ball, iter_configs, tight_sets
from .discharge import DischargeError, negative_vertices, run_main
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
    ``steps`` holds one entry per step in pre-order, as the JSON writes it.
    The entries are plain dicts shared with ``to_json``, so a certificate
    is unhashable on purpose."""

    __hash__ = None

    ratio: str
    graph_hash: str
    n: int
    bound: int
    independent_set: tuple[int, ...]
    steps: tuple[dict, ...]

    @property
    def size(self) -> int:
        return len(self.independent_set)

    @property
    def root(self) -> dict:
        """The steps as a nested tree, a step's sub-trees under ``child``
        for one and ``children`` for several: a view built on each read,
        each entry taking the sub-trees built after it."""
        built: list[dict] = []  # the first sub-tree in order last
        for entry in reversed(self.steps):
            node = {k: v for k, v in entry.items() if k != "kids"}
            kids = [built.pop() for _ in range(entry.get("kids", 1))]
            if kids:
                node |= {"child": kids[0]} if len(kids) == 1 else {"children": kids}
            built.append(node)
        return built[0]

    def to_json(self) -> str:
        payload = {
            "format": CERT_FORMAT,
            "ratio": self.ratio,
            "graph_hash": self.graph_hash,
            "n": self.n,
            "bound": self.bound,
            "size": self.size,
            "independent_set": list(self.independent_set),
            "steps": list(self.steps),
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
        _check_counts(payload["steps"])
        return cls(
            ratio=payload["ratio"],
            graph_hash=payload["graph_hash"],
            n=payload["n"],
            bound=payload["bound"],
            independent_set=tuple(payload["independent_set"]),
            steps=tuple(payload["steps"]),
        )


def _check_counts(steps) -> None:
    """Refuse a pre-order list whose ``kids`` counts do not make one tree,
    naming the entry, in one pass that counts the sub-trees still owed."""
    if not isinstance(steps, list) or not steps:
        raise CertificateError("steps is not a non-empty list")
    owed = 1  # the root
    for i, entry in enumerate(steps):
        if not isinstance(entry, dict) or "child" in entry or "children" in entry:
            raise CertificateError(f"{_at(i)}: not an object, or holds 'child' or 'children'")
        if not owed:
            raise CertificateError(f"{_at(i)}: after the root's tree has closed")
        due = entry.get("kids", 1)
        if due == 1 and "kids" in entry:  # left out where it is one
            raise CertificateError(f"{_at(i)}: 'kids' {_brief(due)} where none is written")
        room = len(steps) - i - owed  # the most the entries after it can hold
        if type(due) is not int or not 0 <= due <= room:
            raise CertificateError(f"{_at(i)}: 'kids' {_brief(due)} is not in 0..{room}")
        owed += due - 1


# -- the step engine -------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One step of the recursion on ``g``: the sub-instances (graphs) it
    leaves and how their solutions combine into a solution of ``g``.

    ``fields`` are the certificate fields the choice of step fixes.
    ``combine(sols)`` maps the sub-solutions to the solution; it keeps no
    sub-instance alive.  An entry records the step's op, its choices and
    the number of its sub-instances, and nothing replay derives; the set
    is recorded once, in the certificate header.
    """

    op: str
    fields: dict
    subs: tuple[EmbeddedGraph, ...]
    combine: Callable[[list[frozenset[int]]], frozenset[int]]

    def entry(self) -> dict:
        """The step's entry in ``steps``: its op, its fields, and the number
        of its sub-instances in ``kids`` where that is not one."""
        kids = len(self.subs)
        return {"op": self.op} | self.fields | ({} if kids == 1 else {"kids": kids})

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
    edit: its one entry stands for the fan-chord triangulation too."""
    fill = g.n - len(cert.plan.s) + cert.plan.t > BASE_EXACT_N
    reduced, ctx = apply_plan(g, cert, fill)
    fields = {"plan": cert.plan.summary()} | label
    return Step("reduce", fields, (reduced,), lambda sols: lift(sols[0], ctx))


def _split(g: EmbeddedGraph, c: Ratio, triangle) -> Step:
    sp = split_plan(g, triangle, c)
    subs, merged = split_subproblems(g, sp)
    fields = {"triangle": list(sp.triangle)}
    return Step("split", fields, subs, lambda sols: split_combine(g, sp, sols, merged))


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


def next_step(g: EmbeddedGraph, c: Ratio, entry: dict | None = None) -> Step:
    """The step taken on ``g``: the one copy of the order.  The graph forces
    components, the exact base case and triangulation; a reduction's plan
    and a split's triangle are the planner's, or the recorded ``entry``'s."""
    if not g.is_connected():
        return _components(g)
    if g.n <= BASE_EXACT_N:
        return _exact(g)
    if not g.is_triangulation():
        return Step("triangulate", {}, (triangulate(g),), lambda sols: sols[0])
    if entry is not None:
        return _recorded(g, c, entry)
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


def _recorded(g: EmbeddedGraph, c: Ratio, entry: dict) -> Step:
    """The step a recorded ``reduce`` or ``split`` entry chooses."""
    op = entry.get("op")
    if op == "split":
        return _split(g, c, _get(entry, "triangle", _ids))
    if op != "reduce":
        raise CertificateError(f"op {_brief(op)} where a reduce or split is due")
    rec = _get(entry, "plan", lambda v: isinstance(v, dict))
    s = frozenset(_get(rec, "S", _ids))
    parts = _get(rec, "parts", lambda v: isinstance(v, list) and all(map(_ids, v)))
    plan = ReductionPlan(s, tuple(map(frozenset, parts)), c)
    label = {}
    if "match" in entry:  # recorded for the catalog's steps, never interpreted
        label["match"] = _get(entry, "match", lambda v: isinstance(v, str))
    return _reduce(g, certify_plan(g, plan), **label)


# -- extraction and replay -------------------------------------------------------


@dataclass
class _Level:
    """An open level of the walk: its step with the sub-instances taken
    off, the sub-instances not yet run, and what the finished ones gave."""

    step: Step
    n: int
    i: int  # its index in pre-order, the index of its entry in ``steps``
    todo: list  # the sub-instances not yet run, last first
    sols: list = field(default_factory=list)


def _walk(g: EmbeddedGraph, c: Ratio, expand, short) -> tuple[frozenset[int], int]:
    """Run the steps from ``g`` in post-order, on an explicit stack; return
    the solution and the number of steps run.

    ``expand(g, i)`` returns the step taken on ``g``, the ``i``-th in
    pre-order.  A level whose solution breaks its size contract at ``c``
    raises ``short(where, n)``.  Once a level's sub-instances are on the
    stack it keeps only its combine data and ``n``, so no level's graph
    outlives its step.  The walk alone holds every sub-instance, so it
    marks each as owned, and the reduction on it may consume it; ``g``
    stays whole.
    """
    stack: list[_Level] = []
    order = count()

    def push(sub: EmbeddedGraph) -> None:
        i, n = next(order), sub.n
        sub._owned = i > 0
        step = expand(sub, i)
        stack.append(_Level(replace(step, subs=()), n, i, list(step.subs[::-1])))

    push(g)
    while True:
        top = stack[-1]
        if top.todo:
            push(top.todo.pop())
            continue
        stack.pop()
        out = top.step.combine(top.sols)
        if len(out) < c.ceil_mul(top.n):  # checked at every level
            raise short(_at(top.i, top.step.op), top.n)
        if not stack:
            return out, next(order)
        stack[-1].sols.append(out)


def extract(g: EmbeddedGraph, c: Ratio | str) -> Certificate:
    """Extract a verified independent set of size >= ceil(c*n) with trace."""
    ratio = Ratio.parse(c) if isinstance(c, str) else c
    steps = []

    def expand(sub, i):
        step = next_step(sub, ratio)
        steps.append(step.entry())
        return step

    def short(where, n):
        return IncompletenessDiagnostic(g, ratio, f"{where}, n={n}")

    sol = _walk(g, ratio, expand, short)[0]
    if not mis.verify_independent(g, sol):
        raise LiftError("extracted set not independent")
    return Certificate(
        ratio=str(ratio),
        graph_hash=g.graph_hash(),
        n=g.n,
        bound=ratio.ceil_mul(g.n),
        independent_set=tuple(sorted(sol)),
        steps=tuple(steps),
    )


def _replay(g: EmbeddedGraph, steps, c: Ratio) -> frozenset[int]:
    """Re-run the recorded steps, checking each entry before its sub-trees
    run, and that the walk reads the list to its end and no further."""

    def expand(sub, i):
        try:
            if i == len(steps):
                raise CertificateError("the step list ends before the walk")
            entry = steps[i]
            if not isinstance(entry, dict):
                raise CertificateError("not an object")
            step = next_step(sub, c, entry)
            if entry.get("op") != step.op:
                raise CertificateError(f"op {_brief(entry.get('op'))} where {step.op!r} is due")
        except CertificateError as exc:
            raise CertificateError(f"{_at(i)}: {exc}") from None
        ours = step.entry()
        if ours != entry:
            keys = ", ".join(sorted(str(k) for k in ours | entry if k not in ours
                                    or k not in entry or ours[k] != entry[k]))
            raise CertificateError(f"{_at(i, step.op)}: replay diverges in {_brief(keys)}")
        return step

    def short(where, n):
        return CertificateError(f"{where}: recorded set breaks the size contract")

    got, ran = _walk(g, c, expand, short)
    if ran < len(steps):
        raise CertificateError(f"{_at(ran)}: after the root's tree has closed")
    return got


def check_certificate(g: EmbeddedGraph, cert: Certificate) -> tuple[bool, str]:
    """Check the claimed set in O(n+m), then replay the steps and match the
    set they give; (ok, reason).  Never raises on a malformed certificate,
    one that exhausts the oracle's budget too."""
    if cert.graph_hash != g.graph_hash():
        return False, "graph hash mismatch"
    try:
        ratio = Ratio.parse(str(cert.ratio))
    except ValueError as exc:
        return False, str(exc)
    if cert.bound != ratio.ceil_mul(g.n) or cert.n != g.n:
        return False, "header bound/size mismatch"
    claim = cert.independent_set
    if not isinstance(claim, tuple) or not all(type(v) is int and g.has_vertex(v)
                                               for v in claim):
        return False, "claimed set is not a tuple of the graph's vertices"
    if not mis.verify_independent(g, claim):
        return False, "claimed set not independent"
    if len(claim) < cert.bound:
        return False, "claimed set below bound"
    try:
        got = _replay(g, cert.steps, ratio)
    except (CertificateError, GraphError, LiftError, PlanRejected) as exc:
        return False, str(exc)
    except mis.OracleBudgetExceeded as exc:
        return False, f"oracle budget exceeded: {exc}"
    if tuple(sorted(got)) != claim:
        return False, "final set differs from trace"
    return True, "ok"
