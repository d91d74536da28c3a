"""Certified reductions: plans, certification, application and lifting.

A reduction plan names a vertex set S and pairwise disjoint connected parts
S_1..S_t inside it (t < |S|).  Applying it contracts each part to a fresh
vertex and deletes the rest of S; a solution of the reduced graph lifts back
by swapping selected part-vertices for an oracle-optimal completion inside
the local window.  Certification checks, for every subset X of pairwise
nonadjacent parts, that the window I(S) ∪ ∪_{i∈X} S_i holds an independent
set of size |X| + ceil(c(|S|-t)); that inequality is exactly what makes the
lift meet its size contract no matter which part-vertices the recursion
returns.  Plans are never applied uncertified.

Also here: the separating-triangle split with its guarantee arithmetic and
candidate recombination recipes, and the low-degree reductions that make
ratio 1/5 total on all planar graphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import mis
from .configs import ConfigurationMatch, joint_neighborhood
from .graph import EmbeddedGraph, triangulate


class PlanRejected(Exception):
    """A plan failed validation or certification; never applied."""


class LiftError(RuntimeError):
    """A certified lift failed its guarantee: indicates an engine bug."""


# The largest |S| of a plan, at every ratio.  A low-degree plan is N[v]
# for a v of least degree, at most 5 in a plane graph, or, where a clique
# neighborhood is passed over (ratio above 1/4), of degree <= b//a <= 3;
# so |S| <= 6.  A catalog plan is J | N(J): at most 11 vertices for
# apex_pair (J is the two apexes of an edge uv, of degrees 5 and <= 6, both
# adjacent to u and v), and 16 for low_trio_star6 (three vertices of degree
# <= 6 alternating on the ring of a 6-vertex) and for the sweep (|J| <= 3,
# |N(J)| <= 13).
MAX_PLAN_SIZE = 16


@dataclass(frozen=True, order=True)
class Ratio:
    """Target independence ratio a/b in lowest terms, 0 < a/b < 1."""

    a: int
    b: int

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.a >= self.b:
            raise ValueError(f"ratio must be in (0,1): {self.a}/{self.b}")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"ratio not in lowest terms: {self.a}/{self.b}")

    @classmethod
    def parse(cls, text: str) -> "Ratio":
        try:
            a, b = text.split("/")
            return cls(int(a), int(b))
        except ValueError:
            raise ValueError(f"cannot parse ratio {text[:40]!r}") from None

    def ceil_mul(self, n: int) -> int:
        """ceil(a*n/b)."""
        return -((-self.a * n) // self.b)

    def holds(self, j: int, x: int) -> bool:
        """j >= (a/b) * x, exactly."""
        return self.b * j >= self.a * x

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


@dataclass(frozen=True)
class ReductionPlan:
    """One constructive reduction: S and its parts, at a ratio."""

    s: frozenset[int]
    parts: tuple[frozenset[int], ...]
    ratio: Ratio

    @property
    def t(self) -> int:
        return len(self.parts)

    def need(self) -> int:
        return self.ratio.ceil_mul(len(self.s) - self.t)

    def summary(self) -> dict:
        return {"S": sorted(self.s), "parts": [sorted(p) for p in self.parts]}


@dataclass(frozen=True)
class CertifiedPlan:
    plan: ReductionPlan
    interior: frozenset[int]
    need: int
    checked: tuple[tuple[tuple[int, ...], int], ...]  # (X, want): alpha(window) >= want


@dataclass(frozen=True)
class LiftContext:
    """What a lift needs of the graph it lifts into: its size and the
    adjacency of S, not the graph itself."""

    n: int
    adj: dict[int, frozenset[int]]  # neighbors in the graph, for v in S
    cert: CertifiedPlan
    w_ids: tuple[int, ...]  # contracted vertex per part

    @property
    def plan(self) -> ReductionPlan:
        return self.cert.plan

    def neighbors(self, v: int) -> frozenset[int]:
        """The oracle reads the window through this, as from a graph."""
        return self.adj[v]


def interior(g: EmbeddedGraph, s: frozenset[int]) -> frozenset[int]:
    return frozenset(v for v in s if g.neighbors(v) <= s)


def _parts_adjacent(g: EmbeddedGraph, p1: frozenset[int], p2: frozenset[int]) -> bool:
    small, big = (p1, p2) if len(p1) <= len(p2) else (p2, p1)
    return any(g.neighbors(v) & big for v in small)


def _admissible_subsets(
    g: EmbeddedGraph, parts: Sequence[frozenset[int]]
) -> Iterator[tuple[int, ...]]:
    t = len(parts)
    adj = [
        [ _parts_adjacent(g, parts[i], parts[j]) for j in range(t) ]
        for i in range(t)
    ]
    for mask in range(1 << t):
        chosen = [i for i in range(t) if mask >> i & 1]
        if all(
            not adj[a][b]
            for x, a in enumerate(chosen)
            for b in chosen[x + 1:]
        ):
            yield tuple(chosen)


def certify_plan(g: EmbeddedGraph, plan: ReductionPlan) -> CertifiedPlan:
    """Validate plan structure, then oracle-check every admissible window.

    Raises PlanRejected when the plan is malformed or under-certified; a
    certified plan's lift is guaranteed for every possible recursion
    outcome.
    """
    s = plan.s
    if len(s) > MAX_PLAN_SIZE:  # so a forged plan costs bounded oracle work
        raise PlanRejected(
            f"|S| = {len(s)} above {MAX_PLAN_SIZE}, the largest plan at {plan.ratio}")
    if not s or not all(g.has_vertex(v) for v in s):
        raise PlanRejected("S empty or referencing dead vertices")
    if plan.t >= len(s):
        raise PlanRejected("need t < |S|")
    covered: set[int] = set()
    for p in plan.parts:
        if not p or not p <= s:
            raise PlanRejected("part empty or outside S")
        if covered & p:
            raise PlanRejected("parts overlap")
        covered |= p
        if not g.induces_connected(p):
            raise PlanRejected(f"part {sorted(p)} not connected")
    inside = interior(g, s)
    need = plan.need()
    n = g.n
    bound_before = plan.ratio.ceil_mul(n)
    bound_after = plan.ratio.ceil_mul(n - len(s) + plan.t)
    if bound_after + need < bound_before:
        raise PlanRejected("size ledger would not close")  # unreachable
    checked = []
    for chosen in _admissible_subsets(g, plan.parts):
        window = set(inside)
        for i in chosen:
            window |= plan.parts[i]
        want = len(chosen) + need
        if len(window) < want:
            raise PlanRejected(
                f"window for X={chosen} too small for alpha >= {want}"
            )
        if not mis.alpha_at_least(g, want, vertices=window):
            raise PlanRejected(
                f"alpha(window) < {want} for X={chosen}"
            )
        checked.append((chosen, want))
    return CertifiedPlan(plan, inside, need, tuple(checked))


def apply_plan(
    g: EmbeddedGraph, cert: CertifiedPlan, fill: bool = False
) -> tuple[EmbeddedGraph, LiftContext]:
    """The reduced graph and what lifting back from it needs.  The parts
    are contracted in order, minting fresh ids, the last in one edit with
    the deletion of the rest of S; with ``fill`` that edit also chords the
    remainder (``triangulate``), which consumes ``g`` if the step walk
    owns it; so ``g`` is read first."""
    plan = cert.plan
    rest = plan.s - {v for p in plan.parts for v in p}
    n, first, adj = g.n, g.next_id, {v: g.neighbors(v) for v in plan.s}
    cur, last = g, plan.parts[-1:]
    for part in plan.parts[:-1]:
        cur = cur.contract_set(part)[0]
    if fill:
        cur = triangulate(cur, rest, *last)
    else:
        cur = cur.contract_set(*last, rest)[0] if last else cur.delete_set(rest)
    if cur.n != n - len(plan.s) + plan.t:
        raise LiftError("reduced size mismatch")
    return cur, LiftContext(n, adj, cert, tuple(range(first, cur.next_id)))


def lift(reduced_set: Iterable[int], ctx: LiftContext) -> frozenset[int]:
    """Transform a solution of the reduced graph into one of the original.

    Selected part-vertices W are swapped out for an exact optimum T of the
    window I(S) ∪ (parts chosen by W); certification made |T| large enough
    that the result meets ceil(c*n).  The caller checks that contract.

    Independence is checked at the window only: every edge the reduction
    removed touches S, so with the reduced solution independent in the
    reduced graph, the result is independent iff no vertex of T has a
    neighbor in it.
    """
    plan = ctx.plan
    red = frozenset(reduced_set)
    n_red = ctx.n - len(plan.s) + plan.t
    if len(red) < plan.ratio.ceil_mul(n_red):
        raise LiftError("reduced solution below its own bound")
    w_set = frozenset(ctx.w_ids) & red
    chosen = [i for i, w in enumerate(ctx.w_ids) if w in w_set]
    window = set(ctx.cert.interior)
    for i in chosen:
        window |= plan.parts[i]
    t_set = frozenset(mis.mis_exact(ctx, vertices=window))
    if len(t_set) < len(chosen) + ctx.cert.need:
        raise LiftError("window optimum below certified size")
    out = (red - w_set) | t_set
    if any(ctx.adj[v] & out for v in t_set):
        raise LiftError("lifted set has an edge at the window")
    return out


# -- low-degree pipeline -------------------------------------------------------


def find_low_degree_plan(g: EmbeddedGraph, c: Ratio) -> ReductionPlan | None:
    """Reduction at a minimum-degree vertex, when the arithmetic allows it.

    Clique neighborhoods are deleted whole (the vertex survives in the
    window); otherwise the vertex is contracted with two nonadjacent
    neighbors.  At 1/5 this covers every planar graph; at 3/13 it covers
    degrees at most 4.
    """
    d_pair = c.b // c.a  # max degree with b >= a*d
    for v in g.by_degree(d_pair):
        s = g.neighbors(v) | {v}
        pair = _private_pair(g, (v,), v)
        if pair is None:
            # clique neighborhood: delete N[v], keep v in the window
            if c.ceil_mul(len(s)) > 1:
                continue
            return ReductionPlan(s, (), c)
        return ReductionPlan(s, (frozenset((v,) + pair),), c)
    return None


# -- planner: reduction candidates from matches --------------------------------


def _private_pair(
    g: EmbeddedGraph, j: Sequence[int], x: int
) -> tuple[int, int] | None:
    """The first independent 2-set in N(x) avoiding the neighborhoods of
    J \\ {x}, if any."""
    pool = set(g.neighbors(x))
    for y in j:
        if y != x:
            pool -= g.neighbors(y)
    pool = sorted(pool)
    for i, u in enumerate(pool):
        for v in pool[i + 1:]:
            if not g.adjacent(u, v):
                return u, v
    return None


def candidate_plans(
    g: EmbeddedGraph, match: ConfigurationMatch, c: Ratio
) -> Iterator[ReductionPlan]:
    """Reduction plans for a match, in the order they are tried."""
    yield from plans_for_independent_set(g, match.j, c, match.preferred_k)


def plans_for_independent_set(
    g: EmbeddedGraph, j: tuple[int, ...], c: Ratio, preferred_k: int = 0
) -> Iterator[ReductionPlan]:
    """Plans around an independent set J: S = J ∪ N(J), and for each slack
    k (``preferred_k`` first) that the ratio allows, every choice of |J| - k
    members x contracted with the first private pair {u_x, v_x} of N(x).
    Certification is the judge of every one of them."""
    nj = joint_neighborhood(g, j)
    if not c.holds(len(j), len(nj)):
        return  # a slack k only raises the bar
    s = frozenset(j) | nj
    pairs = {x: _private_pair(g, j, x) for x in j}
    with_pairs = [x for x in j if pairs[x]]

    k_values = sorted(range(len(j)), key=lambda k: (k != preferred_k, k))
    for k in k_values:
        t = len(j) - k
        if t > len(with_pairs):
            continue
        if not c.holds(len(j), len(nj) + k):
            continue
        for members in itertools.combinations(with_pairs, t):
            parts = tuple(frozenset((x,) + pairs[x]) for x in members)
            yield ReductionPlan(s, parts, c)


# -- separating-triangle split ---------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """Decomposition along a separating triangle, and the recombination
    strategy whose ``split_guarantees`` entry reaches the target ceil(c*n).
    """

    triangle: tuple[int, int, int]
    side1: frozenset[int]  # includes the triangle
    side2: frozenset[int]
    target: int
    strategy: str  # chosen: fewest sub-solves among those meeting the target


def split_guarantees(n1: int, n2: int, c: Ratio) -> dict[str, int]:
    """Guaranteed combined sizes for the recombination strategies, where
    n1, n2 are the private side sizes (sides minus the triangle)."""
    return {
        "delete-both": c.ceil_mul(n1) + c.ceil_mul(n2),
        "hub1": c.ceil_mul(n1 + 1) + c.ceil_mul(n2 + 3) - 1,
        "hub2": c.ceil_mul(n2 + 1) + c.ceil_mul(n1 + 3) - 1,
        "edge-pairs": c.ceil_mul(n1 + 2) + c.ceil_mul(n2 + 2) - 1,
    }


def split_plan(g: EmbeddedGraph, triangle: Sequence[int], c: Ratio) -> SplitPlan:
    tri = tuple(sorted(triangle))
    if len(tri) != 3 or not all(map(g.has_vertex, tri)) or not all(
        g.adjacent(a, b) for a, b in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))
    ):
        raise PlanRejected("not the three corners of a triangle")  # a forged one may be long
    comps = g.components(avoid=tri)
    if len(comps) < 2:
        raise PlanRejected(f"triangle {tri} does not separate")
    side1 = frozenset(comps[0]) | set(tri)
    side2 = frozenset(v for comp in comps[1:] for v in comp) | set(tri)
    n1, n2 = len(side1) - 3, len(side2) - 3
    target = c.ceil_mul(g.n)
    gs = split_guarantees(n1, n2, c)
    order = ("delete-both", "hub1", "hub2", "edge-pairs")
    strategy = next((name for name in order if gs[name] >= target), None)
    if strategy is None:
        raise PlanRejected("no split strategy reaches the bound")  # unreachable
    return SplitPlan(
        triangle=tri,
        side1=side1,
        side2=side2,
        target=target,
        strategy=strategy,
    )


def split_subproblems(
    g: EmbeddedGraph, sp: SplitPlan
) -> tuple[tuple[EmbeddedGraph, ...], tuple[int, ...]]:
    """The sub-instances of the split, each cut from ``g`` by one call, in
    the order ``split_combine`` reads their solutions, and the id each
    contraction minted, in the same order.  The walk checks each
    sub-solution against ceil(c*n) of its own graph: the contracts that
    ``split_guarantees`` adds up."""
    tri = frozenset(sp.triangle)
    own1, own2 = sp.side1 - tri, sp.side2 - tri
    if sp.strategy == "delete-both":
        return (g.subgraph(own1), g.subgraph(own2)), ()
    if sp.strategy in ("hub1", "hub2"):
        full = sp.side2 if sp.strategy == "hub1" else sp.side1
        hub, u = g.contract_set(tri, full - tri)
        return (hub, g.subgraph(full)), (u,)
    x1, x2, x3 = sp.triangle
    cuts = [g.contract_set({x1, xt}, other) for other in (own2, own1) for xt in (x2, x3)]
    return tuple(sub for sub, _ in cuts), tuple(m for _, m in cuts)


def split_combine(
    g: EmbeddedGraph,
    sp: SplitPlan,
    solved: Sequence[frozenset[int]],
    merged: Sequence[int],
) -> frozenset[int]:
    """Best verified recombination of split sub-solutions, given in the
    order of ``split_subproblems``, as are the ``merged`` ids.

    Every recipe candidate is checked for independence in the original
    graph; the first largest one is returned and must reach the target size.
    """
    tri = set(sp.triangle)
    x1, x2, x3 = sp.triangle
    cands: list[frozenset[int]] = []

    if sp.strategy == "delete-both":
        cands.append(solved[0] | solved[1])
    elif sp.strategy in ("hub1", "hub2"):
        (ic, if_), (u,) = solved, merged
        cands.append((ic - {u}) | if_ if u in ic else ic | (if_ - tri))
    else:
        third = {2: x3, 3: x2}
        keys = [(side, t) for side in (1, 2) for t in (2, 3)]
        sols, ms = dict(zip(keys, solved)), dict(zip(keys, merged))
        for t in (2, 3):
            i1, i2 = sols[(1, t)], sols[(2, t)]
            m1, m2 = ms[(1, t)], ms[(2, t)]
            xt_third = third[t]
            drop = tri | {m1, m2}
            p1 = "merged" if m1 in i1 else "third" if xt_third in i1 else "none"
            p2 = "merged" if m2 in i2 else "third" if xt_third in i2 else "none"
            if p1 == "none" or p2 == "none":
                cands.append((i1 | i2) - drop)
            elif p1 == "third" and p2 == "third":
                cands.append((i1 | i2) - {m1, m2, x1, x2 if t == 2 else x3})
            elif p1 == "merged" and p2 == "merged":
                cands.append(((i1 | i2) - drop) | {x1})
        for side in (1, 2):
            for t in (2, 3):
                # third retained on the other side at t, merged here at 5-t
                ot = 5 - t
                ia = sols[(3 - side, t)]
                ib = sols[(side, ot)]
                mb = ms[(side, ot)]
                if third[t] in ia and mb in ib:
                    cands.append((ia | ib) - {mb, ms[(3 - side, t)]})
        for side in (1, 2):
            ia, ib = sols[(side, 2)], sols[(3 - side, 3)]
            ma, mb = ms[(side, 2)], ms[(3 - side, 3)]
            if ma in ia and mb in ib:
                cands.append(((ia | ib) - {ma, mb}) | {x1})

    best = max(
        (cand for cand in map(frozenset, cands) if mis.verify_independent(g, cand)),
        key=len, default=None,
    )
    if best is None or len(best) < sp.target:
        raise LiftError(
            f"split recombination below target {sp.target} "
            f"(best {len(best) if best is not None else 'none'})"
        )
    return best
