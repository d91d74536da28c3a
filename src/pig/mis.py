"""Exact maximum-independent-set oracle.

Bitmask branch and reduce: peel degree-0/1 vertices and dominated vertices
(u, v adjacent with N[u] ⊆ N[v]: drop v), fold degree-2 vertices, split off
components, else branch on a vertex of maximum degree.  Each public call
builds one solver whose memo maps every pool it has solved to its α and a
witness, one maximum independent set of the pool as a bitmask; nothing
outlives the call.  Deterministic: ties in the optimum are broken toward
the lexicographically smallest vertex set.  The budget, read from
``PIG_ORACLE_BUDGET`` on every call, counts nodes, one per uncached
``solve`` call on a non-empty pool; it bounds worst-case
latency and is far from reachable on the small windows reductions use.

The peel finds all dominated neighbours of i in one AND over N(i), which
stops as soon as it is empty (no neighbour dominates i, the common case).
Any two of them are adjacent, so dropping them together drops what dropping
them in turn would.  The lexicographic search accepts a vertex of its
current witness without a query, since the witness without it is an
optimum of the rest; it asks the solver only about the other vertices, and
a branch tie keeps the witness holding the lowest vertex the two differ in,
so the witness tends to agree with the answer.

The fold (Fomin, Grandoni & Kratsch 2009): in a peeled pool a vertex v of
degree 2 has nonadjacent neighbours u and w (a triangle is dominated), and
α = 1 + α(pool − {v, u, w} + x) for a new vertex x adjacent to N(u) ∪ N(w)
− {v}; a witness holding x unfolds to one holding u and w instead, one
without x gains v.  Fold vertices are indexed after the original ones, one
per (v, u, w), and each joins its neighbours' masks, so every pool is an
induced subgraph of one growing graph, a memo key names one subgraph, and
the same fold on two branches shares its index.  Peel and fold together
leave no vertex of degree 2 or less, so no cycle is left to solve in
closed form.  Results name original vertices only.

A node pays for what its branch changed, not for its whole pool.  The peel
starts from ``dirty`` and re-queues only what an edit may have made
peelable: the neighbours of what it removes, and x with N(x) after a fold
(a vertex outside N[x] keeps its neighbours and their adjacency).  Then one
pass over the lowest vertex's component both splits it off and picks the
branch vertex.  The invariant is that no vertex of the pool outside
``dirty`` is peelable or of degree 2: a vertex's status (pool degree ≤ 2,
or N[y] ⊆ N[j] for a pool neighbour j) changes only when it loses a pool
neighbour.  A peeled pool has no such vertex, so a component split passes
nothing, the skip branch passes N(v) and the take branch passes the
neighbours of N(v).
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

DEFAULT_BUDGET = 10_000_000
_BUDGET_ENV = "PIG_ORACLE_BUDGET"


class OracleBudgetExceeded(RuntimeError):
    """Node budget ran out; caller should shrink the window."""


def default_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_BUDGET


class _Solver:
    def __init__(self, ids: Sequence[int], nbr: dict[int, Iterable[int]], budget: int):
        self.ids = list(ids)
        index = {v: i for i, v in enumerate(self.ids)}
        self.masks = [0] * len(self.ids)
        for v, ns in nbr.items():
            i = index[v]
            acc = 0
            for u in ns:
                j = index.get(u)
                if j is not None and j != i:
                    acc |= 1 << j
            self.masks[i] = acc
        self.budget = budget
        self.nodes = 0
        self.memo: dict[int, tuple[int, int]] = {}
        self.folds: dict[tuple[int, int, int], int] = {}

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise OracleBudgetExceeded(f"exceeded {self.budget} nodes")

    def solve(self, pool: int, dirty: int) -> tuple[int, int]:
        """(α, witness) of ``pool``; no vertex of ``pool`` outside ``dirty``
        may be peelable or of degree 2 (pass ``pool`` itself when nothing is
        known)."""
        if pool == 0:
            return 0, 0
        known = self.memo.get(pool)
        if known is None:
            self._tick()
            known = self.memo[pool] = self._solve(pool, dirty)
        return known

    def _peel(self, pool: int, dirty: int) -> tuple[int, int, list]:
        """Peel degree-0/1 and dominated vertices and, once none is left,
        fold the lowest vertex of degree 2; returns the rest of the pool,
        the peeled vertices some optimum takes and the folds, in order.  An
        edit re-queues the vertices it may have made peelable."""
        masks = self.masks
        taken = twos = 0
        folds = []
        p = pool & dirty
        while True:
            while p:
                low = p & -p
                p ^= low
                if not pool & low:
                    continue
                i = low.bit_length() - 1
                nb = masks[i] & pool
                if nb == 0:
                    pool ^= low
                    taken |= low
                elif nb & (nb - 1) == 0:
                    pool &= ~(low | nb)
                    taken |= low
                    p |= masks[nb.bit_length() - 1] & pool
                else:
                    # the neighbours j with N[i] ⊆ N[j]: some optimum avoids them
                    dom = q = nb
                    while q and dom:
                        b = q & -q
                        q ^= b
                        dom &= masks[b.bit_length() - 1] | b
                    if dom:
                        pool ^= dom
                        while dom:
                            b = dom & -dom
                            dom ^= b
                            p |= masks[b.bit_length() - 1]
                        p &= pool
                    elif nb.bit_count() == 2:
                        twos |= low
            # peeled: a vertex of degree 2 has nonadjacent neighbours u, w
            twos &= pool
            while twos:
                low = twos & -twos
                twos ^= low
                nb = masks[low.bit_length() - 1] & pool
                if nb.bit_count() == 2:
                    break
            else:
                return pool, taken, folds
            x = 1 << self._fold_vertex(low.bit_length() - 1, nb)
            folds.append((low, nb, x))
            pool = pool & ~(low | nb) | x
            p = x | masks[x.bit_length() - 1] & pool

    def _fold_vertex(self, i: int, nb: int) -> int:
        """The index of the vertex that folds i with its neighbours u < w,
        adjacent to N(u) ∪ N(w) − {i}.  Each (i, u, w) gets one index, after the
        original vertices, and its bit joins its neighbours' masks, so a
        pool still names one induced subgraph."""
        masks = self.masks
        u = nb & -nb
        key = (i, u.bit_length() - 1, (nb ^ u).bit_length() - 1)
        k = self.folds.get(key)
        if k is None:
            k = self.folds[key] = len(masks)
            x = 1 << k
            nx = (masks[key[1]] | masks[key[2]]) & ~(1 << i)
            masks.append(nx)
            while nx:
                b = nx & -nx
                nx ^= b
                masks[b.bit_length() - 1] |= x
        return k

    def _solve(self, pool: int, dirty: int) -> tuple[int, int]:
        pool, taken, folds = self._peel(pool, dirty)
        total, w = self._split_or_branch(pool) if pool else (0, 0)
        total += taken.bit_count() + len(folds)
        w |= taken
        if folds:
            # unfold, last fold first: x in the witness stands for u and w
            for v, nb, x in reversed(folds):
                w = w ^ x | nb if w & x else w | v
        return total, w

    def _split_or_branch(self, pool: int) -> tuple[int, int]:
        masks = self.masks
        rest, total, w = pool, 0, 0
        while rest:
            # one pass over the lowest vertex's component: its vertex set and
            # its vertex of maximum degree, ties toward the lowest index
            comp = todo = rest & -rest
            best_i, best_d = -1, -1
            while todo:
                b = todo & -todo
                todo ^= b
                i = b.bit_length() - 1
                nb = masks[i] & rest
                d = nb.bit_count()
                if d > best_d or (d == best_d and i < best_i):
                    best_i, best_d = i, d
                nb &= ~comp
                comp |= nb
                todo |= nb
            if comp == pool:
                break  # connected: branch on best_i
            # the components in turn, in this frame: the stack does not grow with their number
            a, x = self.solve(comp, 0)
            total, w, rest = total + a, w | x, rest ^ comp
        else:
            return total, w
        v = 1 << best_i
        nv = masks[best_i] & pool
        # taking v removes N[v]: only the neighbours of N(v) lose a neighbour
        around = 0
        q = nv
        while q:
            b = q & -q
            q ^= b
            around |= masks[b.bit_length() - 1]
        take, tw = self.solve(pool & ~(v | nv), around)
        skip, sw = self.solve(pool ^ v, nv)
        take += 1
        tw |= v
        # on a tie keep the witness holding the lowest vertex they differ in
        d = tw ^ sw
        if take > skip or (take == skip and d & -d & tw):
            return take, tw
        return skip, sw

    def lex_smallest_optimum(self, pool: int) -> list[int]:
        """Accept each vertex, lowest first, iff it lies in some optimum of
        what is left.  A vertex of the current witness needs no query: the
        witness without it is an optimum of the rest."""
        target, witness = self.solve(pool, pool)
        out: list[int] = []
        for i in range(len(self.ids)):
            if target == 0:
                break
            bit = 1 << i
            if not pool & bit:
                continue
            rest = pool & ~(bit | self.masks[i])
            if witness & bit:
                witness ^= bit
            else:
                a, w = self.solve(rest, rest)
                if a != target - 1:
                    pool ^= bit
                    continue
                witness = w
            out.append(self.ids[i])
            pool = rest
            target -= 1
        return out


def _solver(g, vertices: Iterable[int] | None) -> _Solver:
    ids = sorted(set(vertices)) if vertices is not None else list(g.vertices)
    nbr = {v: g.neighbors(v) for v in ids}
    return _Solver(ids, nbr, default_budget())


def alpha(g, vertices: Iterable[int] | None = None) -> int:
    """Independence number of g (or of the induced subgraph on vertices)."""
    s = _solver(g, vertices)
    pool = (1 << len(s.ids)) - 1
    return s.solve(pool, pool)[0]


def mis_exact(g, vertices: Iterable[int] | None = None) -> tuple[int, ...]:
    """A maximum independent set; lexicographically smallest optimum."""
    s = _solver(g, vertices)
    return tuple(s.lex_smallest_optimum((1 << len(s.ids)) - 1))


def alpha_at_least(g, k: int, vertices: Iterable[int] | None = None) -> bool:
    """True iff the (sub)graph has an independent set of size k."""
    if k <= 0:
        return True
    s = _solver(g, vertices)
    pool = (1 << len(s.ids)) - 1
    if pool.bit_count() < k:
        return False
    return s.solve(pool, pool)[0] >= k


def verify_independent(g, s: Iterable[int]) -> bool:
    vs = list(s)
    seen = set()
    for v in vs:
        if not g.has_vertex(v):
            raise KeyError(f"unknown vertex {v}")
        if v in seen:
            return False
        seen.add(v)
    for v in vs:
        if g.neighbors(v) & seen:
            return False
    return True
