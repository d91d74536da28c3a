"""Exact maximum-independent-set oracle.

Bitmask branch and reduce: peel degree-0/1 vertices and dominated vertices
(u, v adjacent with N[u] ⊆ N[v]: drop v), split off components, close
cycles in closed form, else branch on a vertex of maximum degree.  Each
public call builds one solver whose memo maps every pool it has solved to
its α; nothing outlives the call.  Deterministic: ties in the optimum are
broken toward the lexicographically smallest vertex set.  The budget counts
nodes, one per uncached ``alpha`` call on a non-empty pool; it bounds
worst-case latency and is far from reachable on the small windows
reductions use.

A node pays for what its branch changed, not for its whole pool.  The peel
starts from ``dirty`` and re-queues only the neighbours of what it removes,
then one pass over the lowest vertex's component both splits it off and
picks the branch vertex.  The invariant is that no vertex of the pool
outside ``dirty`` is peelable: a vertex's peel status (pool degree ≤ 1, or
N[x] ⊆ N[j] for a pool neighbour j) changes only when it loses a pool
neighbour.  A peeled pool has no peelable vertex, so a component split
passes nothing, the skip branch passes N(v) and the take branch passes the
neighbours of N(v).
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, Sequence

# Deep enough for the solver's branching and for ``json.loads`` on a plain
# n=10^4 certificate (its step tree nests about 4,975 deep).  Much higher,
# and the C JSON scanner overflows an 8 MiB C stack on a hostile document
# before Python can raise RecursionError.
RECURSION_LIMIT = 20_000
sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))

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
        self.memo: dict[int, int] = {}

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise OracleBudgetExceeded(f"exceeded {self.budget} nodes")

    def alpha(self, pool: int, dirty: int) -> int:
        """α of ``pool``; no vertex of ``pool`` outside ``dirty`` may be
        peelable (pass ``pool`` itself when nothing is known)."""
        if pool == 0:
            return 0
        known = self.memo.get(pool)
        if known is None:
            self._tick()
            known = self.memo[pool] = self._solve(pool, dirty)
        return known

    def _solve(self, pool: int, dirty: int) -> int:
        masks = self.masks
        # peel degree-0/1 vertices and vertices dominated by a neighbour;
        # a removal re-queues the neighbours it may have made peelable
        total = 0
        p = pool & dirty
        while p:
            low = p & -p
            p ^= low
            if not pool & low:
                continue
            i = low.bit_length() - 1
            nb = masks[i] & pool
            if nb == 0:
                pool ^= low
                total += 1
            elif nb & (nb - 1) == 0:
                pool &= ~(low | nb)
                total += 1
                p |= masks[nb.bit_length() - 1] & pool
            else:
                # N[i] ⊆ N[j] for a neighbour j: some optimum avoids j
                closed = nb | low
                q = nb
                while q:
                    b = q & -q
                    q ^= b
                    j = b.bit_length() - 1
                    if not closed & ~(masks[j] | b):
                        pool ^= b
                        closed ^= b
                        p |= masks[j] & pool
        if pool == 0:
            return total
        # one pass over the lowest vertex's component: its vertex set and its
        # vertex of maximum degree, ties toward the lowest index
        comp = todo = pool & -pool
        best_i, best_d = -1, -1
        while todo:
            b = todo & -todo
            todo ^= b
            i = b.bit_length() - 1
            nb = masks[i] & pool
            d = nb.bit_count()
            if d > best_d or (d == best_d and i < best_i):
                best_i, best_d = i, d
            nb &= ~comp
            comp |= nb
            todo |= nb
        if comp != pool:
            return total + self.alpha(comp, 0) + self.alpha(pool ^ comp, 0)
        # connected, min degree >= 2: a cycle if max degree <= 2
        if best_d <= 2:
            return total + pool.bit_count() // 2
        v = 1 << best_i
        nv = masks[best_i] & pool
        # taking v removes N[v]: only the neighbours of N(v) lose a neighbour
        around = 0
        q = nv
        while q:
            b = q & -q
            q ^= b
            around |= masks[b.bit_length() - 1]
        take = 1 + self.alpha(pool & ~(v | nv), around)
        skip = self.alpha(pool ^ v, nv)
        return total + max(take, skip)

    def lex_smallest_optimum(self, pool: int) -> list[int]:
        target = self.alpha(pool, pool)
        out: list[int] = []
        for i in range(len(self.ids)):
            bit = 1 << i
            if not pool & bit:
                continue
            rest = pool & ~(bit | self.masks[i])
            if self.alpha(rest, rest) == target - 1:
                out.append(self.ids[i])
                pool = rest
                target -= 1
                if target == 0:
                    break
            else:
                pool ^= bit
        return out


def _solver(g, vertices: Iterable[int] | None, budget: int | None) -> _Solver:
    ids = sorted(vertices) if vertices is not None else list(g.vertices)
    nbr = {v: g.neighbors(v) for v in ids}
    return _Solver(ids, nbr, budget if budget is not None else default_budget())


def alpha(g, vertices: Iterable[int] | None = None, budget: int | None = None) -> int:
    """Independence number of g (or of the induced subgraph on vertices)."""
    s = _solver(g, vertices, budget)
    pool = (1 << len(s.ids)) - 1
    return s.alpha(pool, pool)


def mis_exact(
    g, vertices: Iterable[int] | None = None, budget: int | None = None
) -> tuple[int, ...]:
    """A maximum independent set; lexicographically smallest optimum."""
    s = _solver(g, vertices, budget)
    return tuple(s.lex_smallest_optimum((1 << len(s.ids)) - 1))


def alpha_at_least(
    g, k: int, vertices: Iterable[int] | None = None, budget: int | None = None
) -> bool:
    """True iff the (sub)graph has an independent set of size k."""
    if k <= 0:
        return True
    s = _solver(g, vertices, budget)
    pool = (1 << len(s.ids)) - 1
    if pool.bit_count() < k:
        return False
    return s.alpha(pool, pool) >= k


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
