"""Rewrite data/inputs.json: the graph hash of every input a run can draw,
and alpha plus the optimum for the oracle's inputs.

Run from the repository root:  python3 perfbench/record.py

The recorded optimum is what pig's oracle returned when the file was
written; the benchmark then fails any run whose oracle answer differs.
"""

from __future__ import annotations

import json
import sys

from run import DATA, import_pig

ORACLE_MAX_N = 80


def main() -> int:
    import_pig()
    import workloads as wl
    from pig import alpha, mis_exact, parse_rotation_graph

    out = {}
    for inp in wl.all_recipes():
        text = inp.build().serialize()
        g = parse_rotation_graph(text)
        rec = {"n": g.n, "hash": g.graph_hash()}
        if g.n <= ORACLE_MAX_N:
            a = alpha(g)
            best = mis_exact(g)
            if len(best) != a or not wl.independent(wl.adjacency(text), best):
                raise SystemExit(f"{inp.name}: oracle answer inconsistent")
            rec["alpha"] = a
            rec["set"] = list(best)
        out[inp.name] = rec
        print(inp.name, rec["n"], rec.get("alpha", ""), file=sys.stderr)
    DATA.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
