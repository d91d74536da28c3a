"""Self-test of the benchmark's tracing, on tiny inputs.

    python3 perfbench/selftest.py

For each workload it runs one untraced and one traced round on the tiny
inputs and checks:
every wrapped name meant for that workload records at least one call; the
self times of each operation sum to at most its wall time; outputs pass
the benchmark's checks; and after the run every patched name is the
original object again.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import importlib
import json
import sys

from run import DATA, import_pig, measure

# The workload on whose tiny inputs each wrapped name must be called.
MEANT_FOR = {
    "plain-large": (
        "graph.construct", "graph.faces", "graph.components",
        "graph.subgraph", "graph.triangulate", "graph.parse",
        "mis.mis_exact", "mis.alpha_at_least", "mis.verify_independent",
        "reduce.find_low_degree_plan", "reduce.certify_plan",
        "reduce.apply_plan", "reduce.lift",
        "extract.extract", "extract.check_certificate", "extract.to_json",
        "extract.from_json",
    ),
    "flagged-mix": (
        "graph.contract_set", "graph.separating_triangles",
        "discharge.run_main", "configs.iter_configs",
        "reduce.candidate_plans", "reduce.plans_for_independent_set",
        "reduce.split_plan", "reduce.split_subproblems",
        "reduce.split_combine",
    ),
    "oracle-exact": ("mis.alpha", "mis.alpha_at_least"),
}

# Wrapped but reached by no workload input: extraction calls tight_sets only
# when every detector match before six_ring7 fails to certify.  The
# self-test calls it through extract's binding instead.
NOT_REACHED = "configs.tight_sets"


def fail(msg: str) -> None:
    raise SystemExit(f"selftest: {msg}")


def bindings() -> dict:
    """Every pig module attribute and class attribute a tracer may patch."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "pig" or name.startswith("pig.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, attr, k)] = v
    return out


def main() -> int:
    import_pig()
    import workloads as wl
    from spans import LAYER_NAMES, Tracer

    importlib.import_module("pig.cli")  # patched too: every binding site
    covered = {n for names in MEANT_FOR.values() for n in names}
    covered |= {"generate", NOT_REACHED}
    if covered != set(LAYER_NAMES):
        fail(f"layers without a workload: {sorted(set(LAYER_NAMES) - covered)}")
    records = json.loads(DATA.read_text())
    before = bindings()
    for workload, names in MEANT_FOR.items():
        inputs = wl.inputs(workload, 0, tiny=True)
        tracer = Tracer()
        outs = measure(workload, inputs, records, 0, tracer)
        for out in outs:
            if out.wrong or out.errors:
                fail(f"{workload}: {out.wrong + out.errors}")
        if [out.rounds for out in outs] != [1, 1]:
            fail(f"{workload}: rounds {[out.rounds for out in outs]}, not [1, 1]")
        totals = tracer.layer_totals({"solve", "check", "setup"})
        for name in names + ("generate",):
            if totals.get(name, (0, 0.0))[0] < 1:
                fail(f"{workload}: {name} recorded no call")
        sums = tracer.op_self_sums()
        for op, wall in tracer.op_wall.items():
            if sums.get(op, 0.0) > wall:
                fail(f"{workload}: op {op} self times {sums[op]} > wall {wall}")
        after = bindings()
        changed = [k for k in before if after.get(k) is not before[k]]
        if changed:
            fail(f"{workload}: not restored: {changed[:5]}")
        print(f"selftest: {workload}: {len(tracer.sid)} spans, "
              f"{len(totals)} layers called, ok")
    check_direct_call(inputs[0])
    return 0


def check_direct_call(inp) -> None:
    """NOT_REACHED, called where extract binds it, records a span."""
    from spans import Tracer

    g = inp.build()
    ex = importlib.import_module("pig.extract")
    with Tracer() as tracer:
        tracer.begin_op("solve")
        next(ex.tight_sets(g, g.vertices))
        tracer.end_op()
    if tracer.layer_totals({"solve"}).get(NOT_REACHED, (0, 0.0))[0] < 1:
        fail(f"{NOT_REACHED} recorded no call when called directly")
    print(f"selftest: direct call of {NOT_REACHED}: ok")


if __name__ == "__main__":
    sys.exit(main())
