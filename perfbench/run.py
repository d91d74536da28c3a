"""The pig benchmark: extraction, replay and the exact oracle, end to end.

One workload per process, so peak RSS is the workload's own:

    python3 perfbench/run.py --workload plain-large --seed 1 --seconds 30 --trace 0

All workloads, each in a fresh process, with a table of every metric:

    python3 perfbench/run.py --all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is
1 when ``correct`` is false.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every other round runs with every layer
wrapped, and the run reports per-layer metrics instead.  The run is a
closed loop with one caller: rounds over the run's inputs, each input
solved then checked, ending at the round end nearest to ``--seconds`` (at
least one round).  pig is imported from ``src/`` of the checkout this file
sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data" / "inputs.json"
SPANS_DIR = ROOT / ".perfbench-out"
# Every round starts with this many set-ups, so that setup_s, their median,
# is taken over the whole run like the operation times.
SETUPS_PER_ROUND = 5

END_TO_END = {
    "setup_s": "s",
    "solve_vertices_per_s": "vertices/s",
    "check_vertices_per_s": "vertices/s",
    "answer_bytes_per_vertex": "B/vertex",
    "achieved_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def import_pig() -> None:
    """Import pig from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "pig" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pig sources under {src}")
    sys.path.insert(0, str(src))
    import pig

    if Path(pig.__file__).resolve().parent != (src / "pig").resolve():
        raise SystemExit(f"perfbench: imported pig from {pig.__file__}, not {src}")


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout, if it is a git repository of its own."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# -- one run -----------------------------------------------------------------------


class Outcome:
    """What the rounds of one kind (untraced or traced) saw."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()
        self.errors: list[str] = []  # exceptions, counted in failed
        self.wrong: list[str] = []  # outputs that failed a check
        # Times scaled to the reference machine speed (see speed.py), the
        # raw ones by "setup", "solve <input>" or "check <input>", and the
        # number of speed-sampling loops run.
        self.setup_t: list[float] = []
        self.raw_t: defaultdict = defaultdict(list)
        self.loops = 0
        self.solve_t: dict[str, list[float]] = {}
        self.check_t: dict[str, list[float]] = {}
        self.n: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.steps: Counter = Counter()
        self.depth = 0
        self.rounds = 0

    def fail(self, name: str, msg: str) -> None:
        self.wrong.append(f"{name}: {msg}")


def _timed(tracer, scaled, dest, kind, fn, *args):
    """Run one timed step; its scaled time goes to ``dest``.  With a tracer,
    the step is one traced operation of the given kind."""
    gc.collect()
    if tracer is None:
        return scaled.run(dest, fn, *args)

    def op():
        tracer.begin_op(kind)
        try:
            return fn(*args)
        finally:
            tracer.end_op()

    return scaled.run(dest, op)


def setup(inputs) -> list[str]:
    """Build and serialize every input: the work setup_s measures."""
    return [inp.build().serialize() for inp in inputs]


def check_drift(inputs, texts, records, out: Outcome) -> None:
    from pig import parse_rotation_graph

    for inp, text in zip(inputs, texts):
        rec = records.get(inp.name)
        if rec is None:
            out.fail(inp.name, "no recorded data; run perfbench/record.py")
        elif parse_rotation_graph(text).graph_hash() != rec["hash"]:
            out.fail(inp.name, "graph hash differs from the recorded one")


def measure(workload, inputs, records, seconds, tracer=None) -> list[Outcome]:
    """Rounds until ``seconds`` have passed, ending at the round end nearest
    to it.  A round sets the inputs up SETUPS_PER_ROUND times, then solves
    and checks each input once.  With a tracer, every other round runs with
    it installed; the result is then [untraced, traced], else [untraced]."""
    import workloads as wl

    outs = [Outcome() for _ in range(2 if tracer else 1)]
    texts = setup(inputs)
    check_drift(inputs, texts, records, outs[0])
    adj = {inp.name: wl.adjacency(t) for inp, t in zip(inputs, texts)}
    for out in outs:
        for inp in inputs:
            out.n[inp.name] = len(adj[inp.name])
            out.solve_t[inp.name] = []
            out.check_t[inp.name] = []
    oracle = workload == "oracle-exact"
    solve = wl.solve_alpha if oracle else wl.solve_extract
    check = wl.check_alpha if oracle else wl.check_extract
    t_start = time.perf_counter()
    for k in itertools.count():
        t_round = time.perf_counter()
        out = outs[k % len(outs)]
        traced = tracer if out is not outs[0] else None
        if traced is not None:
            traced.install()
        try:
            _round(inputs, texts, traced, out, oracle, solve, check, adj,
                   records)
        finally:
            if traced is not None:
                traced.uninstall()
        out.rounds += 1
        now = time.perf_counter()
        if k + 1 >= len(outs) and (
                now - t_start + (now - t_round) / 2 >= seconds):
            return outs


def _round(inputs, texts, tracer, out, oracle, solve, check, adj, records):
    import workloads as wl
    from speed import Scaled

    scaled = Scaled()
    for _ in range(SETUPS_PER_ROUND):
        built, t = _timed(tracer, scaled, out.setup_t, "setup", setup, inputs)
        out.raw_t["setup"].append(t)
        if built != texts:
            out.fail("setup", "inputs differ from one set-up to the next")
    for inp, text in zip(inputs, texts):
        name = inp.name
        try:
            out.attempted += 1
            res, t = _timed(tracer, scaled, out.solve_t[name], "solve",
                            solve, text)
            out.raw_t[f"solve {name}"].append(t)
            out.attempted += 1
            arg = res[0] if oracle else res[1]
            chk, t = _timed(tracer, scaled, out.check_t[name], "check",
                            check, text, arg)
            out.raw_t[f"check {name}"].append(t)
        except Exception as exc:  # counted per type; the run goes on
            out.failed[type(exc).__name__] += 1
            out.errors.append(
                f"{name}: {type(exc).__name__}: {exc}\n"
                + "".join(traceback.format_tb(exc.__traceback__)[-3:])
            )
            continue
        _verify(wl, name, oracle, res, chk, adj[name], records.get(name, {}),
                out)
    out.loops += scaled.loops


def _verify(wl, name, oracle, res, chk, adj, rec, out: Outcome) -> None:
    """Check one input's outputs and keep its answer size and bytes."""
    n = len(adj)
    if oracle:
        a, best, answer = res
        if not wl.independent(adj, best):
            out.fail(name, "optimum not independent")
        if len(best) != a:
            out.fail(name, f"|mis_exact|={len(best)} but alpha={a}")
        if a != rec.get("alpha") or list(best) != rec.get("set"):
            out.fail(name, "optimum differs from the recorded one")
        if chk:
            out.fail(name, "alpha_at_least finds a set larger than alpha")
        out.size[name] = a
        out.bytes[name] = len(answer.encode())
        return
    cert, js = res
    (ok, reason), back = chk
    if not ok:
        out.fail(name, f"certificate rejected: {reason}")
    if back != cert:
        out.fail(name, "certificate changed through to_json/from_json")
    if cert.n != n or not wl.independent(adj, cert.independent_set):
        out.fail(name, "extracted set not independent")
    if cert.size < wl.bound(n):
        out.fail(name, f"size {cert.size} below ceil(3n/13)={wl.bound(n)}")
    if name not in out.size:
        steps, depth = wl.cert_steps(cert.root)
        out.steps += steps
        out.depth = max(out.depth, depth)
    out.size[name] = cert.size
    out.bytes[name] = len(js.encode())


def median_seconds(*kinds: dict[str, list[float]]) -> float:
    """Each input's median scaled time over the run, summed over inputs."""
    return sum(statistics.median(ts) for times in kinds
               for ts in times.values() if ts)


def throughput(out: Outcome, times: dict[str, list[float]]) -> float:
    """Input vertices per scaled second, each input at its median time."""
    verts = sum(out.n[k] for k, ts in times.items() if ts)
    secs = median_seconds(times)
    return verts / secs if secs else 0.0


def end_to_end(out: Outcome) -> dict:
    metrics = {
        "setup_s": statistics.median(out.setup_t),
        "solve_vertices_per_s": throughput(out, out.solve_t),
        "check_vertices_per_s": throughput(out, out.check_t),
    }
    verts = sum(out.n[k] for k in out.size)
    metrics["answer_bytes_per_vertex"] = (
        sum(out.bytes.values()) / verts if verts else 0.0)
    metrics["achieved_ratio"] = (
        sum(out.size.values()) / verts if verts else 0.0)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return metrics


def per_layer(tracer, plain: Outcome, traced: Outcome) -> dict:
    """Per-round layer metrics of the traced rounds (generate: per set-up)."""
    from spans import LAYER_NAMES

    r = traced.rounds
    setups = len(traced.setup_t)
    ops = tracer.layer_totals({"solve", "check"})
    gen = tracer.layer_totals({"setup"})
    m: dict[str, float] = {}
    for layer in LAYER_NAMES:
        calls, secs = (gen if layer == "generate" else ops).get(layer, (0, 0.0))
        div = setups if layer == "generate" else r
        m[f"{layer}.calls"] = calls / div
        m[f"{layer}.self_s"] = secs / div
    counts: Counter = Counter()
    for (kind, name), v in tracer.counts.items():
        if kind in ("solve", "check"):
            counts[name] += v
    for name in ("graph.construct.validated", "graph.triangulate.edges_added",
                 "mis.alpha.window_vertices", "mis.mis_exact.window_vertices",
                 "mis.alpha_at_least.window_vertices",
                 "configs.iter_configs.yielded", "configs.tight_sets.yielded",
                 "reduce.find_low_degree_plan.hits",
                 "reduce.certify_plan.rejected"):
        m[name] = counts[name] / r
    m["reduce.plans.yielded"] = counts["reduce.plans_for_independent_set.yielded"] / r
    calls = m["reduce.certify_plan.calls"]
    m["reduce.certify_plan.accept_ratio"] = (
        (calls - m["reduce.certify_plan.rejected"]) / calls if calls else 0.0)
    split = ("reduce.split_plan", "reduce.split_subproblems", "reduce.split_combine")
    m["reduce.split.calls"] = sum(m[f"{s}.calls"] for s in split)
    m["reduce.split.self_s"] = sum(m[f"{s}.self_s"] for s in split)
    for mod in ("graph", "mis", "discharge", "configs", "reduce", "extract"):
        m[f"{mod}.self_s"] = sum(
            m[f"{layer}.self_s"] for layer in LAYER_NAMES
            if layer.startswith(mod + "."))
    wall = sum(w for op, w in tracer.op_wall.items()
               if tracer.op_kind[op] in ("solve", "check")) / r
    m["bench.op.wall_s"] = wall
    m["bench.self_s"] = wall - sum(
        m[f"{mod}.self_s"] for mod in
        ("graph", "mis", "discharge", "configs", "reduce", "extract"))
    for op in ("exact", "components", "triangulate", "reduce", "split", "catalog"):
        m[f"extract.steps.{op}"] = plain.steps[op]
    m["extract.cert_depth"] = plain.depth
    # Traced and untraced rounds alternate, so drift of the machine's speed
    # falls on both alike; each input counts at its median time.
    base = median_seconds(plain.solve_t, plain.check_t)
    m["trace.overhead"] = (
        median_seconds(traced.solve_t, traced.check_t) / base - 1
        if base else 0.0)
    return m


PER_LAYER_UNITS = (
    (".calls", "count"), (".self_s", "s"), ("window_vertices", "vertices"),
    ("accept_ratio", "ratio"), ("overhead", "ratio"), ("wall_s", "s"),
    ("edges_added", "edges"), ("cert_depth", "nodes"),
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if "PIG_ORACLE_BUDGET" in os.environ:
        raise SystemExit("perfbench: unset PIG_ORACLE_BUDGET; it changes "
                         "the oracle's behaviour")
    import_pig()
    import workloads as wl

    if workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    records = json.loads(DATA.read_text())
    inputs = wl.inputs(workload, seed)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    passes = measure(workload, inputs, records, seconds, tracer)
    plain = passes[0]
    if trace:
        metrics = per_layer(tracer, plain, passes[1])
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{workload}-seed{seed}.txt")
    else:
        metrics = end_to_end(plain)
    wrong = [e for p in passes for e in p.wrong]
    for err in [e for p in passes for e in p.errors] + wrong:
        print(f"perfbench: {err}", file=sys.stderr)
    by_type = sum((p.failed for p in passes), Counter())
    failed = sum(by_type.values())
    attempted = sum(p.attempted for p in passes)
    correct = not wrong and not failed
    env = environment(seed) | {
        "workload": workload, "rounds": [p.rounds for p in passes],
        "failed_by_type": dict(by_type),
        "failed_frac": failed / max(attempted, 1),
        "scaled_setup_s": plain.setup_t,
        "scaled_solve_s": plain.solve_t,
        "scaled_check_s": plain.check_t,
        "raw_s": plain.raw_t,
        "speed_loops": plain.loops,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


# -- all workloads -----------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    import_pig()
    import workloads as wl

    status = 0
    print(json.dumps({"env": environment(seed)}))
    for w in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{w}: exit {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        frac = res["failed"] / res["attempted"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_frac={frac:g}")
        for k, v in res["metrics"].items():
            print(f"  {k:44s} {v['value']:>14.6g} {v['unit']}")
        if not res["correct"] or res["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not args.workload:
        p.error("give --workload NAME or --all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
