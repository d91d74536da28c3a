"""Command-line interface.

Exit codes: 0 success; 1 bound or verification failure, or an engine fault;
2 input error; 3 incompleteness diagnostic.  PIG_ORACLE_BUDGET overrides the
exact oracle's node budget (one node per sub-problem it solves; see pig.mis).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import mis
from .discharge import (
    DischargeError,
    initial_charges,
    main_phases,
    negative_vertices,
    run_warmup,
)
from .extract import (
    Certificate,
    CertificateError,
    IncompletenessDiagnostic,
    check_certificate,
    extract,
    next_step,
)
from .configs import iter_configs
from .generate import GenSpec, GenerationError, generate
from .graph import EmbeddedGraph, GraphError, ParseError, parse_rotation_graph
from .reduce import LiftError, PlanRejected, Ratio

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DIAGNOSTIC = 3


def _load(path: str) -> EmbeddedGraph:
    try:
        return parse_rotation_graph(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _ratio(text: str) -> Ratio:
    try:
        return Ratio.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def cmd_extract(args) -> int:
    g = _load(args.file)
    cert = extract(g, _ratio(args.ratio))
    if args.json:
        Path(args.json).write_text(cert.to_json())
    print(
        f"n={cert.n} ratio={cert.ratio} bound={cert.bound} size={cert.size}"
    )
    print("set:", " ".join(map(str, cert.independent_set)))
    if args.verify:
        ok, reason = check_certificate(g, cert)
        print(f"verify: {'ok' if ok else 'FAIL: ' + reason}")
        if not ok:
            return EXIT_FAIL
    return EXIT_OK


def cmd_check_cert(args) -> int:
    g = _load(args.file)
    try:
        cert = Certificate.from_json(Path(args.cert).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.cert}: {exc}") from None
    ok, reason = check_certificate(g, cert)
    print(f"{'ok' if ok else 'FAIL'}: {reason}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_discharge(args) -> int:
    g = _load(args.file)
    if args.rules == "warmup":
        states = [initial_charges(g), run_warmup(g)]
    else:
        states = list(main_phases(g))
    if args.json:
        payload = {
            "n": g.n,
            "m": g.m,
            "rules": args.rules,
            "phases": [
                {
                    "phase": st.phase,
                    "total": str(st.total()),
                    "charges": {str(v): str(c) for v, c in sorted(st.charge.items())},
                }
                for st in states
            ],
            "ledger": [
                {
                    "giver": t.giver,
                    "receiver": t.receiver,
                    "amount": str(t.amount),
                    "rule": t.rule,
                }
                for t in states[-1].ledger
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        final = states[-1]
        print(f"rules={args.rules} phases={len(states)} total={final.total()}")
        neg = negative_vertices(final)
        print(f"negative vertices after {final.phase}: {neg}")
    return EXIT_OK


def cmd_config(args) -> int:
    g = _load(args.file)
    count = 0
    for match in iter_configs(g):
        roles = " ".join(f"{k}={v}" for k, v in match.roles)
        print(f"{match.kind}: {roles}")
        count += 1
        if args.limit and count >= args.limit:
            break
    if count == 0:
        print("no configuration matches")
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = _load(args.file)
    try:
        step = next_step(g, _ratio(args.ratio))
    except IncompletenessDiagnostic:
        print(json.dumps({"step": "diagnostic", "n": g.n}))
        return EXIT_DIAGNOSTIC
    print(json.dumps(step.summary(), sort_keys=True))
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        n=args.n,
        min_degree5=args.delta5,
        no_separating_triangle=args.no_septri,
    )
    g = generate(spec)
    text = g.serialize()
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote n={g.n} m={g.m} to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_alpha(args) -> int:
    g = _load(args.file)
    best = mis.mis_exact(g)
    print(f"alpha={len(best)}")
    print("set:", " ".join(map(str, best)))
    return EXIT_OK


def cmd_corpus(args) -> int:
    """Extraction over a generated corpus.  A failed instance is reported,
    not raised, so that one cannot hide the rest."""
    ratio = _ratio(args.ratio)
    seeds = range(args.seed, args.seed + args.count)
    achieved, diagnostics, t0 = [], [], time.perf_counter()
    for seed in seeds:
        spec = GenSpec(seed=seed, n=args.n, min_degree5=args.delta5,
                       no_separating_triangle=args.no_septri)
        try:
            g = generate(spec)
        except (GenerationError, GraphError) as exc:
            diagnostics.append(f"seed={seed} n=0: {exc}")
            continue
        try:
            cert = extract(g, ratio)
        except IncompletenessDiagnostic as exc:
            diagnostics.append(f"seed={seed} n={g.n}: {exc}")
            continue
        except mis.OracleBudgetExceeded as exc:
            diagnostics.append(f"seed={seed} n={g.n}: oracle budget exceeded: {exc}")
            continue
        if cert.size >= cert.bound and mis.verify_independent(g, cert.independent_set):
            achieved.append(cert.size / g.n)
    print(json.dumps({
        "ratio": str(ratio),
        "instances": len(seeds),
        "successes": len(achieved),
        "diagnostics": len(diagnostics),
        "min_achieved_ratio": round(min(achieved), 4) if achieved else None,
        "mean_achieved_ratio": (
            round(sum(achieved) / len(achieved), 4) if achieved else None
        ),
        "total_seconds": round(time.perf_counter() - t0, 3),
    }, sort_keys=True))
    for line in diagnostics:
        print(f"diagnostic: {line}")
    return EXIT_OK if len(achieved) == len(seeds) else EXIT_DIAGNOSTIC


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pig",
        description="Certified independent sets in embedded planar graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("extract", help="extract a certified independent set")
    s.add_argument("file")
    s.add_argument("--ratio", default="3/13")
    s.add_argument("--json", metavar="OUT", help="write the certificate JSON")
    s.add_argument("--verify", action="store_true", help="replay the certificate")
    s.set_defaults(func=cmd_extract)

    s = sub.add_parser("check-cert", help="replay a certificate against a graph")
    s.add_argument("file")
    s.add_argument("cert")
    s.set_defaults(func=cmd_check_cert)

    s = sub.add_parser("discharge", help="run discharging rules")
    s.add_argument("file")
    s.add_argument("--rules", choices=("warmup", "main"), required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_discharge)

    s = sub.add_parser("config", help="list configuration matches")
    s.add_argument("file")
    s.add_argument("--limit", type=int, default=0)
    s.set_defaults(func=cmd_config)

    s = sub.add_parser("reduce", help="emit one certified step as JSON")
    s.add_argument("file")
    s.add_argument("--ratio", default="3/13")
    s.add_argument("--step", action="store_true", help="accepted for compatibility")
    s.set_defaults(func=cmd_reduce)

    s = sub.add_parser("gen", help="generate a seeded triangulation")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--delta5", action="store_true")
    s.add_argument("--no-septri", dest="no_septri", action="store_true")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_gen)

    s = sub.add_parser("alpha", help="exact independence number")
    s.add_argument("file")
    s.set_defaults(func=cmd_alpha)

    s = sub.add_parser("corpus", help="run extraction over a generated corpus")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--ratio", default="3/13")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--delta5", action="store_true")
    s.add_argument("--no-septri", dest="no_septri", action="store_true")
    s.set_defaults(func=cmd_corpus)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GraphError, GenerationError, CertificateError, DischargeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IncompletenessDiagnostic as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        sys.stderr.write(exc.graph_text)
        return EXIT_DIAGNOSTIC
    except mis.OracleBudgetExceeded as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (LiftError, PlanRejected) as exc:
        print(f"engine fault: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
