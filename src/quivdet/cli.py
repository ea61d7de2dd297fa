"""Command-line front end.

Exit codes: 0 success (including a certified or counterexample-free verify),
1 verification counterexample, 2 file parse error, 3 semantic error or any
other QuivdetError (FieldTooSmallError, DecompositionInconclusiveError,
InvariantError).
"""

from __future__ import annotations

import argparse
import json
import sys

from .decompose import decompose
from .determiner import (
    DeterminerEngine,
    DeterminerMember,
    minimal_left_determiner,
)
from .errors import ParseError, QuivdetError, SemanticError
from .formats import load_session
from .linalg import field_from_name
from .quiver import parse_quiver
from .translate import canonical_label, classify_underlying_graph, knit

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _common_flags(sub, cap=False):
    sub.add_argument("--field", default="rat", help="ground field: rat or fp:<p>")
    if cap:
        sub.add_argument("--cap", type=int, default=5000, help="knitting cap on iso-classes")
    sub.add_argument("--json", action="store_true", help="emit the JSON report")


def _print_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _render_report(report, out):
    d = report.to_json_dict()
    out.write(f"morphism {d['morphism']} over field {d['field']} ({d['side']} determiner)\n")
    rm = d["right_minimal"]
    out.write(f"  domain dims {rm['domain_dims']}, minimal version dims "
              f"{rm['minimal_domain_dims']}, split off {rm['split_off_dims']}\n")
    if d["trivial"]:
        out.write("  split epimorphism: the determiner is empty (trivial)\n")
    out.write(f"  intrinsic kernel: {d['intrinsic_kernel'] or 'zero'}\n")
    soc = ", ".join(f"S_{e['vertex']} x{e['multiplicity']}" for e in d["soc_coker"]) or "zero"
    out.write(f"  socle of cokernel: {soc}\n")
    out.write("  determiner:\n")
    if not d["determiner"]:
        out.write("    (empty)\n")
    for m in d["determiner"]:
        out.write(f"    {m['label']}  dim {m['dim_vector']}  [{m['provenance']}]\n")
    reg = d["registry"]
    out.write(f"  registry: {reg['size']} objects, "
              f"{'complete' if reg['complete'] else 'INCOMPLETE'}\n")
    o = d["oracle"]
    if o:
        out.write(f"  oracle: checked {o['checked_objects']} objects, "
                  f"determination_ok={o['determination_ok']}")
        if o["determination_witness"]:
            out.write(f" (witness {o['determination_witness']})")
        out.write("\n")
        for label, ok in o["member_almost_factors"]:
            out.write(f"    {label}: almost factors = {ok}\n")
        # on an incomplete registry a missing removal witness is inconclusive
        missing = ("breaks at NOTHING (not minimal!)" if o["complete"]
                   else "finds no witness among the registered objects")
        for label, wit in o["removal_breaks"]:
            out.write(f"    {label}: removal {f'breaks at {wit}' if wit else missing}\n")
        verdict = "no counterexample found (bounded)" if report.oracle.passed() else "FAILED"
        out.write(f"  verdict: {'CERTIFIED' if o['certified'] else verdict}\n")


def cmd_det(args) -> int:
    if args.left and args.override:
        raise SemanticError("--override is only supported for right determiners")
    field = field_from_name(args.field)
    q = parse_quiver(_read(args.quiver))
    session = load_session(q, field, _read(args.data))
    f = session.morphism(args.morphism)
    registry = knit(q, field, args.cap)
    override = None
    if args.override:
        override = []
        for label in args.override.split(","):
            entry = registry.by_label(label.strip())
            override.append(DeterminerMember(entry.label, entry.rep, "override"))
    if args.left:
        report = minimal_left_determiner(f, registry=registry, verify=args.verify,
                                         morphism_name=args.morphism)
    else:
        report = DeterminerEngine(registry).report(
            f, morphism_name=args.morphism, verify=args.verify, override=override)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        _render_report(report, sys.stdout)
    if args.verify and report.oracle is not None and not report.oracle.passed():
        return EXIT_COUNTEREXAMPLE
    if args.verify and not report.registry_complete:
        sys.stderr.write("warning: registry incomplete; verdict is not a certificate\n")
    return EXIT_OK


def cmd_ar(args) -> int:
    field = field_from_name(args.field)
    q = parse_quiver(_read(args.quiver))
    registry = knit(q, field, args.cap)
    kind, types = classify_underlying_graph(q)
    if args.json:
        doc = {
            "underlying_graph": {"kind": kind, "types": list(types) if types else None},
            "complete": registry.complete,
            "entries": [
                {
                    "label": e.label,
                    "dim_vector": list(e.rep.dims),
                    "projective": e.projective_vertex,
                    "injective": e.injective_vertex,
                    "tau_minus": registry.entries[e.tau_minus].label if e.tau_minus is not None else None,
                }
                for e in registry.entries
            ],
        }
        _print_json(doc)
        return EXIT_OK
    for e in registry.entries:
        flags = ""
        if e.is_projective:
            flags += "[P]"
        if e.is_injective:
            flags += "[I]"
        flags = flags or "[]"
        tau = registry.entries[e.tau_minus].label if e.tau_minus is not None else "none"
        dims = "(" + ",".join(str(d) for d in e.rep.dims) + ")"
        sys.stdout.write(f"{e.label}\t{dims}\t{flags}\ttau_minus -> {tau}\n")
    graph = kind if types is None else f"{kind} ({' + '.join(types)})"
    status = "complete" if registry.complete else f"INCOMPLETE (cap {args.cap})"
    sys.stdout.write(f"# {len(registry.entries)} iso-classes, registry {status}, underlying graph {graph}\n")
    return EXIT_OK


def cmd_hom(args) -> int:
    field = field_from_name(args.field)
    q = parse_quiver(_read(args.quiver))
    session = load_session(q, field, _read(args.data) if args.data else None)
    M = session.representation(args.domain)
    N = session.representation(args.codomain)
    hs = q.workspace.hom(M, N)
    if args.json:
        doc = {
            "domain": args.domain,
            "codomain": args.codomain,
            "dimension": hs.dim,
            "basis": [
                {v: [[str(x) for x in row] for row in b.comps[i].entries]
                 for i, v in enumerate(q.vertices)}
                for b in hs.basis
            ],
        }
        _print_json(doc)
        return EXIT_OK
    sys.stdout.write(f"dim Hom({args.domain}, {args.codomain}) = {hs.dim}\n")
    for k, b in enumerate(hs.basis):
        sys.stdout.write(f"basis element {k}:\n")
        for i, v in enumerate(q.vertices):
            sys.stdout.write(f"  {v}: {b.comps[i]!r}\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    field = field_from_name(args.field)
    q = parse_quiver(_read(args.quiver))
    session = load_session(q, field, _read(args.data) if args.data else None)
    M = session.representation(args.rep)
    # a Dynkin knit ends by itself at the positive-root count; any other knit
    # runs to the cap, so there the summands are labelled without a registry
    if classify_underlying_graph(q)[0] == "dynkin":
        label_of = knit(q, field, args.cap).label_of
    else:
        label_of = canonical_label
    result = decompose(M)
    if args.json:
        doc = {
            "rep": args.rep,
            "summands": [
                {"label": label_of(leaf), "dim_vector": list(leaf.dims),
                 "multiplicity": mult}
                for leaf, mult in result.summands
            ],
        }
        _print_json(doc)
        return EXIT_OK
    if not result.summands:
        sys.stdout.write(f"{args.rep} is the zero representation\n")
        return EXIT_OK
    for leaf, mult in result.summands:
        dims = "(" + ",".join(str(d) for d in leaf.dims) + ")"
        sys.stdout.write(f"{label_of(leaf)}\t{dims}\tx{mult}\n")
    return EXIT_OK


def cmd_factor(args) -> int:
    field = field_from_name(args.field)
    q = parse_quiver(_read(args.quiver))
    session = load_session(q, field, _read(args.data))
    g = session.morphism(args.g)
    f = session.morphism(args.f)
    h = DeterminerEngine.factors_through(g, f)
    if args.json:
        doc = {"factors": h is not None}
        if h is not None:
            doc["witness"] = {v: [[str(x) for x in row] for row in h.comps[i].entries]
                              for i, v in enumerate(q.vertices)}
        _print_json(doc)
        return EXIT_OK
    if h is None:
        sys.stdout.write("no\n")
    else:
        sys.stdout.write("yes\n")
        for i, v in enumerate(q.vertices):
            sys.stdout.write(f"  {v}: {h.comps[i]!r}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quivdet",
        description="Minimal right determiners of quiver representation morphisms, "
                    "with an independent verification oracle.")
    sub = p.add_subparsers(dest="command", required=True)

    det = sub.add_parser("det", help="compute (and verify) a minimal determiner")
    det.add_argument("quiver", help="quiver file")
    det.add_argument("data", help="data file with representations and morphisms")
    det.add_argument("morphism", help="morphism name from the data file")
    det.add_argument("--verify", action="store_true", help="run the functorial oracle")
    det.add_argument("--override", default=None,
                     help="comma-separated registry labels replacing the formula output")
    det.add_argument("--left", action="store_true", help="compute the minimal left determiner")
    _common_flags(det, cap=True)
    det.set_defaults(run=cmd_det)

    ar = sub.add_parser("ar", help="knit the tau-minus registry")
    ar.add_argument("quiver")
    _common_flags(ar, cap=True)
    ar.set_defaults(run=cmd_ar)

    hom = sub.add_parser("hom", help="basis of Hom(M, N)")
    hom.add_argument("quiver")
    hom.add_argument("domain")
    hom.add_argument("codomain")
    hom.add_argument("--data", default=None)
    _common_flags(hom)
    hom.set_defaults(run=cmd_hom)

    dec = sub.add_parser("decompose", help="indecomposable summands of a representation")
    dec.add_argument("quiver")
    dec.add_argument("rep")
    dec.add_argument("--data", default=None)
    _common_flags(dec, cap=True)
    dec.set_defaults(run=cmd_decompose)

    fac = sub.add_parser("factor", help="does g factor through f?")
    fac.add_argument("quiver")
    fac.add_argument("data")
    fac.add_argument("g")
    fac.add_argument("f")
    _common_flags(fac)
    fac.set_defaults(run=cmd_factor)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_PARSE
    except (SemanticError, QuivdetError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
