"""Command line front end.

Exit codes: 0 when the requested check passes (or a report was produced),
1 when a check ran and failed, 2 for unusable input.  All JSON output is
key-sorted with a trailing newline so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import sys

# Each command imports the modules it needs, so that `enumerate` and
# `--help` start without numpy.  Every error of freesym's (errors.py) is a
# ValueError, as are numpy's on unusable arguments, so main needs no list
# of them: a ValueError or an OSError is unusable input.


def _format_blocks(partition) -> str:
    return "|".join("".join(str(x) for x in b) for b in partition.blocks)


def _cmd_enumerate(args) -> int:
    from .partitions import enumerate_all_partitions, enumerate_noncrossing

    k = args.nc if args.nc is not None else args.all
    parts = enumerate_noncrossing(k) if args.nc is not None else enumerate_all_partitions(k)
    if args.list:
        for p in parts:
            print(_format_blocks(p))
    print(len(parts))
    return 0


def _cmd_convert(args) -> int:
    from . import serialize
    from .cumulants import (
        MomentTable,
        classical_cumulants_to_moments,
        free_cumulants_to_moments,
        moments_to_classical_cumulants,
        moments_to_free_cumulants,
    )

    spec = serialize.load_spec(args.file)
    if spec.dim != 1:
        print("error: conversion handles scalar tables only", file=sys.stderr)
        return 2
    if args.to_cumulants and spec.shift != 0:
        print("error: a shift only makes sense for cumulant input", file=sys.stderr)
        return 2
    order = args.order if args.order is not None else spec.order
    table = spec.to_table()
    if args.to_cumulants:
        moments = MomentTable(order=table.order, data=dict(table.data))
        out = (moments_to_free_cumulants if args.free else moments_to_classical_cumulants)(moments, order)
        kind = "cumulants"
    else:
        out = (free_cumulants_to_moments if args.free else classical_cumulants_to_moments)(table, order)
        kind = "moments"
    payload = {
        "calculus": "free" if args.free else "classical",
        "kind": kind,
        "order": order,
        "entries": serialize.table_records(out.data),
    }
    sys.stdout.write(serialize.dumps(payload))
    return 0


def _cmd_classify_dist(args) -> int:
    from . import serialize
    from .distributions import classify_report

    spec = serialize.load_spec(args.file)
    order = args.order if args.order is not None else spec.order
    report = classify_report(spec, order, args.free)
    if args.json:
        sys.stdout.write(serialize.dumps(report))
    else:
        print("tags:", " ".join(report["tags"]) or "(none)")
        print("minimal:", " ".join(report["minimal"]) or "(none)")
        if report["noncanonical_shifted"]:
            print("noncanonical:", " ".join(report["noncanonical_shifted"]))
    return 0


def _cmd_check_rep(args) -> int:
    from . import serialize
    from .qgroups import FamilyTag, check_family, lattice_position

    rep = serialize.load_rep(args.file)
    if args.family is not None:
        tag = FamilyTag.parse(args.family)
        chk = check_family(rep, tag)
        if args.json:
            payload = {"family": tag.label(), "holds": chk.holds, "residual": chk.residual, "details": chk.details}
            sys.stdout.write(serialize.dumps(payload))
        else:
            state = "holds" if chk.holds else "fails"
            print(f"{tag.label()} {state} (residual {chk.residual:.3g})")
        return 0 if chk.holds else 1
    satisfied = lattice_position(rep, args.mmax)["satisfied"]
    if args.json:
        sys.stdout.write(serialize.dumps({"satisfied": satisfied, "m_scan": args.mmax}))
    else:
        print("satisfied:", " ".join(satisfied) or "(none)")
    return 0


def _cmd_lattice_position(args) -> int:
    from . import serialize
    from .qgroups import lattice_position

    rep = serialize.load_rep(args.file)
    pos = lattice_position(rep, args.mmax)
    payload = {key: pos[key] for key in ("satisfied", "minimal", "upward_consistent", "closure", "m_scan")}
    sys.stdout.write(serialize.dumps(payload))
    return 0


def _cmd_check_invariance(args) -> int:
    from . import serialize
    from .invariance import check_invariance

    spec = serialize.load_spec(args.dist)
    rep = serialize.load_rep(args.rep)
    order = args.order if args.order is not None else spec.order
    verdict = check_invariance(
        spec, rep, order, matrix_coeffs=args.matrix_b, seed=args.seed
    )
    if args.json:
        first = verdict.first_violation
        if first is not None:
            first = {"order": first[0], "pattern": first[1], "word": list(first[2]), "residual": first[3]}
        payload = {"invariant": verdict.invariant, "worst_residual": verdict.worst_residual,
                   "first_violation": first, "orders_checked": verdict.orders_checked}
        sys.stdout.write(serialize.dumps(payload))
    elif verdict.invariant:
        print(
            f"invariant up to order {verdict.orders_checked} "
            f"(worst residual {verdict.worst_residual:.3g})"
        )
    else:
        k, letters, word, residual = verdict.first_violation
        print(
            f"violated at order {k}, pattern {letters}, word {word} "
            f"(residual {residual:.3g})"
        )
    return 0 if verdict.invariant else 1


def _cmd_theorem1_probe(args) -> int:
    from . import serialize
    from .invariance import theorem1_probe

    probe = theorem1_probe(n=args.n, max_order=args.order, seed=args.seed)
    if args.json:
        payload = dict(probe)
        payload["mismatches"] = [list(pair) for pair in probe["mismatches"]]
        sys.stdout.write(serialize.dumps(payload))
    else:
        print(f"{probe['cells']} cells, {len(probe['mismatches'])} mismatches")
        for pair in probe["mismatches"]:
            print("mismatch:", *pair)
        for note in probe["notes"]:
            print("note:", note)
    return 0 if not probe["mismatches"] else 1


def _cmd_fixtures(args) -> int:
    from .fixtures import write_fixtures

    manifest = write_fixtures(args.out, seed=args.seed)
    names = sorted(manifest["reps"]) + sorted(manifest["specs"])
    print(f"wrote {len(names)} fixtures and manifest.json to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freesym",
        description="moment/cumulant machinery, matrix-model relation checks, "
        "and distributional invariance scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count set partitions")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--nc", type=int, metavar="K", help="noncrossing partitions of K points")
    kind.add_argument("--all", type=int, metavar="K", help="all partitions of K points")
    p.add_argument("--list", action="store_true", help="print the partitions too")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("convert", help="convert between moments and cumulants")
    p.add_argument("file", help="scalar spec JSON")
    calc = p.add_mutually_exclusive_group(required=True)
    calc.add_argument("--free", action="store_true")
    calc.add_argument("--classical", action="store_true")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-moments", dest="to_moments", action="store_true")
    direction.add_argument("--to-cumulants", dest="to_cumulants", action="store_true")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("classify-dist", help="tag a distribution by its sparsity")
    p.add_argument("file", help="scalar spec JSON")
    calc = p.add_mutually_exclusive_group(required=True)
    calc.add_argument("--free", action="store_true")
    calc.add_argument("--classical", action="store_true")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify_dist)

    p = sub.add_parser("check-rep", help="relation checks for a matrix model")
    p.add_argument("file", help="model JSON")
    p.add_argument("--family", default=None, help="e.g. O_PLUS or H_M_PLUS:3")
    p.add_argument("--mmax", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_rep)

    p = sub.add_parser("lattice-position", help="satisfied families and closure")
    p.add_argument("file", help="model JSON")
    p.add_argument("--mmax", type=int, default=12)
    p.set_defaults(func=_cmd_lattice_position)

    p = sub.add_parser("check-invariance", help="does a model preserve a distribution")
    p.add_argument("--dist", required=True, help="scalar spec JSON")
    p.add_argument("--rep", required=True, help="model JSON")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--matrix-b", dest="matrix_b", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_invariance)

    p = sub.add_parser(
        "theorem1-probe",
        help="cross every distribution class with every family witness",
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_theorem1_probe)

    p = sub.add_parser("fixtures", help="write the built-in witness files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
