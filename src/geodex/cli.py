"""Command line front door.

Results go to stdout, diagnostics to stderr.  Exit code 0 means success
or a verified/true answer, 1 means a failed verification or a false
answer (non-isomorphic, incomplete search, no witness), 2 means a usage
or parse error or a file that cannot be written.  No environment
variables are consulted.
"""

import argparse
import contextlib
import json
import os
import sys

from . import catalog as catalog_mod
from .canon import canonical_form, are_isomorphic
from .cayley import search_cayley_a4
from .core import SearchParams, _order_text, moore_bound, verify
from .catalog import MAX_ORDER, DigraphFormatError, read_digraph, write_digraph
from .lemmas import classify_pair, common_out_pairs, triangle_census
from .search import Checkpoint, search

LONG_RUN_ORDER = 17


def _load_digraph(path: str):
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        with open(path, "r", encoding="utf-8-sig") as fh:
            return read_digraph(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (DigraphFormatError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _open_for_writing(path: str, mode: str = "w"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _params_from(args) -> SearchParams:
    return SearchParams(
        d=args.d,
        k=args.k,
        epsilon=args.excess,
        diregular=args.diregular,
        max_results=getattr(args, "limit", None),
        max_nodes=getattr(args, "budget", None),
    )


def _cmd_moore(args, out, err) -> int:
    bound = _order_text(moore_bound(args.d, args.k))
    if bound.startswith("~"):
        raise ValueError(f"the Moore bound {bound} has too many decimal digits to print")
    print(bound, file=out)
    return 0


def _cmd_verify(args, out, err) -> int:
    g = _load_digraph(args.path)
    report = verify(g, _params_from(args))
    print(f"order {report.order} expected {_order_text(report.expected_order)} "
          f"{'PASS' if report.order_ok else 'FAIL'}", file=out)
    print(f"outdegree {'PASS' if report.outdegree_ok else 'FAIL'}", file=out)
    if report.params.diregular:
        print(f"diregular {'PASS' if report.diregular_ok else 'FAIL'}", file=out)
    else:
        print("diregular not-requested", file=out)
    if report.geodetic_ok:
        print("geodetic PASS", file=out)
    else:
        w = report.geodetic_witness
        print(f"geodetic FAIL pair {w.source} {w.target} "
              f"walks {','.join(map(str, w.walk_a))} and {','.join(map(str, w.walk_b))}",
              file=out)
    print("outlier-of " + " ".join(str(c) for c in report.outlier_counts), file=out)
    print(f"verdict {'PASS' if report.ok else 'FAIL'}", file=out)
    return 0 if report.ok else 1


def _cmd_catalog(args, out, err) -> int:
    entry = catalog_mod.catalog_a() if args.id == "A" else catalog_mod.catalog_b()
    out.write(write_digraph(entry.digraph))
    return 0


def _cmd_canon(args, out, err) -> int:
    g = _load_digraph(args.path)
    print(canonical_form(g).hex(), file=out)
    return 0


def _cmd_iso(args, out, err) -> int:
    g = _load_digraph(args.path_a)
    h = _load_digraph(args.path_b)
    if are_isomorphic(g, h):
        print("isomorphic", file=out)
        return 0
    print("non-isomorphic", file=out)
    return 1


def _cmd_census(args, out, err) -> int:
    g = _load_digraph(args.path)
    # opened before anything is printed, so that a bad path prints nothing
    with _open_for_writing(args.emit) if args.emit else contextlib.nullcontext() as emit:
        census = triangle_census(g)
        # the good/bad labels are defined for diregular (2,2,+2)-digraphs only
        classify_ok = verify(g, SearchParams(d=2, k=2, epsilon=2, diregular=True)).ok
        for tri in census.triangles:
            print("triangle " + " ".join(map(str, tri)), file=out)
        print("per-vertex " + " ".join(map(str, census.per_vertex)), file=out)
        pair_rows = []
        for c in (1, 2):
            for pc in common_out_pairs(g, c):
                label = "-"
                if c == 1 and classify_ok:
                    label = "bad" if classify_pair(g, pc.u, pc.v, 2).bad else "good"
                pair_rows.append((pc.u, pc.v, c, label))
                print(f"pair {pc.u} {pc.v} common {c} {label}", file=out)
        if emit:
            dump = {
                "triangles": [list(t) for t in census.triangles],
                "per_vertex": list(census.per_vertex),
                "pairs": [{"u": u, "v": v, "common": c, "class": label}
                          for u, v, c, label in pair_rows],
            }
            json.dump(dump, emit, indent=2)
            emit.write("\n")
    return 0


def _cmd_search(args, out, err) -> int:
    params = _params_from(args)
    if LONG_RUN_ORDER <= params.order <= MAX_ORDER and not args.long_run:
        raise ValueError(
            f"order {params.order} search may run for hours; pass --long-run to confirm"
        )
    checkpoint = Checkpoint(args.checkpoint, err) if args.checkpoint else None
    # opened before the search, so that a bad path fails before any task
    # runs, but emptied only once the search has returned; a file that
    # this run created is removed again when the search fails
    created = bool(args.emit) and not os.path.exists(args.emit)
    with _open_for_writing(args.emit, "a") if args.emit else contextlib.nullcontext() as emit:
        try:
            outcome = search(params, jobs=args.jobs, checkpoint=checkpoint)
        except ValueError:
            if created:
                emit.close()
                os.remove(args.emit)
            raise
        blocks = [write_digraph(r.digraph) for r in outcome.results]
        if emit:
            emit.truncate(0)
            emit.write("\n".join(blocks))
    for block in blocks:
        out.write(block)
        out.write("\n")
    print(f"results={len(outcome.results)} nodes={outcome.nodes_explored} "
          f"complete={'true' if outcome.complete else 'false'}", file=out)
    return 0 if outcome.complete else 1


def _cmd_cayley_a4(args, out, err) -> int:
    witnesses = search_cayley_a4(args.k, args.excess)
    for w in witnesses:
        s, t = w.generators
        print("witness " + "".join(map(str, s)) + " " + "".join(map(str, t)), file=out)
    print(f"witnesses={len(witnesses)}", file=out)
    return 0 if witnesses else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodex",
        description="verify and exhaustively search k-geodetic digraphs near the Moore bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moore", help="print the Moore bound for out-degree d and depth k")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_moore)

    p = sub.add_parser("verify", help="check a digraph file against (d, k, excess)")
    p.add_argument("path")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--excess", type=int, required=True)
    p.add_argument("--diregular", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="print a catalog digraph in file format")
    p.add_argument("id", choices=["A", "B"])
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("canon", help="print the canonical form of a digraph file as hex")
    p.add_argument("path")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("iso", help="decide whether two digraph files are isomorphic")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("census", help="triangle census and pair classification")
    p.add_argument("path")
    p.add_argument("--emit", help="also write a JSON dump to this path")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("search", help="exhaustive isomorph-free search")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--excess", type=int, required=True)
    p.add_argument("--diregular", action="store_true")
    p.add_argument("--limit", type=int, help="stop after this many results")
    p.add_argument("--budget", type=int, help="node budget, counted in task order; a run it stops is incomplete")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--long-run", action="store_true",
                   help=f"required for searches of order {LONG_RUN_ORDER} and above")
    p.add_argument("--checkpoint", help="JSON file recording finished subtrees, for resumable runs")
    p.add_argument("--emit", help="also write the result digraphs to this path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("cayley-a4", help="generating pairs of A4 whose Cayley digraph is k-geodetic")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--excess", type=int, default=5)
    p.set_defaults(func=_cmd_cayley_a4)

    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out, err)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
