"""Command-line surface: synth, build, query, baseline, evaluate, sweep.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error. A
stdout whose reader has gone (`cnnidx build ... | head -1`) ends the command
quietly with 0: what it wrote before is complete.
Every run prints its resolved configuration so reported numbers are traceable.
`query` and `baseline` write a run's ranked ids, summary and timings at the
`--out` prefix through `search.write_run`; `evaluate --timing` reads the
timings back through `search.read_query_times`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import baseline as bl
from . import evaluation, invindex, search, vecio
from .search import RUN_SUFFIXES
from .vecio import DataError, SynthSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _echo_config(name: str, cfg: dict) -> None:
    print(f"[{name}] config: " + json.dumps(cfg, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cnnidx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic clustered features")
    sp.add_argument("--clusters", type=int, required=True)
    sp.add_argument("--per-cluster", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--cluster-std", type=float, default=1.0)
    sp.add_argument("--noise-std", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-features", required=True)
    sp.add_argument("--out-queries", required=True)
    sp.add_argument("--out-gt", required=True)

    bp = sub.add_parser("build", help="build an inverted index")
    bp.add_argument("--features", required=True)
    bp.add_argument("--scheme", choices=["tifc", "ifc"], required=True)
    bp.add_argument("--S", type=int, default=40, help="multiple-link count")
    bp.add_argument("--L", type=int, default=512, help="binary code length")
    bp.add_argument("--K", type=int, default=1000, help="words per segment (ifc)")
    bp.add_argument("--M", type=int, default=2, help="segments (ifc)")
    bp.add_argument("--train-features", default=None,
                    help="codebook training set (default: the database)")
    bp.add_argument("--normalize", action="store_true",
                    help="L2-normalize vectors before indexing")
    bp.add_argument("--out", required=True)

    qp = sub.add_parser("query", help="query an index with a batch of vectors")
    qp.add_argument("--index", required=True)
    qp.add_argument("--queries", required=True)
    qp.add_argument("--W", type=int, default=None,
                    help="assignment count (default: the index link count S)")
    qp.add_argument("--T", type=int, default=None,
                    help="hamming threshold (default: round(0.35 * L))")
    qp.add_argument("--topk", type=int, default=10)
    qp.add_argument("--normalize", action="store_true",
                    help="L2-normalize query vectors (match a --normalize build)")
    qp.add_argument("--out", required=True,
                    help="output prefix: writes " + ", ".join(RUN_SUFFIXES))

    lp = sub.add_parser("baseline", help="brute-force or LSH search")
    lp.add_argument("--method", choices=["bf", "lsh"], required=True)
    lp.add_argument("--features", required=True)
    lp.add_argument("--queries", required=True)
    lp.add_argument("--topk", type=int, default=10)
    lp.add_argument("--tables", type=int, default=8)
    lp.add_argument("--bits", type=int, default=16)
    lp.add_argument("--normalize", action="store_true",
                    help="L2-normalize database and query vectors")
    lp.add_argument("--out", required=True, help="output prefix, as for query")

    ep = sub.add_parser("evaluate", help="score ranked results against ground truth")
    ep.add_argument("--results", required=True, help="ranked id lists, a run's ids file")
    ep.add_argument("--ground-truth", required=True)
    ep.add_argument("--timing", default=None, help="timing JSON from a query run")
    ep.add_argument("--exclude-self", action="store_true",
                    help="drop database id == query id from ranking and relevance")
    ep.add_argument("--out", default=None, help="write the full report JSON here")

    wp = sub.add_parser("sweep", help="run a parameter grid from a JSON spec")
    wp.add_argument("--spec", required=True,
                    help='JSON: {"grid": {...}, "base": {...}, "datasets": '
                         '{"features","queries","ground_truth"[,"train_features"]}}')
    wp.add_argument("--out-prefix", required=True, help="writes .csv and .json")

    return p


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_clusters=args.clusters,
        points_per_cluster=args.per_cluster,
        dim=args.dim,
        cluster_stddev=args.cluster_std,
        noise_stddev=args.noise_std,
        seed=args.seed,
    )
    _echo_config("synth", vars(spec))
    db, queries, gt = vecio.generate_synthetic(spec)
    vecio.write_feature_file(db, args.out_features)
    vecio.write_feature_file(queries, args.out_queries)
    vecio.write_ground_truth(gt, args.out_gt)
    print(f"[synth] wrote {db.n} database and {queries.n} query vectors (dim {db.dim})")
    return EXIT_OK


def _usage_error(command: str, message) -> int:
    print(f"cnnidx {command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_build(args) -> int:
    if args.train_features and args.scheme != invindex.SCHEME_IFC:
        return _usage_error("build", "--train-features applies to --scheme ifc only")
    try:
        cfg = invindex.build_config(args.scheme, vars(args))
    except ValueError as exc:
        return _usage_error("build", exc)
    db = vecio.read_feature_file(args.features)
    if args.normalize:
        db = vecio.l2_normalize(db)
    resolved = {k: getattr(args, k) for k in invindex.BUILD_KEYS[args.scheme]}
    resolved.update(scheme=args.scheme, features=args.features, out=args.out,
                    normalize=args.normalize)
    if cfg.pq is not None:
        resolved["train_features"] = args.train_features
    _echo_config("build", resolved)
    training = vecio.read_feature_file(args.train_features) if args.train_features else None
    if training is not None and args.normalize:
        training = vecio.l2_normalize(training)
    ix = invindex.build(db, cfg, training=training)
    invindex.save(ix, args.out)
    st = invindex.stats(ix)
    print(f"[build] indexed {ix.indexed_count} vectors into {len(ix.wids)} lists "
          f"({st.total_entries} entries, {st.estimated_file_bytes} bytes)")
    return EXIT_OK


def _cmd_query(args) -> int:
    # the flags alone, before any read: an absent W or T stands in as its
    # least value, and the rules that need the index run after the load
    try:
        search.QueryConfig(1 if args.W is None else args.W, 0 if args.T is None else args.T,
                           args.topk)
    except ValueError as exc:
        return _usage_error("query", exc)
    ix = invindex.load(args.index)
    queries = vecio.read_feature_file(args.queries)
    if args.normalize:
        queries = vecio.l2_normalize(queries)
    cfg = search.query_config(ix.config, {"W": args.W, "T": args.T, "top_k": args.topk})
    resolved = {"index": args.index, "queries": args.queries, "W": cfg.assignment_count,
                "T": cfg.hamming_threshold, "topk": args.topk, "scheme": ix.config.scheme,
                "L": ix.config.code_length, "S": ix.config.link_count,
                "normalize": args.normalize}
    _echo_config("query", resolved)
    results, summary = search.batch_query(ix, queries, cfg)
    mean = search.write_run(args.out, [r.ids for r in results], summary.candidate_counts,
                            summary.query_times, resolved)
    print(f"[query] {len(results)} queries, mean time {mean * 1e3:.3f} ms")
    return EXIT_OK


def _cmd_baseline(args) -> int:
    # --topk by QueryConfig's rule and the LSH flags by LshConfig's, before any read
    try:
        search.QueryConfig(1, 0, args.topk)
        lsh_cfg = bl.LshConfig(args.tables, args.bits) if args.method == "lsh" else None
    except ValueError as exc:
        return _usage_error("baseline", exc)
    db = vecio.read_feature_file(args.features)
    queries = vecio.read_feature_file(args.queries)
    if args.normalize:
        db = vecio.l2_normalize(db)
        queries = vecio.l2_normalize(queries)
    resolved = {"method": args.method, "topk": args.topk,
                "features": args.features, "queries": args.queries,
                "normalize": args.normalize}
    if args.method == "lsh":
        resolved.update(tables=args.tables, bits=args.bits)
    _echo_config("baseline", resolved)
    mean = search.write_run(args.out, *bl.run(db, queries, args.topk, lsh_cfg), resolved)
    print(f"[baseline] {queries.n} queries, mean time {mean * 1e3:.3f} ms")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    lists = vecio.read_int_lists(args.results)
    gt = vecio.read_ground_truth(args.ground_truth)
    resolved = {"results": args.results, "ground_truth": args.ground_truth,
                "exclude_self": args.exclude_self}
    _echo_config("evaluate", resolved)
    results = {qid: [int(i) for i in ids] for qid, ids in enumerate(lists)}
    times = search.read_query_times(args.timing, len(lists)) if args.timing else None
    report = evaluation.evaluate(results, gt, query_times=times,
                                 config=resolved, exclude_self=args.exclude_self)
    print(f"MAP {report.map:.6f}")
    if args.out:
        vecio.write_json(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec, ds = evaluation.read_sweep_spec(args.spec)
    _echo_config("sweep", {"spec": args.spec, "grid": spec.grid, "base": spec.base,
                           "datasets": ds})
    db = vecio.read_feature_file(ds["features"])
    queries = vecio.read_feature_file(ds["queries"])
    gt = vecio.read_ground_truth(ds["ground_truth"], n=db.n)
    training = (vecio.read_feature_file(ds["train_features"])
                if "train_features" in ds else None)
    rows = evaluation.sweep(spec, db, queries, gt, training=training)
    evaluation.write_sweep_csv(rows, args.out_prefix + ".csv")
    vecio.write_json(rows, args.out_prefix + ".json")
    for row in rows:
        if "error" in row:
            print(f"[sweep] point {row}: {row['error']}", file=sys.stderr)
    print(f"[sweep] {len(rows)} grid points -> {args.out_prefix}.csv")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "build": _cmd_build,
    "query": _cmd_query,
    "baseline": _cmd_baseline,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return EXIT_OK
    except (DataError, OSError, KeyError, ValueError) as exc:
        print(f"cnnidx: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"cnnidx: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered nowhere, so that the flush at exit does
        # not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
