"""Batch command line: latbeam <command> ...

Commands operate on directories of per-sentence lattices (<id>.lat, one
shared symbol table) and plain-text token files, one sentence per line.
Hypothesis text goes to --out (default stdout); progress and per-item
errors go to stderr. With --json, machine-readable JSON lines replace
the plain hypothesis output. Exit status is 0 only when every work item
succeeded; a file that cannot be opened or decoded as UTF-8 is reported
as one `latbeam: <path>: <reason>` line, or as a per-item error for a
lattice file. File-level work is deterministic, so --workers never changes
any output byte. With --workers, each worker process loads the symbol
table and scorer once, and the pool never has more processes than files.

The LG_SEED environment variable fixes the seed of the demo generator
(the --seed flag wins when given).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path

from . import __version__
from .baselines import (
    NBestList,
    nbest_from_posterior,
    rescore_nbest_dfs,
    rescore_nbest_naive,
)
from .bleu import corpus_bleu, tune_grid
from .decoder import DecoderConfig, decode
from .errors import LatbeamError
from .posterior import STAGES, PosteriorLattice, prepare
from .scorers import UniformScorer, load_ngram_model, load_table_scorer, train_ngram
from .synth import build_demo, write_demo
from .wfsa import (
    SymbolTable,
    parse_symbols,
    parse_wfsa,
    serialize_wfsa,
    validate,
)
from . import semiring


@contextmanager
def _file_errors(path):
    """Turn an OSError or undecodable text met while using the file at
    path into one LatbeamError line naming the file."""
    try:
        yield
    except OSError as exc:
        raise LatbeamError(f"{exc.filename or path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise LatbeamError(f"{path}: {exc}") from None


def _read_text(path) -> str:
    with _file_errors(path):
        return Path(path).read_text(encoding="utf-8")


def _load_symbols(path: str) -> SymbolTable:
    return parse_symbols(_read_text(path))


def _open_copy(symbols: SymbolTable) -> SymbolTable:
    """A copy that takes new words, with ids past every lattice token's;
    the table lattices are read with stays closed."""
    vocab = copy.deepcopy(symbols)
    vocab.closed = False
    return vocab


def _make_scorer(args, symbols: SymbolTable):
    if args.scorer == "uniform":
        return UniformScorer(symbols.ids())
    if args.model is None:
        raise LatbeamError(f"--scorer {args.scorer} needs --model")
    # scorer files may mention words beyond the lattice vocabulary
    load = load_ngram_model if args.scorer == "ngram" else load_table_scorer
    with _file_errors(args.model):
        return load(args.model, _open_copy(symbols))


def _decoder_config(args) -> DecoderConfig:
    return DecoderConfig(beam=args.beam, lambda_lat=args.lambda_lat,
                         lambda_scorer=args.lambda_scorer,
                         local_softmax=args.local_softmax)


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _output(path: str):
    """The --out stream as a context manager; '-' is stdout, left open."""
    if path == "-":
        return nullcontext(sys.stdout)
    with _file_errors(path):
        return open(path, "w", encoding="utf-8")


def _attempt(fn, path: Path, context: dict):
    """(None, payload) of fn(path, **context), or (message, None) on failure."""
    try:
        return None, fn(path, **context)
    except LatbeamError as exc:
        return str(exc), None


_worker_context: dict = {}     # filled once in each pool process by _init_worker


def _init_worker(context: dict) -> None:
    _worker_context.update(context)


def _attempt_in_worker(fn, path: Path):
    return _attempt(fn, path, _worker_context)


def _outcomes(fn, files: list[Path], workers: int, context: dict):
    """(path, (error, payload)) for each file, in file order."""
    if workers == 1:
        yield from zip(files, map(partial(_attempt, fn, context=context), files))
        return
    # about four chunks per worker: few round trips, even load
    chunksize = max(1, len(files) // (4 * workers))
    with ProcessPoolExecutor(workers, initializer=_init_worker,
                             initargs=(context,)) as pool:
        yield from zip(files, pool.map(partial(_attempt_in_worker, fn), files,
                                       chunksize=chunksize))


class _Batch:
    """fn(path, **context) for each .lat file under latdir, in file order.

    Iterating yields (id, payload) for each file that succeeded and prints
    `id: message` to stderr for each that failed, in place. The context is
    what every file shares; with workers it reaches each pool process once,
    through the initializer, and the pool has at most one process per file.
    """

    def __init__(self, fn, latdir: str, workers: int = 1, **context):
        files = sorted(Path(latdir).glob("*.lat"))
        if not files:
            raise LatbeamError(f"no .lat files under {latdir}")
        self.outcomes = _outcomes(fn, files, min(workers, len(files)), context)
        self.status = 0     # the exit code: 0 only when every file succeeded

    def __iter__(self):
        for path, (error, payload) in self.outcomes:
            if error is None:
                yield path.stem, payload
            else:
                self.status = 1
                print(f"{path.stem}: {error}", file=sys.stderr)


def _read_posterior(path: Path, symbols: SymbolTable) -> PosteriorLattice:
    """A pushed lattice from disk, verified in full."""
    inner = parse_wfsa(_read_text(path), symbols, semiring_tag=semiring.LOG)
    return PosteriorLattice(inner)


def _push_file(path: Path, symbols: SymbolTable, outdir: Path) -> dict[str, float]:
    raw = parse_wfsa(_read_text(path), symbols)
    timings: dict[str, float] = {}
    lattice = prepare(raw, stages=timings)
    out = outdir / path.name
    with _file_errors(out):
        out.write_text(serialize_wfsa(lattice.inner, symbols), encoding="utf-8")
    return timings


def cmd_push(args) -> int:
    outdir = Path(args.outdir)
    with _file_errors(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    batch = _Batch(_push_file, args.latdir, args.workers,
                   symbols=_load_symbols(args.symtab), outdir=outdir)
    total = dict.fromkeys(STAGES, 0.0)
    done = 0
    for _, timings in batch:
        for stage, seconds in timings.items():
            total[stage] += seconds
        done += 1
    rows = total.items()
    if args.json:
        for stage, seconds in rows:
            print(json.dumps({"stage": stage, "seconds": seconds,
                              "sentences_per_sec": done / seconds if seconds else None},
                             sort_keys=True))
    else:
        print(f"{'stage':<16} {'seconds':>9} {'sent/sec':>9}", file=sys.stderr)
        for stage, seconds in rows:
            rate = f"{done / seconds:9.1f}" if seconds > 0 else "      inf"
            print(f"{stage:<16} {seconds:9.3f} {rate}", file=sys.stderr)
    return batch.status


def _decode_file(path: Path, symbols: SymbolTable, scorer, cfg: DecoderConfig):
    result = decode(_read_posterior(path, symbols), scorer, cfg)
    tokens = [symbols.sym_of(t) for t in result.best.prefix]
    return tokens, result.best.score, result.node_expansions


def cmd_decode(args) -> int:
    symbols = _load_symbols(args.symtab)
    scorer = _make_scorer(args, symbols)
    cfg = _decoder_config(args)
    batch = _Batch(_decode_file, args.latdir, args.workers,
                   symbols=symbols, scorer=scorer, cfg=cfg)
    expansions = []
    with _output(args.out) as out:
        for ident, (tokens, score, n_exp) in batch:
            expansions.append(n_exp)
            if args.json:
                out.write(json.dumps({"id": ident, "tokens": tokens,
                                      "score": score, "expansions": n_exp},
                                     sort_keys=True) + "\n")
            else:
                out.write(" ".join(tokens) + "\n")
                print(f"{ident}: score {score:.6f}, expansions {n_exp}",
                      file=sys.stderr)
    if expansions:
        mean = sum(expansions) / len(expansions)
        print(f"decoded {len(expansions)} sentences, "
              f"mean node expansions {mean:.1f}", file=sys.stderr)
    return batch.status


def _nbest_file(path: Path, symbols: SymbolTable, n: int) -> list[str]:
    nbest = nbest_from_posterior(_read_posterior(path, symbols), n,
                                 source_id=path.stem)
    lines = []
    for tokens, logprob in nbest.entries:
        text = " ".join(symbols.sym_of(t) for t in tokens)
        lines.append(f"{nbest.source_id} ||| {text} ||| {logprob!r}")
    return lines


def cmd_nbest(args) -> int:
    batch = _Batch(_nbest_file, args.latdir, args.workers,
                   symbols=_load_symbols(args.symtab), n=args.nbest)
    with _output(args.out) as out:
        for _, lines in batch:
            for line in lines:
                out.write(line + "\n")
    return batch.status


def _read_nbest_file(path, symbols) -> list[NBestList]:
    groups: dict[str, list[tuple[tuple[int, ...], float]]] = {}
    with _file_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split("|||")]
            if len(parts) != 3:
                raise LatbeamError(
                    f"{path}: line {lineno}: expected 'id ||| tokens ||| logprob'")
            ident, text, lp_text = parts
            try:
                logprob = float(lp_text)
            except ValueError:
                logprob = math.nan
            if not math.isfinite(logprob):
                raise LatbeamError(f"{path}: line {lineno}: bad logprob {lp_text!r}")
            tokens = tuple(symbols.id_of(t) for t in text.split())
            groups.setdefault(ident, []).append((tokens, logprob))
    lists = []
    for ident, entries in sorted(groups.items()):
        try:
            lists.append(NBestList(entries, source_id=ident))
        except ValueError as exc:
            raise LatbeamError(f"{path}: list {ident}: {exc}") from None
    return lists


def cmd_rescore(args) -> int:
    symbols = _load_symbols(args.symtab)
    scorer = _make_scorer(args, symbols)
    rescore = rescore_nbest_dfs if args.mode == "dfs" else rescore_nbest_naive
    total_calls = 0
    n_lists = 0
    with _output(args.out) as out:
        for nbest in _read_nbest_file(args.nbest_file, symbols):
            result = rescore(nbest, scorer, lambda_lat=args.lambda_lat,
                             lambda_scorer=args.lambda_scorer)
            best = result.ranked[0]
            total_calls += result.predict_calls
            n_lists += 1
            tokens = [symbols.sym_of(t) for t in best.tokens]
            if args.json:
                out.write(json.dumps(
                    {"id": nbest.source_id, "tokens": tokens,
                     "score": best.joint_score,
                     "predict_calls": result.predict_calls},
                    sort_keys=True) + "\n")
            else:
                out.write(" ".join(tokens) + "\n")
    if n_lists:
        print(f"rescored {n_lists} lists ({args.mode}), "
              f"mean predict calls {total_calls / n_lists:.1f}", file=sys.stderr)
    return 0


def _read_sentences(path) -> list[list[str]]:
    return [line.split() for line in _read_text(path).splitlines()]


def cmd_tune(args) -> int:
    symbols = _load_symbols(args.symtab)
    scorer = _make_scorer(args, symbols)
    batch = _Batch(_read_posterior, args.latdir, symbols=symbols)
    lattices = [lattice for _, lattice in batch]
    if batch.status:
        return batch.status
    # a reference word no lattice holds gets an id of its own, which no
    # hypothesis can match
    vocab = _open_copy(symbols)
    references = [[vocab.add(t) for t in sent] for sent in _read_sentences(args.refs)]
    if len(references) != len(lattices):
        raise LatbeamError(f"{args.refs}: {len(references)} references "
                           f"for {len(lattices)} lattices")
    grid = _parse_grid(args.grid)
    result = tune_grid(lattices, references, scorer, grid, beam=args.beam,
                       local_softmax=args.local_softmax)
    if args.json:
        print(json.dumps({"lambda_lat": result.lambda_lat,
                          "lambda_scorer": result.lambda_scorer,
                          "bleu": result.bleu.score,
                          "history": result.history}, sort_keys=True))
    else:
        for lam, score in result.history:
            print(f"lambda_lat {lam:g}: bleu {score:.4f}")
        print(f"best lambda_lat {result.lambda_lat:g} "
              f"(lambda_scorer 1), bleu {result.bleu.score:.4f}")
    return 0


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise LatbeamError(f"bad grid {spec!r}, expected start:stop:step")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise LatbeamError(f"bad grid {spec!r}, expected numbers") from None
    if not all(map(math.isfinite, numbers)):
        raise LatbeamError(f"bad grid {spec!r}, values must be finite")
    if len(numbers) == 1:
        return numbers
    start, stop, step = numbers
    if step <= 0:
        raise LatbeamError("grid step must be positive")
    values = []
    i = 0
    while True:
        v = round(start + i * step, 10)
        if v > stop + 1e-9:
            break
        values.append(v)
        i += 1
    return values


def cmd_bleu(args) -> int:
    hyps = _read_sentences(args.hyp)
    refs = _read_sentences(args.ref)
    report = corpus_bleu(hyps, refs)
    if args.json:
        print(json.dumps({"bleu": report.score,
                          "precisions": list(report.precisions),
                          "brevity_penalty": report.brevity_penalty,
                          "hyp_length": report.hyp_length,
                          "ref_length": report.ref_length}, sort_keys=True))
    else:
        precisions = "/".join(f"{p:.4f}" for p in report.precisions)
        print(f"bleu {report.score:.4f} (precisions {precisions}, "
              f"bp {report.brevity_penalty:.4f}, "
              f"len {report.hyp_length}/{report.ref_length})")
    return 0


def _stats_file(path: Path, symbols: SymbolTable):
    return validate(parse_wfsa(_read_text(path), symbols))


def cmd_stats(args) -> int:
    symbols = _load_symbols(args.symtab)
    batch = _Batch(_stats_file, args.latdir, symbols=symbols)
    rows = list(batch)
    if args.json:
        for ident, report in rows:
            print(json.dumps({"id": ident, "states": report.n_states,
                              "arcs": report.n_arcs, "finals": report.n_finals,
                              "arcs_per_state": report.arcs_per_state,
                              "acyclic": report.is_acyclic,
                              "deterministic": report.is_deterministic,
                              "epsilon": report.has_epsilon,
                              "empty": report.is_empty}, sort_keys=True))
    else:
        print(f"{'id':<8} {'states':>7} {'arcs':>7} {'finals':>7} "
              f"{'arcs/state':>11} {'acyclic':>8}")
        for ident, report in rows:
            print(f"{ident:<8} {report.n_states:>7} {report.n_arcs:>7} "
                  f"{report.n_finals:>7} {report.arcs_per_state:>11.2f} "
                  f"{str(report.is_acyclic):>8}")
        if rows:
            mean = sum(r.arcs_per_state for _, r in rows) / len(rows)
            print(f"mean arcs/state {mean:.2f}")
    return batch.status


def cmd_train(args) -> int:
    symbols = _load_symbols(args.symtab) if args.symtab else SymbolTable()
    corpus = []
    for sent in _read_sentences(args.corpus):
        corpus.append([symbols.id_of(t) if symbols.closed else symbols.add(t)
                       for t in sent])
    model = train_ngram(corpus, order=args.order, smoothing=args.smoothing,
                        k=args.k, alpha=args.alpha, min_count=args.min_count)
    with _file_errors(args.out):
        model.save(args.out, symbols)
    print(f"trained order-{args.order} {args.smoothing} model on "
          f"{len(corpus)} sentences, vocab {len(model.vocab)}", file=sys.stderr)
    return 0


def cmd_demo(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LG_SEED", "13"))
    demo = build_demo(seed=seed, n_sentences=args.sentences)
    with _file_errors(args.outdir):
        write_demo(demo, args.outdir)
    print(f"wrote demo set ({args.sentences} sentences, seed {seed}) "
          f"to {args.outdir}", file=sys.stderr)
    return 0


def _add_scorer_flags(sub):
    sub.add_argument("--scorer", choices=["uniform", "ngram", "table"],
                     default="uniform")
    sub.add_argument("--model", metavar="PATH",
                     help="model file for --scorer ngram/table")


def _add_lambda_flags(sub):
    sub.add_argument("--lambda-lat", type=float, default=1.0, dest="lambda_lat")
    sub.add_argument("--lambda-scorer", type=float, default=1.0,
                     dest="lambda_scorer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latbeam",
        description="lattice preprocessing and fused beam-search decoding")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("push", help="preprocess raw lattices into posteriors")
    p.add_argument("latdir")
    p.add_argument("outdir")
    p.add_argument("--symtab", required=True)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_push)

    p = commands.add_parser("decode", help="beam-decode pushed lattices")
    p.add_argument("latdir", help="directory of pushed lattices")
    p.add_argument("--symtab", required=True)
    _add_scorer_flags(p)
    _add_lambda_flags(p)
    p.add_argument("--beam", type=int, default=12)
    p.add_argument("--local-softmax", action="store_true", dest="local_softmax")
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_decode)

    p = commands.add_parser("nbest", help="extract n-best lists from pushed lattices")
    p.add_argument("latdir")
    p.add_argument("--symtab", required=True)
    p.add_argument("--nbest", type=int, default=100, metavar="N")
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_nbest)

    p = commands.add_parser("rescore", help="rescore an n-best file with a scorer")
    p.add_argument("nbest_file")
    p.add_argument("--symtab", required=True)
    p.add_argument("--mode", choices=["naive", "dfs"], default="dfs")
    _add_scorer_flags(p)
    _add_lambda_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_rescore)

    p = commands.add_parser("tune", help="grid-search lambda_lat by BLEU")
    p.add_argument("latdir", help="directory of pushed lattices")
    p.add_argument("refs")
    p.add_argument("--symtab", required=True)
    _add_scorer_flags(p)
    p.add_argument("--grid", default="0:2:0.25", help="start:stop:step")
    p.add_argument("--beam", type=int, default=12)
    p.add_argument("--local-softmax", action="store_true", dest="local_softmax")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tune)

    p = commands.add_parser("bleu", help="corpus BLEU of hypothesis vs reference file")
    p.add_argument("hyp")
    p.add_argument("ref")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bleu)

    p = commands.add_parser("stats", help="validate lattices and report sizes")
    p.add_argument("latdir")
    p.add_argument("--symtab", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("train", help="train an n-gram scorer on a text corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--symtab")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--smoothing", choices=["add-k", "stupid-backoff"],
                   default="add-k")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("demo", help="write the bundled synthetic demo set")
    p.add_argument("outdir")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sentences", type=int, default=50)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LatbeamError as exc:
        print(f"latbeam: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
