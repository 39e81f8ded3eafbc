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
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import sys
from array import array
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import chain
from pathlib import Path

from . import __version__
from .baselines import (
    NBestList,
    nbest_from_posterior,
    rescore_nbest_dfs,
    rescore_nbest_naive,
)
from .bleu import _lattice_stats, _tune_configs, _tune_result, corpus_bleu
from .decoder import DecoderConfig, decode
from .errors import LatbeamError, UnknownSymbolError
from .posterior import STAGES, PosteriorLattice, prepare
from .scorers import (MAX_ORDER, UniformScorer, load_ngram_model, load_table_scorer,
                      train_ngram)
from .synth import build_demo, write_demo
from .wfsa import (
    SymbolTable,
    parse_symbols,
    parse_wfsa,
    _text_lines,
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
    gc.disable()    # as in main, whatever the start method
    _worker_context.update(context)


def _attempt_in_worker(fn, path: Path):
    return _attempt(fn, path, _worker_context)


def _outcomes(fn, files: list[Path], workers: int, context: dict):
    """(path, (error, payload)) for each file, in file order."""
    if workers == 1:
        yield from zip(files, map(partial(_attempt, fn, context=context), files))
        return
    # imported here: loading the pool's modules takes tens of milliseconds,
    # which a serial run would pay for nothing
    from concurrent.futures import ProcessPoolExecutor
    # about four chunks per worker: few round trips, even load
    chunksize = max(1, len(files) // (4 * workers))
    with ProcessPoolExecutor(workers, initializer=_init_worker,
                             initargs=(context,)) as pool:
        yield from zip(files, pool.map(partial(_attempt_in_worker, fn), files,
                                       chunksize=chunksize))


def _lattice_files(latdir: str) -> list[Path]:
    """The .lat files under latdir, sorted; none is an error."""
    files = sorted(Path(latdir).glob("*.lat"))
    if not files:
        raise LatbeamError(f"no .lat files under {latdir}")
    return files


class _Batch:
    """fn(path, **context) for each of files, in order.

    Iterating yields (id, payload) for each file that succeeded and prints
    `id: message` to stderr for each that failed, in place. The context is
    what every file shares; with workers it reaches each pool process once,
    through the initializer, and the pool has at most one process per file.
    """

    def __init__(self, fn, files: list[Path], workers: int = 1, **context):
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
    timings: dict[str, float] = {}
    # no name here holds the raw lattice, so prepare can free it after
    # epsilon removal (on CPython 3.11 and later)
    lattice = prepare(parse_wfsa(_read_text(path), symbols), stages=timings)
    out = outdir / path.name
    # the text of serialize_wfsa, written as it is made
    with _file_errors(out), open(out, "w", encoding="utf-8") as stream:
        stream.writelines(_text_lines(lattice.inner, symbols))
    return timings


def cmd_push(args) -> int:
    outdir = Path(args.outdir)
    with _file_errors(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    batch = _Batch(_push_file, _lattice_files(args.latdir), args.workers,
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


def _finite(score: float, where: str) -> float:
    """score, or a LatbeamError naming where when it is not finite: -inf
    when every hypothesis has no mass under a model with a positive
    lambda. Such a score fails its sentence or list, and --json never
    prints NaN or Infinity, which are not JSON."""
    if not math.isfinite(score):
        raise LatbeamError(f"{where}best score is {score}, not finite")
    return score


def _decode_file(path: Path, symbols: SymbolTable, scorer, cfg: DecoderConfig):
    result = decode(_read_posterior(path, symbols), scorer, cfg)
    tokens = symbols.spell(result.best.prefix)
    return tokens, _finite(result.best.score, ""), result.node_expansions


def cmd_decode(args) -> int:
    symbols = _load_symbols(args.symtab)
    scorer = _make_scorer(args, symbols)
    cfg = _decoder_config(args)
    batch = _Batch(_decode_file, _lattice_files(args.latdir), args.workers,
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
        text = " ".join(symbols.spell(tokens))
        lines.append(f"{nbest.source_id} ||| {text} ||| {logprob!r}")
    return lines


def cmd_nbest(args) -> int:
    batch = _Batch(_nbest_file, _lattice_files(args.latdir), args.workers,
                   symbols=_load_symbols(args.symtab), n=args.nbest)
    with _output(args.out) as out:
        for _, lines in batch:
            for line in lines:
                out.write(line + "\n")
    return batch.status


def _read_nbest_file(path, symbols):
    """The n-best lists of the file at path, one NBestList at a time, in
    sorted-id order.

    Every line is checked as it is read, so a bad line fails, in file
    order, before any list is yielded; a list that NBestList refuses
    fails when its turn comes. Until then each id's entries wait as
    three array columns: token ids (8, 16, 32 or 64 bits each), where
    each entry's tokens end (32 bits each, so a list holds at most
    2**32 - 1 tokens), and log-probabilities. With 8-bit ids that is
    about 3 bytes a token, where tuples of ints take about 20.
    """
    # token ids in the narrowest unsigned type that holds the table's ids
    top = max(symbols.ids(), default=0)
    typecode = next((t for t in "BHIQ" if top < 1 << 8 * array(t).itemsize), "Q")
    columns: dict[str, tuple[array, array, array]] = {}
    with _file_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("|||")
            if len(parts) != 3:
                if not line.strip():
                    continue
                raise LatbeamError(
                    f"{path}: line {lineno}: expected 'id ||| tokens ||| logprob'")
            ident, text, lp_text = parts
            try:
                logprob = float(lp_text)
            except ValueError:
                logprob = math.nan
            if not math.isfinite(logprob):
                raise LatbeamError(
                    f"{path}: line {lineno}: bad logprob {lp_text.strip()!r}")
            ident = ident.strip()
            group = columns.get(ident)
            if group is None:
                group = columns[ident] = (array(typecode), array("I"), array("d"))
            tokens, ends, logprobs = group
            try:
                tokens.extend(symbols.ids_of(text.split()))
            except UnknownSymbolError as exc:
                raise LatbeamError(f"{path}: line {lineno}: {exc}") from None
            except OverflowError:
                raise LatbeamError(
                    f"{path}: line {lineno}: symbol id beyond 64 bits") from None
            try:
                ends.append(len(tokens))
            except OverflowError:
                raise LatbeamError(f"{path}: line {lineno}: list {ident} "
                                   "beyond 2**32 - 1 tokens") from None
            logprobs.append(logprob)
    for ident in sorted(columns):
        tokens, ends, logprobs = columns.pop(ident)
        ids = tokens.tolist()
        entries = [(tuple(ids[start:end]), logprob) for start, end, logprob
                   in zip(chain((0,), ends), ends, logprobs)]
        try:
            nbest = NBestList(entries, source_id=ident)
        except ValueError as exc:
            raise LatbeamError(f"{path}: list {ident}: {exc}") from None
        yield nbest


def cmd_rescore(args) -> int:
    symbols = _load_symbols(args.symtab)
    scorer = _make_scorer(args, symbols)
    rescore = rescore_nbest_dfs if args.mode == "dfs" else rescore_nbest_naive
    total_calls = 0
    lines = []  # one per list, written once every list has passed
    with _output(args.out) as out:
        for nbest in _read_nbest_file(args.nbest_file, symbols):
            result = rescore(nbest, scorer, lambda_lat=args.lambda_lat,
                             lambda_scorer=args.lambda_scorer)
            best = result.ranked[0]
            score = _finite(best.joint_score,
                            f"{args.nbest_file}: list {nbest.source_id}: ")
            total_calls += result.predict_calls
            tokens = symbols.spell(best.tokens)
            if args.json:
                lines.append(json.dumps(
                    {"id": nbest.source_id, "tokens": tokens, "score": score,
                     "predict_calls": result.predict_calls},
                    sort_keys=True) + "\n")
            else:
                lines.append(" ".join(tokens) + "\n")
        out.writelines(lines)
    if lines:
        print(f"rescored {len(lines)} lists ({args.mode}), "
              f"mean predict calls {total_calls / len(lines):.1f}", file=sys.stderr)
    return 0


def _read_sentences(path) -> list[list[str]]:
    """Each line's words, with one str object for each distinct word."""
    words: dict[str, str] = {}
    return [[words.setdefault(w, w) for w in line.split()]
            for line in _read_text(path).splitlines()]


def _tune_file(path: Path, symbols: SymbolTable, scorer, configs, references: dict):
    """The BLEU statistics of one pushed lattice's best hypothesis at each
    grid point, against the reference matched to its file name."""
    return _lattice_stats(_read_posterior(path, symbols), references[path.name],
                          scorer, configs)


def cmd_tune(args) -> int:
    grid = _parse_grid(args.grid)
    symbols = _load_symbols(args.symtab)
    scorer = _make_scorer(args, symbols)
    files = _lattice_files(args.latdir)
    # a reference word no lattice holds gets an id of its own, which no
    # hypothesis can match
    vocab = _open_copy(symbols)
    references = [[vocab.add(t) for t in sent] for sent in _read_sentences(args.refs)]
    if len(references) != len(files):
        batch = _Batch(_read_posterior, files, symbols=symbols)
        for _ in batch:     # every failed file still gets its line
            pass
        if batch.status:
            return batch.status
        raise LatbeamError(f"{args.refs}: {len(references)} references "
                           f"for {len(files)} lattices")
    configs = _tune_configs(grid, args.beam, args.local_softmax)
    batch = _Batch(_tune_file, files, symbols=symbols, scorer=scorer, configs=configs,
                   references={f.name: ref for f, ref in zip(files, references)})
    # every file is decoded, so each that fails gets its line
    result = _tune_result(configs, (stats for _, stats in batch))
    if batch.status:
        return batch.status
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


GRID_CAP = 10_000   # the most points one --grid may hold


def _parse_grid(spec: str) -> list[float]:
    """One number, or start:stop:step: start + i * step rounded to 10
    decimals, for every i that stays within a billionth of a step above
    stop. The points are counted before any is built; an empty grid, one
    of more than GRID_CAP points and one whose rounded values repeat are
    errors."""
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
    # capped first: the quotient of finite numbers may still be inf
    count = math.floor(min((stop - start) / step, GRID_CAP) + 1e-9) + 1
    if count < 1:
        raise LatbeamError(f"bad grid {spec!r}, stop is below start")
    if count > GRID_CAP:
        raise LatbeamError(f"bad grid {spec!r}, more than {GRID_CAP} points")
    values = [round(start + i * step, 10) for i in range(count)]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise LatbeamError(f"bad grid {spec!r}, step too small for "
                           "values rounded to 10 decimals")
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
    batch = _Batch(_stats_file, _lattice_files(args.latdir), symbols=symbols)
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
    demo = build_demo(seed=args.seed, n_sentences=args.sentences)
    with _file_errors(args.outdir):
        write_demo(demo, args.outdir)
    print(f"wrote demo set ({args.sentences} sentences, seed {args.seed}) "
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
    p.add_argument("--nbest", type=positive_int, default=100, metavar="N")
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
    p.add_argument("--order", type=int, default=2,
                   help=f"n-gram order, 1 to {MAX_ORDER} (default 2)")
    p.add_argument("--smoothing", choices=["add-k", "stupid-backoff"],
                   default="add-k")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("demo", help="write the bundled synthetic demo set")
    p.add_argument("outdir")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--sentences", type=positive_int, default=50)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    # Arcs, lattices, hypotheses and n-best lists hold no reference
    # cycles, so reference counting frees them; the cyclic collector
    # would only rescan them. It is off for the command and restored to
    # its previous state on the way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except LatbeamError as exc:
        print(f"latbeam: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
