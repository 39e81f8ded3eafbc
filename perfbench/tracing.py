"""In-process traced pass: the work of each command, called through
latbeam's public functions, with a span around every call.

The pass mirrors what the command line does per sentence, so its
payloads must equal the command line's byte for byte; harness.py checks
that. Spans stay in memory and are written out when the run ends.
Scorer predict/consume calls are far too many and too short for one
span each: a counting wrapper accumulates their time and number, and
each traced call that used the scorer gets one aggregate child span
per kind.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from latbeam import semiring
from latbeam.baselines import NBestList, nbest_from_posterior, rescore_nbest_dfs
from latbeam.bleu import corpus_bleu, tune_grid
from latbeam.decoder import DecoderConfig, decode
from latbeam.ops import determinize, minimize, push_log, rm_epsilon
from latbeam.posterior import PosteriorLattice
from latbeam.scorers import UniformScorer, load_ngram_model
from latbeam.wfsa import parse_symbols, parse_wfsa, serialize_wfsa

from workloads import GRID_POINTS, NBEST, TUNE_BEAM


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    sentence: str | None
    start: float
    end: float
    calls: int | None = None   # set on aggregate scorer spans


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, sentence, fn, *args, scorer=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, parent, name, sentence, 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(sid)
        before = scorer.totals() if scorer is not None else None
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if scorer is not None:
                self._aggregate(span, before, scorer.totals())

    def _aggregate(self, parent: Span, before, after) -> None:
        for kind, (n0, s0), (n1, s1) in zip(("predict", "consume"), before, after):
            if n1 > n0:
                self.spans.append(Span(len(self.spans), parent.id,
                                       f"scorers.{kind}", parent.sentence,
                                       parent.start, parent.start + (s1 - s0),
                                       n1 - n0))


class CountingScorer:
    """Scorer wrapper that counts and times predict and consume."""

    def __init__(self, inner):
        self.inner = inner
        self.predict_calls = self.consume_calls = 0
        self.predict_s = self.consume_s = 0.0

    def totals(self):
        return ((self.predict_calls, self.predict_s),
                (self.consume_calls, self.consume_s))

    def start(self, source=None):
        return self.inner.start(source)

    def predict(self, state):
        t = perf_counter()
        pred = self.inner.predict(state)
        self.predict_s += perf_counter() - t
        self.predict_calls += 1
        return pred

    def consume(self, state, token):
        t = perf_counter()
        nxt = self.inner.consume(state, token)
        self.consume_s += perf_counter() - t
        self.consume_calls += 1
        return nxt


def _symbols(corpus):
    return parse_symbols(corpus.symtab.read_text(encoding="utf-8"))


def _load_scorer(flags, symbols):
    # as the command line's --scorer handling: n-gram files may extend
    # the table, which is closed again afterwards
    if flags[1] == "uniform":
        return UniformScorer(symbols.ids())
    symbols.closed = False
    try:
        return load_ngram_model(flags[3], symbols)
    finally:
        symbols.closed = True


def sha256(chunks) -> str:
    """Hex digest of a sequence of str or bytes chunks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode("utf-8"))
    return h.hexdigest()


class Pass:
    """One in-process pass over a workload's commands."""

    def __init__(self, plan, files: dict, traced: bool):
        self.plan = plan
        self.files = files          # command-line outputs of this run
        self.tracer = Tracer(traced)
        self.walls: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.scorers: list[tuple[str, CountingScorer]] = []

    def _scorer(self, flags, symbols, command):
        scorer = self.tracer.call("scorers.load", None, _load_scorer, flags, symbols)
        if self.tracer.enabled:
            scorer = CountingScorer(scorer)
            self.scorers.append((command, scorer))
        return scorer

    def _read_posterior(self, path, symbols):
        t = self.tracer
        inner = t.call("wfsa.parse_wfsa", path.stem, parse_wfsa,
                       path.read_text(encoding="utf-8"), symbols,
                       semiring_tag=semiring.LOG)
        return t.call("posterior.verify_disk", path.stem, PosteriorLattice, inner)

    def push(self):
        corpus, t, c = self.plan.main, self.tracer, self.counters
        symbols = _symbols(corpus)
        chunks = []
        for path in sorted(corpus.raw.glob("*.lat")):
            sid = path.stem
            raw = t.call("wfsa.parse_wfsa", sid, parse_wfsa,
                         path.read_text(encoding="utf-8"), symbols)
            c["wfsa.raw.states"] += raw.num_states
            c["wfsa.raw.arcs"] += raw.num_arcs
            work = raw.retagged(semiring.LOG)
            for stage, fn in (("rm_epsilon", rm_epsilon), ("determinize", determinize),
                              ("minimize", minimize)):
                work = t.call(f"ops.{stage}", sid, fn, work)
                c[f"ops.{stage}.states"] += work.num_states
                c[f"ops.{stage}.arcs"] += work.num_arcs
            pushed, total = t.call("ops.push_log", sid, push_log, work)
            c["ops.push_log.states"] += pushed.num_states
            c["ops.push_log.arcs"] += pushed.num_arcs
            lattice = t.call("posterior.verify_pipeline", sid, PosteriorLattice,
                             pushed, raw_total=total)
            text = t.call("wfsa.serialize_wfsa", sid, serialize_wfsa,
                          lattice.inner, symbols)
            chunks += [path.name, "\0", text, "\0"]
        return sha256(chunks)

    def decode(self):
        corpus, t = self.plan.main, self.tracer
        symbols = _symbols(corpus)
        scorer = self._scorer(corpus.scorer, symbols, "decode")
        cfg = DecoderConfig(beam=self.plan.beam)
        lines = []
        for path in sorted(corpus.pushed.glob("*.lat")):
            lattice = self._read_posterior(path, symbols)
            result = t.call("decoder.decode", path.stem, decode, lattice, scorer,
                            cfg, scorer=scorer if t.enabled else None)
            self.counters["decoder.node_expansions"] += result.node_expansions
            lines.append(" ".join(symbols.sym_of(x) for x in result.best.prefix) + "\n")
        return sha256(lines)

    def nbest(self):
        corpus, t = self.plan.tail, self.tracer
        symbols = _symbols(corpus)
        lines = []
        for path in sorted(corpus.pushed.glob("*.lat")):
            lattice = self._read_posterior(path, symbols)
            nbest = t.call("baselines.nbest_from_posterior", path.stem,
                           nbest_from_posterior, lattice, NBEST, source_id=path.stem)
            self.counters["baselines.nbest.entries"] += len(nbest)
            for tokens, logprob in nbest.entries:
                text = " ".join(symbols.sym_of(x) for x in tokens)
                lines.append(f"{nbest.source_id} ||| {text} ||| {logprob!r}\n")
        return sha256(lines)

    def rescore(self):
        corpus, t = self.plan.tail, self.tracer
        symbols = _symbols(corpus)
        scorer = self._scorer(corpus.scorer, symbols, "rescore")
        lines = []
        for nbest in read_nbest(self.files["nbest"], symbols):
            result = t.call("baselines.rescore_nbest_dfs", nbest.source_id,
                            rescore_nbest_dfs, nbest, scorer,
                            scorer=scorer if t.enabled else None)
            self.counters["baselines.rescore.predict_calls"] += result.predict_calls
            lines.append(" ".join(symbols.sym_of(x)
                                  for x in result.ranked[0].tokens) + "\n")
        return sha256(lines)

    def tune(self):
        corpus, t = self.plan.tail, self.tracer
        symbols = _symbols(corpus)
        scorer = self._scorer(corpus.scorer, symbols, "tune")
        lattices = [self._read_posterior(p, symbols)
                    for p in sorted(corpus.pushed.glob("*.lat"))]
        refs = [[symbols.id_of(x) for x in line.split()]
                for line in corpus.refs.read_text(encoding="utf-8").splitlines()]
        result = t.call("bleu.tune_grid", None, tune_grid, lattices, refs, scorer,
                        GRID_POINTS, beam=TUNE_BEAM, scorer=scorer if t.enabled else None)
        return sha256([json.dumps([result.lambda_lat, result.bleu.score])])

    def bleu(self):
        hyps = [line.split() for line in
                self.files["decode"].read_text(encoding="utf-8").splitlines()]
        refs = [line.split() for line in
                self.plan.main.refs.read_text(encoding="utf-8").splitlines()]
        report = self.tracer.call("bleu.corpus_bleu", None, corpus_bleu, hyps, refs)
        return sha256([repr(report.score)])

    def run(self) -> None:
        for command in ("push", "decode", "nbest", "rescore", "tune", "bleu"):
            start = perf_counter()
            self.digests[command] = self.tracer.call(f"cmd.{command}", None,
                                                     getattr(self, command))
            self.walls[command] = perf_counter() - start
        for command, scorer in self.scorers:
            self.counters["scorers.predict.calls"] += scorer.predict_calls
            self.counters["scorers.consume.calls"] += scorer.consume_calls
            if command == "decode":
                self.counters["decoder.predict_calls"] += scorer.predict_calls
                self.counters["decoder.consume_calls"] += scorer.consume_calls
        self.counters = dict(sorted(self.counters.items()))

    def layer_times(self) -> dict[str, float]:
        """Seconds per span name, plus decode self time (decode spans
        minus their scorer spans), rolled up from this pass's spans."""
        spans = self.tracer.spans
        total: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            total[s.name] += s.end - s.start
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        total["decoder.decode.self"] = sum(s.end - s.start - covered[s.id]
                                           for s in spans if s.name == "decoder.decode")
        return dict(total)

    def decode_ms(self) -> list[float]:
        """Per-sentence decode latencies of the decode command."""
        return [(s.end - s.start) * 1e3 for s in self.tracer.spans
                if s.name == "decoder.decode"]


def read_nbest(path: Path, symbols) -> list[NBestList]:
    """The command line's n-best file format: 'id ||| tokens ||| logprob'."""
    groups: dict[str, list] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        ident, text, logprob = (p.strip() for p in line.split("|||"))
        groups.setdefault(ident, []).append(
            (tuple(symbols.id_of(x) for x in text.split()), float(logprob)))
    return [NBestList(entries, source_id=ident)
            for ident, entries in sorted(groups.items())]


def tail_ms(samples: list[float]) -> tuple[float, float]:
    """Median and the highest percentile with at least ten samples
    beyond it; the maximum when fewer than 21 samples would put that
    percentile at or below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = ordered[n - 11] if n >= 21 else ordered[-1]
    return statistics.median(ordered), tail


def write_spans(passes: list[Pass], path: Path) -> int:
    """Write every traced pass's spans as JSON lines; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for index, p in enumerate(passes):
            origin = p.tracer.spans[0].start if p.tracer.spans else 0.0
            for s in p.tracer.spans:
                fh.write(json.dumps({
                    "pass": index, "id": s.id, "parent": s.parent, "name": s.name,
                    "sentence": s.sentence, "start": s.start - origin,
                    "end": s.end - origin, "calls": s.calls}) + "\n")
                n += 1
    return n
