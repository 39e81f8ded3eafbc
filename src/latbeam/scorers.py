"""External left-to-right scorers fused with the lattice at decode time.

A scorer is any object with

    start(source=None) -> state      opaque, value-semantic
    predict(state)     -> Prediction
    consume(state, token) -> state
    vocab              -> set of token ids it models

States must behave like values: consuming from one state never disturbs
another hypothesis holding the same state, so beam branching is safe.
Tokens outside the scorer's vocabulary advance the state as the reserved
unknown-word placeholder; the caller keeps the real token. The optional
source argument to start() is accepted for scorers conditioned on an
input sentence and ignored by everything implemented here.

Internal event ids (never valid lattice tokens, which are positive):
UNK_ID for unknown words, BOS_ID for padding contexts, EOS_ID for the
end of a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigError, ScorerFormatError
from .semiring import STOCHASTIC_TOL

UNK_ID = -1
BOS_ID = -2
EOS_ID = -3

UNK_SYM = "<unk>"
BOS_SYM = "<s>"
EOS_SYM = "</s>"

_SPECIAL_IDS = {UNK_SYM: UNK_ID, BOS_SYM: BOS_ID, EOS_SYM: EOS_ID}
_SPECIAL_SYMS = {v: k for k, v in _SPECIAL_IDS.items()}


def logsumexp(values) -> float:
    """Stable ln(sum(exp(v))) over an iterable of log values."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log(sum(math.exp(v - top) for v in vals))


@dataclass(frozen=True, slots=True)
class Prediction:
    """One predictive distribution: vocabulary tokens plus unk and eos.

    All values are natural log-probabilities; the three parts together
    must form a proper distribution.
    """

    in_vocab: Mapping[int, float]
    unk_logprob: float
    eos_logprob: float

    def logprob(self, token: int) -> float:
        """Mass for a concrete token: its own if known, unk otherwise."""
        return self.in_vocab.get(token, self.unk_logprob)

    def event_logprob(self, event: int) -> float:
        if event == UNK_ID:
            return self.unk_logprob
        if event == EOS_ID:
            return self.eos_logprob
        return self.in_vocab.get(event, self.unk_logprob)

    def log_norm(self) -> float:
        """log of the total mass; 0.0 when properly normalized."""
        return logsumexp(
            list(self.in_vocab.values()) + [self.unk_logprob, self.eos_logprob])


def _uniform_prediction(vocab) -> Prediction:
    lp = -math.log(len(vocab) + 2)
    return Prediction({t: lp for t in sorted(vocab)}, lp, lp)


class UniformScorer:
    """Flat distribution over a fixed vocabulary plus unk and eos."""

    def __init__(self, vocab):
        self.vocab = frozenset(vocab)
        self._prediction = _uniform_prediction(self.vocab)

    def start(self, source=None):
        return ()

    def predict(self, state) -> Prediction:
        return self._prediction

    def consume(self, state, token):
        return ()


class NgramScorer:
    """Backoff n-gram model over token ids.

    Holds one smoothed distribution per observed context (all orders down
    to the empty context); predict() looks up the longest stored suffix of
    the current state, so unseen contexts back off naturally. The state is
    the last order-1 events, BOS-padded at the start.
    """

    def __init__(self, order: int, vocab, table: dict[tuple[int, ...], Prediction]):
        if order < 1:
            raise ValueError("order must be at least 1")
        if () not in table:
            raise ValueError("table must contain the empty context")
        self.order = order
        self.vocab = frozenset(vocab)
        self.table = table

    def start(self, source=None):
        return (BOS_ID,) * (self.order - 1)

    def predict(self, state) -> Prediction:
        ctx = tuple(state)
        while ctx not in self.table:
            ctx = ctx[1:]
        return self.table[ctx]

    def consume(self, state, token):
        if self.order == 1:
            return ()
        event = token if token in self.vocab else UNK_ID
        return (tuple(state) + (event,))[-(self.order - 1):]

    def save(self, path, symbols) -> None:
        write_ngram_model(self, path, symbols)


def _event_order(vocab) -> list[int]:
    return sorted(vocab) + [UNK_ID, EOS_ID]


def train_ngram(corpus, order: int, smoothing: str = "add-k",
                k: float = 1.0, alpha: float = 0.4,
                min_count: int = 1) -> NgramScorer:
    """Estimate an n-gram scorer from a corpus of token-id sequences.

    Tokens seen fewer than min_count times train as the unknown word, so
    unk is a regular event with its own mass. Every sentence implicitly
    ends in eos. add-k smooths counts within the longest observed context;
    stupid-backoff discounts down the context ladder by alpha and is then
    renormalized per context so predictions stay proper distributions
    (its unigram base is add-k smoothed, keeping every event off zero).
    """
    if order < 1:
        raise ConfigError("order must be at least 1")
    if smoothing not in ("add-k", "stupid-backoff"):
        raise ConfigError(f"unknown smoothing {smoothing!r}")
    if not 0 < k < math.inf:
        raise ConfigError("k must be positive and finite")
    if not 0 < alpha < math.inf:
        raise ConfigError("alpha must be positive and finite")
    sentences = [list(s) for s in corpus]
    if not sentences or all(not s for s in sentences):
        raise ConfigError("empty training corpus")

    raw_counts: dict[int, int] = {}
    for sent in sentences:
        for tok in sent:
            raw_counts[tok] = raw_counts.get(tok, 0) + 1
    vocab = frozenset(t for t, c in raw_counts.items() if c >= min_count)

    counts: dict[tuple[int, ...], dict[int, int]] = {}
    totals: dict[tuple[int, ...], int] = {}
    for sent in sentences:
        history = (BOS_ID,) * (order - 1)
        events = [t if t in vocab else UNK_ID for t in sent] + [EOS_ID]
        for event in events:
            for m in range(order):
                ctx = history[len(history) - m:]
                row = counts.setdefault(ctx, {})
                row[event] = row.get(event, 0) + 1
                totals[ctx] = totals.get(ctx, 0) + 1
            if order > 1:
                history = (history + (event,))[1:]

    events = _event_order(vocab)
    n_events = len(events)
    table: dict[tuple[int, ...], Prediction] = {}

    if smoothing == "add-k":
        for ctx, row in counts.items():
            denom = totals[ctx] + k * n_events
            logprobs = {e: math.log((row.get(e, 0) + k) / denom) for e in events}
            table[ctx] = _to_prediction(logprobs)
    else:
        def raw_score(event: int, ctx: tuple[int, ...]) -> float:
            if not ctx:
                return (counts[()].get(event, 0) + k) / (totals[()] + k * n_events)
            c = counts.get(ctx, {}).get(event, 0)
            if c:
                return c / totals[ctx]
            return alpha * raw_score(event, ctx[1:])

        for ctx in counts:
            scores = [raw_score(e, ctx) for e in events]
            norm = sum(scores)
            logprobs = {e: math.log(s / norm) for e, s in zip(events, scores)}
            table[ctx] = _to_prediction(logprobs)

    return NgramScorer(order, vocab, table)


def _to_prediction(logprobs: dict[int, float]) -> Prediction:
    in_vocab = {e: lp for e, lp in logprobs.items() if e >= 0}
    return Prediction(in_vocab, logprobs[UNK_ID], logprobs[EOS_ID])


def _id_to_sym(ident: int, symbols) -> str:
    if ident in _SPECIAL_SYMS:
        return _SPECIAL_SYMS[ident]
    return symbols.sym_of(ident)


def _sym_to_id(sym: str, symbols) -> int:
    if sym in _SPECIAL_IDS:
        return _SPECIAL_IDS[sym]
    return symbols.id_of(sym) if symbols.closed else symbols.add(sym)


def write_ngram_model(model: NgramScorer, path, symbols) -> None:
    """Write a model as sorted text lines: context tokens, event, logprob,
    backoff. The full per-context distributions are stored, so the backoff
    column is informational and written as 0."""
    lines = []
    for ctx, pred in model.table.items():
        ctx_syms = tuple(_id_to_sym(t, symbols) for t in ctx)
        for event in _event_order(model.vocab):
            lp = pred.event_logprob(event)
            head = " ".join(ctx_syms + (_id_to_sym(event, symbols),))
            lines.append(f"{head} {lp!r} 0\n")
    lines.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_ngram_model(path, symbols) -> NgramScorer:
    """Read a model written by write_ngram_model.

    Each stored context row must still be a proper distribution within
    STOCHASTIC_TOL, otherwise the file is rejected naming the context.
    """
    rows: dict[tuple[int, ...], dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) < 3:
                raise ScorerFormatError(
                    f"{path}: line {lineno}: expected tokens, logprob, backoff")
            try:
                lp = float(fields[-2])
                float(fields[-1])
            except ValueError:
                raise ScorerFormatError(
                    f"{path}: line {lineno}: bad number") from None
            *ctx_syms, event_sym = fields[:-2]
            ctx = tuple(_sym_to_id(s, symbols) for s in ctx_syms)
            rows.setdefault(ctx, {})[_sym_to_id(event_sym, symbols)] = lp
    if () not in rows:
        raise ScorerFormatError(f"{path}: missing empty-context rows")
    table = {}
    vocab = frozenset(e for e in rows[()] if e >= 0)
    for ctx, row in rows.items():
        if UNK_ID not in row or EOS_ID not in row:
            raise ScorerFormatError(
                f"{path}: context {ctx!r} lacks {UNK_SYM} or {EOS_SYM}")
        total = logsumexp(row.values())
        if not abs(total) <= STOCHASTIC_TOL:
            raise ScorerFormatError(
                f"{path}: context {ctx!r} sums to exp({total:.3e}), not 1")
        table[ctx] = _to_prediction(row)
    order = max(len(ctx) for ctx in rows) + 1
    return NgramScorer(order, vocab, table)


class TableScorer:
    """Scorer backed by an explicit prefix-to-distribution table.

    The state is the full consumed prefix (out-of-vocabulary tokens
    recorded as the unk placeholder). Prefixes missing from the table fall
    back to a uniform distribution over the declared vocabulary plus unk
    and eos.
    """

    def __init__(self, rows: dict[tuple[int, ...], Prediction],
                 vocab=None):
        if vocab is None:
            vocab = set()
            for pred in rows.values():
                vocab.update(pred.in_vocab)
        self.vocab = frozenset(vocab)
        for prefix, pred in rows.items():
            total = pred.log_norm()
            if not abs(total) <= STOCHASTIC_TOL:
                raise ScorerFormatError(
                    f"prefix {prefix!r} sums to exp({total:.3e}), not 1")
        self.rows = dict(rows)
        self._fallback = _uniform_prediction(self.vocab)

    def start(self, source=None):
        return ()

    def predict(self, state) -> Prediction:
        return self.rows.get(tuple(state), self._fallback)

    def consume(self, state, token):
        event = token if token in self.vocab else UNK_ID
        return tuple(state) + (event,)


def load_table_scorer(path, symbols) -> TableScorer:
    """Parse a table scorer file.

    Row format, one prefix per line:

        tok tok ... | event:logprob event:logprob ...

    The prefix may be empty (line starts with '|'). Events must include
    <unk> and </s>; each row must be a proper distribution within
    STOCHASTIC_TOL, otherwise the offending prefix is named. Event names
    are split on the last colon, so tokens may themselves contain colons.
    """
    rows: dict[tuple[int, ...], Prediction] = {}
    vocab: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "|" not in line:
                raise ScorerFormatError(f"{path}: line {lineno}: missing '|'")
            head, _, tail = line.partition("|")
            prefix = tuple(_sym_to_id(s, symbols) for s in head.split())
            if prefix in rows:
                raise ScorerFormatError(
                    f"{path}: line {lineno}: duplicate prefix {head.strip()!r}")
            entries: dict[int, float] = {}
            for pair in tail.split():
                sym, sep, lp_text = pair.rpartition(":")
                if not sep:
                    raise ScorerFormatError(
                        f"{path}: line {lineno}: expected event:logprob, got {pair!r}")
                try:
                    lp = float(lp_text)
                except ValueError:
                    raise ScorerFormatError(
                        f"{path}: line {lineno}: bad logprob {lp_text!r}") from None
                entries[_sym_to_id(sym, symbols)] = lp
            if UNK_ID not in entries or EOS_ID not in entries:
                raise ScorerFormatError(
                    f"{path}: line {lineno}: row must include {UNK_SYM} and {EOS_SYM}")
            pred = _to_prediction(entries)
            total = pred.log_norm()
            if not abs(total) <= STOCHASTIC_TOL:
                raise ScorerFormatError(
                    f"{path}: prefix {head.strip() or '(empty)'!r} sums to "
                    f"exp({total:.3e}), not 1")
            rows[prefix] = pred
            vocab.update(pred.in_vocab)
    return TableScorer(rows, vocab)


def perplexity(scorer, corpus) -> float:
    """exp of the average per-event negative log-probability, eos included."""
    total = 0.0
    events = 0
    for sent in corpus:
        state = scorer.start()
        for token in sent:
            pred = scorer.predict(state)
            if token in scorer.vocab:
                total += pred.in_vocab[token]
            else:
                total += pred.unk_logprob
            state = scorer.consume(state, token)
            events += 1
        total += scorer.predict(state).eos_logprob
        events += 1
    if not events:
        raise ValueError("empty corpus")
    return math.exp(-total / events)
