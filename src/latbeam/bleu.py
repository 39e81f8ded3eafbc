"""Corpus BLEU and weight tuning.

BLEU follows the classic single-reference script behavior: clipped
n-gram precisions up to order 4 pooled over the corpus, brevity penalty
min(1, exp(1 - r/c)), case-sensitive on whatever tokens it is given, and
no smoothing whatsoever: if any precision is zero (or has an empty
denominator) the score is zero. Scores live in [0, 1].
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sized
from dataclasses import dataclass, field

from .errors import BleuError, ConfigError, TuneError

MAX_ORDER = 4
ORDERS = range(1, MAX_ORDER + 1)


def _ngrams(tokens, order: int) -> Counter:
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


@dataclass(slots=True)
class BleuReport:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    matched: tuple[int, int, int, int]
    totals: tuple[int, int, int, int]


def corpus_bleu(hypotheses, references) -> BleuReport:
    """Corpus-level BLEU of token sequences against single references.

    Sequences may hold any hashable tokens (strings, ids). An order whose
    denominator is zero counts as zero precision, which zeroes the score;
    identical corpora score exactly 1.0. Unequal counts and an empty
    corpus raise BleuError, which is also a ValueError. A reference's
    n-grams are counted one order at a time, next to the hypothesis's
    n-grams of that order, and let go before the next order is counted.
    """
    refs = [tuple(ref) for ref in references]
    return _corpus_bleu(hypotheses, [len(ref) for ref in refs],
                        lambda i, n: _ngrams(refs[i], n))


def _count_references(references) -> list[tuple[int, list[Counter]]]:
    """The length and the n-gram counts, orders 1 to MAX_ORDER, of each
    reference: what BLEU reads of them, counted once for any number of
    hypothesis sets."""
    return [(len(ref), [_ngrams(ref, n) for n in ORDERS])
            for ref in map(tuple, references)]


def _clipped(hyp_counts: Counter, ref_counts: Counter) -> int:
    """Matches of one order, each n-gram's clipped to the reference's
    count of it; both Counters are let go when it returns."""
    return sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())


def _corpus_bleu(hypotheses, ref_lengths: list[int], ref_ngrams) -> BleuReport:
    """corpus_bleu against references of ref_lengths, where
    ref_ngrams(i, n) gives the i-th reference's n-gram counts of order
    n. One order of one sentence pair is counted at a time."""
    hyps = [tuple(h) for h in hypotheses]
    if len(hyps) != len(ref_lengths):
        raise BleuError(f"{len(hyps)} hypotheses against {len(ref_lengths)} references")
    if not hyps:
        raise BleuError("empty corpus")

    matched = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    for i, hyp in enumerate(hyps):
        for n in ORDERS:
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += _clipped(_ngrams(hyp, n), ref_ngrams(i, n))
    hyp_length = sum(map(len, hyps))
    ref_length = sum(ref_lengths)

    precisions = tuple(m / t if t else 0.0 for m, t in zip(matched, totals))
    if hyp_length == 0:
        bp = 0.0
    elif hyp_length > ref_length:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_length / hyp_length)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_total = 0.0  # not sum(): see scorers.logsumexp
        for p in precisions:
            log_total += math.log(p)
        score = bp * math.exp(log_total / MAX_ORDER)
    return BleuReport(score, precisions, bp, hyp_length, ref_length,
                      tuple(matched), tuple(totals))


@dataclass(slots=True)
class TuneResult:
    lambda_lat: float
    lambda_scorer: float
    bleu: BleuReport
    history: list[tuple[float, float]] = field(default_factory=list)


def tune_grid(lattices, references, scorer, grid, beam: int = 12,
              local_softmax: bool = False) -> TuneResult:
    """Pick lambda_lat by BLEU over a development set.

    Only the ratio of the two weights matters to the decoder's argmax, so
    lambda_scorer stays fixed at 1 and the grid sweeps lambda_lat. Ties
    go to the smaller lambda_lat. The references' n-grams are counted
    once, for every grid point. Lattices may come from any iterable:
    each is decoded at every grid point as it arrives and then let go,
    so one lattice is held at a time, and BLEU is computed per grid
    point after the last. A count that differs from the references' is
    a ConfigError, found before any decode when lattices has a length
    and after the last decode otherwise. Decoding failures are re-raised
    as TuneError naming the offending sentence; an empty grid is a
    TuneError too.
    """
    from .decoder import DecoderConfig, decode

    counted = _count_references(references)
    lengths = [length for length, _ in counted]
    if isinstance(lattices, Sized) and len(lattices) != len(counted):
        raise ConfigError("development lattices and references differ in length")
    grid = sorted(grid)
    if not grid:
        raise TuneError("empty lambda_lat grid")
    configs = [DecoderConfig(beam=beam, lambda_lat=lam, lambda_scorer=1.0,
                             local_softmax=local_softmax) for lam in grid]
    hyps = [[] for _ in grid]   # hyps[g]: each lattice's best prefix at grid[g]
    for i, lattice in enumerate(lattices):
        for cfg, found in zip(configs, hyps):
            try:
                found.append(decode(lattice, scorer, cfg).best.prefix)
            except Exception as exc:
                raise TuneError(f"decode failed on sentence {i} at "
                                f"lambda_lat={cfg.lambda_lat}: {exc}") from exc
    if len(hyps[0]) != len(counted):
        raise ConfigError("development lattices and references differ in length")
    best: TuneResult | None = None
    history: list[tuple[float, float]] = []
    for lam, found in zip(grid, hyps):
        report = _corpus_bleu(found, lengths, lambda i, n: counted[i][1][n - 1])
        history.append((lam, report.score))
        if best is None or report.score > best.bleu.score:
            best = TuneResult(lam, 1.0, report)
    best.history = history
    return best
