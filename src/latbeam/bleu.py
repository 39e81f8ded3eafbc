"""Corpus BLEU and weight tuning.

BLEU follows the classic single-reference script behavior: clipped
n-gram precisions up to order 4 pooled over the corpus, brevity penalty
min(1, exp(1 - r/c)), case-sensitive on whatever tokens it is given, and
no smoothing whatsoever: if any precision is zero (or has an empty
denominator) the score is zero. Scores live in [0, 1].
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence, Sized
from functools import partial
from typing import NamedTuple

from .decoder import DecoderConfig, decode
from .errors import BleuError, ConfigError, TuneError

MAX_ORDER = 4
ORDERS = range(1, MAX_ORDER + 1)


def _ngrams(tokens, order: int) -> Counter:
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


class BleuReport(NamedTuple):
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
    corpus raise BleuError, which is also a ValueError. The score comes
    from the sum of each sentence pair's statistics, in which a
    reference's n-grams are counted one order at a time, next to the
    hypothesis's n-grams of that order, and let go before the next order
    is counted.
    """
    hyps, refs = list(hypotheses), list(references)
    if len(hyps) != len(refs):
        raise BleuError(f"{len(hyps)} hypotheses against {len(refs)} references")
    if not hyps:
        raise BleuError("empty corpus")
    total = NO_STATS
    for hyp, ref in zip(hyps, refs):
        ref = tuple(ref)
        total = _add(total, _sentence_stats(hyp, len(ref), partial(_ngrams, ref)))
    return _report(total)


# BLEU's sufficient statistics of a sentence or a corpus, all ints:
# matched n-grams of orders 1 to MAX_ORDER, their totals, the hypothesis
# length and the reference length. A corpus's are the sum of its
# sentences', and a BleuReport is computed from them alone.
NO_STATS = (0,) * (2 * MAX_ORDER + 2)


def _sentence_stats(hypothesis, ref_length: int, ref_ngrams) -> tuple[int, ...]:
    """The statistics of one hypothesis against a reference of ref_length
    tokens, whose n-gram counts of order n are ref_ngrams(n); one
    order's Counters are let go before the next is counted."""
    hyp = tuple(hypothesis)
    matched = [_clipped(_ngrams(hyp, n), ref_ngrams(n)) for n in ORDERS]
    totals = [max(len(hyp) - n + 1, 0) for n in ORDERS]
    return (*matched, *totals, len(hyp), ref_length)


def _clipped(hyp_counts: Counter, ref_counts: Counter) -> int:
    """Matches of one order, each n-gram's clipped to the reference's
    count of it; both Counters are let go when it returns."""
    return sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def _report(stats: tuple[int, ...]) -> BleuReport:
    """The BleuReport of summed statistics; floats appear only here."""
    matched, totals = stats[:MAX_ORDER], stats[MAX_ORDER:2 * MAX_ORDER]
    hyp_length, ref_length = stats[2 * MAX_ORDER:]
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
                      matched, totals)


_DIFFER = "development lattices and references differ in length"


class TuneResult(NamedTuple):
    lambda_lat: float
    lambda_scorer: float
    bleu: BleuReport
    history: Sequence[tuple[float, float]] = ()


def tune_grid(lattices, references, scorer, grid, beam: int = 12,
              local_softmax: bool = False) -> TuneResult:
    """Pick lambda_lat by BLEU over a development set.

    Only the ratio of the two weights matters to the decoder's argmax, so
    lambda_scorer stays fixed at 1 and the grid sweeps lambda_lat. Ties
    go to the smaller lambda_lat. Lattices may come from any iterable:
    each is decoded at every grid point as it arrives, scored against
    its reference and let go, so one lattice and one reference's n-gram
    counts are held at a time, and the sweep keeps only each grid
    point's summed BLEU statistics. A count that differs from the
    references' is a ConfigError: when lattices has a length it is found
    before any decode, otherwise when a lattice arrives with no
    reference left or after the last decode. Decoding failures are
    re-raised as TuneError naming the offending sentence; an empty grid
    is a TuneError too, and an empty corpus a BleuError, as in
    corpus_bleu.
    """
    references = list(references)
    if isinstance(lattices, Sized) and len(lattices) != len(references):
        raise ConfigError(_DIFFER)
    configs = _tune_configs(grid, beam, local_softmax)

    def per_lattice():
        # a plain loop: zip and enumerate may keep an earlier lattice in
        # the result tuple they reuse
        done = 0
        for lattice in lattices:
            if done == len(references):
                raise ConfigError(_DIFFER)
            yield _lattice_stats(lattice, references[done], scorer, configs,
                                 f"on sentence {done} ")
            done += 1
        if done != len(references):
            raise ConfigError(_DIFFER)
        if not done:
            raise BleuError("empty corpus")

    return _tune_result(configs, per_lattice())


def _tune_configs(grid, beam: int, local_softmax: bool) -> list[DecoderConfig]:
    """The decoder settings of each grid value of lambda_lat, ascending,
    with lambda_scorer 1; an empty grid is a TuneError."""
    grid = sorted(grid)
    if not grid:
        raise TuneError("empty lambda_lat grid")
    return [DecoderConfig(beam=beam, lambda_lat=lam, lambda_scorer=1.0,
                          local_softmax=local_softmax) for lam in grid]


def _lattice_stats(lattice, reference, scorer, configs,
                   where: str = "") -> list[tuple[int, ...]]:
    """The BLEU statistics of the lattice's best hypothesis under each of
    configs, against reference, whose n-grams are counted once for all
    of them: O(len(configs)) ints. A failed decode is a TuneError naming
    where and the lambda_lat."""
    ref = tuple(reference)
    counts = [_ngrams(ref, n) for n in ORDERS]
    stats = []
    for cfg in configs:
        try:
            prefix = decode(lattice, scorer, cfg).best.prefix
        except Exception as exc:
            raise TuneError(f"decode failed {where}at "
                            f"lambda_lat={cfg.lambda_lat}: {exc}") from exc
        stats.append(_sentence_stats(prefix, len(ref), lambda n: counts[n - 1]))
    return stats


def _tune_result(configs, per_lattice) -> TuneResult:
    """The config whose statistics, summed over the lists in per_lattice
    (one tuple per config each), score the highest BLEU, the first of
    equal ones, with every config's score as the history."""
    totals = [NO_STATS] * len(configs)
    for stats in per_lattice:
        totals = list(map(_add, totals, stats))
    best = None  # (lambda_lat, report)
    history: list[tuple[float, float]] = []
    for cfg, stats in zip(configs, totals):
        report = _report(stats)
        history.append((cfg.lambda_lat, report.score))
        if best is None or report.score > best[1].score:
            best = (cfg.lambda_lat, report)
    return TuneResult(best[0], 1.0, best[1], history)
