"""Corpus BLEU oracle checks and grid tuning behavior."""

import math
import random
import sys
import tracemalloc
import weakref

import pytest

from latbeam import bleu
from latbeam.bleu import MAX_ORDER, corpus_bleu, tune_grid
from latbeam.decoder import DecoderConfig, decode
from latbeam.errors import BleuError, ConfigError, LatbeamError, TuneError
from latbeam.posterior import prepare
from latbeam.scorers import Prediction, TableScorer, UniformScorer
from latbeam.synth import build_demo
from latbeam.wfsa import Wfsa

A, B, C = 1, 2, 3


class TestCorpusBleu:
    def test_identity_scores_one(self):
        report = corpus_bleu([["a", "b", "c", "d", "e"]],
                             [["a", "b", "c", "d", "e"]])
        assert report.score == 1.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == 1.0

    def test_disjoint_unigrams_score_zero(self):
        report = corpus_bleu([["a", "b", "c", "d"]],
                             [["x", "y", "z", "w"]])
        assert report.score == 0.0
        assert report.precisions[0] == 0.0

    def test_short_hypothesis_hand_values(self):
        # all 1..3-grams match, no 4-gram exists, so the score is zero
        # even though the brevity penalty alone would be exp(1 - 4/3)
        report = corpus_bleu([["the", "cat", "sat"]],
                             [["the", "cat", "sat", "down"]])
        assert report.precisions == (1.0, 1.0, 1.0, 0.0)
        assert report.brevity_penalty == pytest.approx(
            math.exp(1.0 - 4.0 / 3.0), abs=1e-12)
        assert report.score == 0.0

    def test_matched_prefix_hand_value(self):
        # 4 of 5 tokens, 3 of 4 bigrams, 2 of 3 trigrams, 1 of 2 4-grams;
        # hypothesis is longer than the reference so no brevity penalty
        report = corpus_bleu([["a", "b", "c", "d", "x"]],
                             [["a", "b", "c", "d"]])
        assert report.brevity_penalty == 1.0
        assert report.precisions == (4 / 5, 3 / 4, 2 / 3, 1 / 2)
        want = math.exp(sum(math.log(p) for p in
                            (4 / 5, 3 / 4, 2 / 3, 1 / 2)) / 4)
        assert report.score == pytest.approx(want, abs=1e-12)

    def test_counts_are_clipped(self):
        report = corpus_bleu([["the"] * 7],
                             [["the", "cat", "is", "on", "the", "mat"]])
        assert report.precisions[0] == pytest.approx(2 / 7, abs=1e-12)

    def test_corpus_pools_counts(self):
        report = corpus_bleu(
            [["a", "b"], ["c", "d", "e"]],
            [["a", "b"], ["c", "d", "x"]])
        assert report.matched[0] == 2 + 2
        assert report.totals[0] == 2 + 3
        assert report.matched[1] == 1 + 1
        assert report.totals[1] == 1 + 2
        assert report.hyp_length == 5
        assert report.ref_length == 5

    def test_decode_failure_is_a_latbeam_error(self):
        # the command line reports LatbeamError as one line, no traceback
        class Broken(UniformScorer):
            def predict(self, state):
                raise RuntimeError("boom")

        lat = prepare(two_path_lattice())
        with pytest.raises(LatbeamError, match="boom"):
            tune_grid([lat], [(A, B)], Broken({A, B, C}), grid=[0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="against"):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            corpus_bleu([], [])

    @pytest.mark.parametrize("hyps, refs", [([["a"]], [["a"], ["b"]]), ([], [])])
    def test_rejection_is_a_latbeam_error(self, hyps, refs):
        with pytest.raises(BleuError) as exc:
            corpus_bleu(hyps, refs)
        assert isinstance(exc.value, LatbeamError)
        assert isinstance(exc.value, ValueError)

    def test_long_pair_counts_one_order_at_a_time(self):
        # a 20k-token pair over 40 words: its order-4 n-grams are nearly
        # all distinct, so holding every order of the reference while the
        # hypothesis is counted costs one more large Counter than holding
        # one order of each side (CPython 3.11: 7.7 MB then, 4.4 MB now,
        # 4.0 MB for the two order-4 Counters)
        rng = random.Random(13)
        words = ["t%02d" % i for i in range(1, 41)]
        ref = [rng.choice(words) for _ in range(20_000)]
        hyp = [t if rng.random() < 0.7 else rng.choice(words) for t in ref]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fourgrams = (bleu._ngrams(tuple(hyp), 4), bleu._ngrams(tuple(ref), 4))
            both = tracemalloc.get_traced_memory()[0] - start
            del fourgrams
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = corpus_bleu([hyp], [ref])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * both
        assert report.hyp_length == report.ref_length == 20_000
        assert report.totals == (20_000, 19_999, 19_998, 19_997)

    def test_score_range_on_random_corpora(self):
        rng = random.Random(211)
        words = ["w%d" % i for i in range(12)]
        for _ in range(50):
            hyps, refs = [], []
            for _ in range(rng.randint(1, 6)):
                ref = [rng.choice(words)
                       for _ in range(rng.randint(1, 10))]
                hyp = [t if rng.random() < 0.7 else rng.choice(words)
                       for t in ref]
                hyps.append(hyp)
                refs.append(ref)
            report = corpus_bleu(hyps, refs)
            assert 0.0 <= report.score <= 1.0
            assert all(0.0 <= p <= 1.0 for p in report.precisions)
            # the corpus report is the one built from the sum of each
            # sentence's integer statistics, field for field
            summed = bleu.NO_STATS
            for hyp, ref in zip(hyps, refs):
                one = corpus_bleu([hyp], [ref])
                summed = tuple(map(sum, zip(
                    summed, (*one.matched, *one.totals, one.hyp_length, one.ref_length))))
            assert bleu._report(summed) == report


def two_path_lattice() -> Wfsa:
    # lattice mass prefers (A, B); conditional on A, B is the cheap arc
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.2, 2)
    w.add_arc(1, C, 1.8, 3)
    w.set_final(2)
    w.set_final(3)
    return w


D, E = 4, 5


def branch_lattice() -> Wfsa:
    # A (B|C) D E with the lattice mass on the B branch
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.2, 2)
    w.add_arc(1, C, 1.8, 2)
    w.add_arc(2, D, 0.0, 3)
    w.add_arc(3, E, 0.0, 4)
    w.set_final(4)
    return w


def scorer_preferring_c() -> TableScorer:
    # only the branch decision needs a row; uniform fallback covers the
    # forced positions
    vocab = {A, B, C, D, E}
    spread = math.log(0.1 / 6)
    rows = {
        (A,): Prediction({**{t: spread for t in vocab},
                          C: math.log(0.9)}, spread, spread),
    }
    return TableScorer(rows, vocab=vocab)


class TestTuneGrid:
    def test_single_point_grid(self):
        lat = prepare(two_path_lattice())
        result = tune_grid([lat], [(A, B)], UniformScorer({A, B, C}),
                           grid=[1.0])
        assert result.lambda_lat == 1.0
        assert result.lambda_scorer == 1.0
        assert result.history == [(1.0, result.bleu.score)]

    def test_zero_lattice_weight_can_win(self):
        # the reference follows the scorer against the lattice, so the
        # sweep must hand the scorer full control
        lat = prepare(branch_lattice())
        result = tune_grid([lat], [(A, C, D, E)], scorer_preferring_c(),
                           grid=[0.0, 4.0])
        assert result.lambda_lat == 0.0
        assert result.bleu.score == 1.0
        scores = dict(result.history)
        assert scores[4.0] < 1.0

    def test_ties_take_smaller_lambda(self):
        w = Wfsa()
        w.add_arc(0, A, 0.3, 1)
        w.set_final(1)
        lat = prepare(w)
        result = tune_grid([lat], [(A,)], UniformScorer({A}),
                           grid=[1.5, 0.5, 1.0])
        assert result.lambda_lat == 0.5
        assert [lam for lam, _ in result.history] == [0.5, 1.0, 1.5]
        assert all(s == result.bleu.score for _, s in result.history)

    def test_decode_failure_names_sentence(self):
        class Broken(UniformScorer):
            def predict(self, state):
                raise RuntimeError("boom")

        lat = prepare(two_path_lattice())
        with pytest.raises(RuntimeError,
                           match=r"sentence 0 at lambda_lat=0\.5"):
            tune_grid([lat], [(A, B)], Broken({A, B, C}), grid=[0.5])

    def test_rejects_length_mismatch(self):
        # a list is counted before any decode, an iterator when a lattice
        # arrives with no reference left
        lat = prepare(two_path_lattice())
        for lattices in ([lat, lat], iter([lat, lat])):
            with pytest.raises(ValueError, match="differ"):
                tune_grid(lattices, [(A, B)], UniformScorer({A, B, C}),
                          grid=[1.0])

    def test_length_mismatch_is_a_config_error(self):
        lat = prepare(two_path_lattice())
        with pytest.raises(ConfigError) as exc:
            tune_grid([lat], [(A, B), (A, C)], UniformScorer({A, B, C}), grid=[1.0])
        assert isinstance(exc.value, LatbeamError)
        assert isinstance(exc.value, ValueError)

    def test_empty_corpus_is_a_bleu_error(self):
        # as in corpus_bleu, from a list or from an iterator that yields
        # nothing
        for lattices in ([], iter([])):
            with pytest.raises(BleuError, match="empty corpus"):
                tune_grid(lattices, [], UniformScorer({A, B, C}), grid=[1.0])

    def test_empty_grid_is_a_tune_error(self):
        lat = prepare(two_path_lattice())
        with pytest.raises(TuneError, match="empty lambda_lat grid"):
            tune_grid([lat], [(A, B)], UniformScorer({A, B, C}), grid=[])

    def test_references_counted_once_per_tune(self, monkeypatch):
        demo = build_demo(seed=13, n_sentences=12)
        lattices = [prepare(raw) for raw in demo.lattices]
        scorer = UniformScorer(set(demo.symbols.ids()))
        grid = [0.0, 0.5, 1.0, 2.0]
        calls = []
        ngrams = bleu._ngrams

        def counting(tokens, order):
            calls.append(order)
            return ngrams(tokens, order)

        monkeypatch.setattr(bleu, "_ngrams", counting)
        result = tune_grid(lattices, demo.references, scorer, grid=grid)
        # each reference once per order, each hypothesis once per order
        # and grid point
        n = len(lattices)
        assert len(calls) == MAX_ORDER * n * (1 + len(grid))
        for lam, score in result.history:
            cfg = DecoderConfig(lambda_lat=lam, lambda_scorer=1.0)
            hyps = [decode(lat, scorer, cfg).best.prefix for lat in lattices]
            report = corpus_bleu(hyps, demo.references)
            assert score == report.score
            if lam == result.lambda_lat:
                assert result.bleu == report

    def test_sweep_holds_nothing_per_sentence(self):
        # the sweep keeps summed statistics per grid point, not each
        # sentence's reference counts or best prefixes: 48 sentences
        # peak above 12 by no more than their 36 extra references take
        demo = build_demo(seed=13, n_sentences=48)
        lattices = [prepare(raw) for raw in demo.lattices]
        scorer = UniformScorer(set(demo.symbols.ids()))
        grid = [0.0, 0.5, 1.0, 2.0]

        def peak(n):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                tune_grid(iter(lattices[:n]), demo.references[:n], scorer, grid)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        tune_grid(lattices, demo.references, scorer, grid)     # warm caches
        extra = sum(map(sys.getsizeof, demo.references[12:]))
        assert peak(48) - peak(12) <= extra

    def test_generator_lattices_are_let_go(self):
        demo = build_demo(seed=13, n_sentences=8)
        scorer = UniformScorer(set(demo.symbols.ids()))
        grid = [0.0, 0.5, 1.0]
        refs = []
        alive = []  # before each lattice is built: those yielded and still alive

        def lattices():
            for raw in demo.lattices:
                alive.append(sum(r() is not None for r in refs))
                lattice = prepare(raw)
                refs.append(weakref.ref(lattice))
                yield lattice

        result = tune_grid(lattices(), demo.references, scorer, grid=grid)
        # the one yielded last may still be bound while the next is built,
        # so at most two are alive at once
        assert max(alive) <= 1
        held = tune_grid([prepare(raw) for raw in demo.lattices], demo.references,
                         scorer, grid=grid)
        assert result.history == held.history
        assert result.lambda_lat == held.lambda_lat
