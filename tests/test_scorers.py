"""Scorers: predictive distributions, n-gram training, model files."""

import math
import random

import pytest

from latbeam.errors import ConfigError, ScorerFormatError
from latbeam.scorers import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    NgramScorer,
    Prediction,
    TableScorer,
    UniformScorer,
    load_ngram_model,
    load_table_scorer,
    perplexity,
    train_ngram,
)
from latbeam.wfsa import SymbolTable

A, B, C = 1, 2, 3


def make_symbols():
    table = SymbolTable()
    for sym in ("a", "b", "c"):
        table.add(sym)
    return table


def assert_normalized(pred: Prediction, tol: float = 1e-6):
    mass = sum(math.exp(lp) for lp in pred.in_vocab.values())
    mass += math.exp(pred.unk_logprob) + math.exp(pred.eos_logprob)
    assert mass == pytest.approx(1.0, abs=tol)


class TestPrediction:
    def test_logprob_falls_back_to_unk(self):
        pred = Prediction({A: math.log(0.5)}, math.log(0.3), math.log(0.2))
        assert pred.logprob(A) == math.log(0.5)
        assert pred.logprob(99) == math.log(0.3)

    def test_event_logprob_handles_sentinels(self):
        pred = Prediction({A: math.log(0.5)}, math.log(0.3), math.log(0.2))
        assert pred.event_logprob(UNK_ID) == math.log(0.3)
        assert pred.event_logprob(EOS_ID) == math.log(0.2)
        assert pred.event_logprob(A) == math.log(0.5)

    def test_log_norm_zero_when_proper(self):
        pred = Prediction({A: math.log(0.5)}, math.log(0.3), math.log(0.2))
        assert pred.log_norm() == pytest.approx(0.0, abs=1e-12)


class TestUniformScorer:
    def test_four_word_vocab_gives_log_sixth(self):
        scorer = UniformScorer({1, 2, 3, 4})
        pred = scorer.predict(scorer.start())
        want = math.log(1.0 / 6.0)
        for token in (1, 2, 3, 4):
            assert pred.logprob(token) == pytest.approx(want)
        assert pred.unk_logprob == pytest.approx(want)
        assert pred.eos_logprob == pytest.approx(want)
        assert_normalized(pred)

    def test_stateless(self):
        scorer = UniformScorer({1, 2})
        s = scorer.start()
        assert scorer.consume(s, 1) == s
        assert scorer.predict(scorer.consume(s, 1)) == scorer.predict(s)


class TestTrainNgram:
    def test_unigram_add_one_counts(self):
        # "a a b": a and b keep their 3:2 add-1 ratio; unk and eos are
        # events of the same distribution, so the row still sums to 1
        model = train_ngram([[A, A, B]], order=1)
        pred = model.predict(model.start())
        assert_normalized(pred)
        p_a = math.exp(pred.logprob(A))
        p_b = math.exp(pred.logprob(B))
        assert p_a / p_b == pytest.approx(3.0 / 2.0, abs=1e-12)
        assert p_a == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert p_b == pytest.approx(2.0 / 8.0, abs=1e-12)

    def test_bigram_prefers_frequent_follower(self):
        corpus = [[A, B], [A, C], [A, B]]
        model = train_ngram(corpus, order=2)
        state = model.consume(model.start(), A)
        pred = model.predict(state)
        assert pred.logprob(B) > pred.logprob(C)
        assert_normalized(pred)

    def test_bigram_training_perplexity_not_worse(self):
        corpus = [[1, 2, 3], [1, 2, 4], [1, 2, 3], [2, 3, 4], [1, 3, 4],
                  [1, 2, 3, 4]]
        for smoothing in ("add-k", "stupid-backoff"):
            uni = perplexity(train_ngram(corpus, 1, smoothing=smoothing),
                             corpus)
            bi = perplexity(train_ngram(corpus, 2, smoothing=smoothing),
                            corpus)
            assert bi <= uni

    def test_min_count_maps_rare_tokens_to_unk(self):
        corpus = [[A, A, B], [A, C]]
        model = train_ngram(corpus, order=1, min_count=2)
        assert model.vocab == {A}
        pred = model.predict(model.start())
        # b and c trained as unk: counts a=3, unk=2, eos=2, add-1 over
        # the three remaining events
        assert math.exp(pred.unk_logprob) == pytest.approx(3.0 / 10.0,
                                                           abs=1e-12)
        assert pred.logprob(B) == pred.unk_logprob
        assert_normalized(pred)

    def test_stupid_backoff_unseen_context_backs_off(self):
        corpus = [[A, B], [B, C]]
        model = train_ngram(corpus, order=2, smoothing="stupid-backoff")
        seen = model.predict(model.consume(model.start(), A))
        assert_normalized(seen)
        # context (c,) was never observed as a history; predictions come
        # from the discounted unigram ladder and still normalize
        unseen = model.predict((C,))
        assert_normalized(unseen)

    def test_every_context_row_normalizes(self):
        rng = random.Random(83)
        corpus = [[rng.randrange(1, 8) for _ in range(rng.randrange(2, 9))]
                  for _ in range(40)]
        for smoothing in ("add-k", "stupid-backoff"):
            model = train_ngram(corpus, order=3, smoothing=smoothing)
            for pred in model.table.values():
                assert_normalized(pred)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            train_ngram([[A]], order=0)
        with pytest.raises(ValueError):
            train_ngram([], order=1)
        with pytest.raises(ValueError):
            train_ngram([[A]], order=1, smoothing="kneser-ney")
        with pytest.raises(ValueError):
            train_ngram([[A]], order=1, k=0.0)
        for alpha in (0.0, -0.4, math.nan):
            with pytest.raises(ConfigError, match="alpha"):
                train_ngram([[A, B]], order=2, smoothing="stupid-backoff", alpha=alpha)


class TestNgramScorerState:
    def test_start_is_bos_padding(self):
        model = train_ngram([[A, B, C]], order=3)
        assert model.start() == (BOS_ID, BOS_ID)

    def test_consume_shifts_window(self):
        model = train_ngram([[A, B, C]], order=3)
        state = model.consume(model.start(), A)
        assert state == (BOS_ID, A)
        assert model.consume(state, B) == (A, B)

    def test_consume_oov_becomes_unk(self):
        model = train_ngram([[A, B]], order=2)
        assert model.consume(model.start(), 77) == (UNK_ID,)

    def test_order_one_state_is_empty(self):
        model = train_ngram([[A, B]], order=1)
        assert model.start() == ()
        assert model.consume((), A) == ()

    def test_prediction_depends_only_on_context_window(self):
        corpus = [[A, B, C], [B, C, A], [C, A, B]]
        model = train_ngram(corpus, order=2)
        s1 = model.start()
        for token in (A, B, C):
            s1 = model.consume(s1, token)
        s2 = model.consume(model.start(), C)
        assert model.predict(s1) == model.predict(s2)

    def test_branching_states_are_independent(self):
        model = train_ngram([[A, B], [A, C]], order=2)
        root = model.consume(model.start(), A)
        before = model.predict(root)
        left = model.consume(root, B)
        right = model.consume(root, C)
        assert model.predict(root) == before
        assert left != right


class TestNgramModelFile:
    def test_save_load_round_trip(self, tmp_path):
        symbols = make_symbols()
        model = train_ngram([[A, B], [A, C], [A, B]], order=2)
        path = tmp_path / "m.ngram"
        model.save(path, symbols)
        back = load_ngram_model(path, symbols)
        assert back.order == model.order
        assert back.vocab == model.vocab
        for ctx, pred in model.table.items():
            assert back.table[ctx] == pred

    def test_training_is_deterministic(self, tmp_path):
        symbols = make_symbols()
        corpus = [[A, B], [B, C], [A, C]]
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        train_ngram(corpus, order=2).save(p1, symbols)
        train_ngram(corpus, order=2).save(p2, symbols)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_lines_are_sorted_with_backoff_column(self, tmp_path):
        symbols = make_symbols()
        path = tmp_path / "m.ngram"
        train_ngram([[A, B]], order=2).save(path, symbols)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
        assert all(line.endswith(" 0") for line in lines)

    def test_load_rejects_unnormalized_row(self, tmp_path):
        symbols = make_symbols()
        path = tmp_path / "bad.ngram"
        path.write_text(
            "a -0.5 0\n<unk> -0.5 0\n</s> -0.5 0\n", encoding="utf-8")
        with pytest.raises(ScorerFormatError, match="sums to"):
            load_ngram_model(path, symbols)

    def test_load_rejects_missing_empty_context(self, tmp_path):
        symbols = make_symbols()
        path = tmp_path / "bad.ngram"
        path.write_text("a b -0.1 0\n", encoding="utf-8")
        with pytest.raises(ScorerFormatError, match="empty-context"):
            load_ngram_model(path, symbols)


class TestTableScorer:
    def test_returns_stored_row_exactly(self):
        row = Prediction({B: math.log(0.9), C: math.log(0.05)},
                         math.log(0.04), math.log(0.01))
        scorer = TableScorer({(A,): row}, vocab={A, B, C})
        state = scorer.consume(scorer.start(), A)
        assert scorer.predict(state) is row

    def test_unseen_prefix_uniform_fallback(self):
        scorer = TableScorer({}, vocab={A, B, C})
        pred = scorer.predict((A, B, C))
        want = math.log(1.0 / 5.0)
        assert pred.logprob(A) == pytest.approx(want)
        assert pred.eos_logprob == pytest.approx(want)
        assert_normalized(pred)

    def test_rejects_unnormalized_row(self):
        bad = Prediction({A: math.log(0.9)}, math.log(0.3), math.log(0.3))
        with pytest.raises(ScorerFormatError):
            TableScorer({(): bad})

    def test_consume_records_oov_as_unk(self):
        scorer = TableScorer({}, vocab={A})
        assert scorer.consume((), 42) == (UNK_ID,)
        assert scorer.consume((), A) == (A,)


class TestTableScorerFile:
    def good_text(self):
        ln = math.log
        return (
            f"| a:{ln(0.7)!r} <unk>:{ln(0.2)!r} </s>:{ln(0.1)!r}\n"
            f"a | b:{ln(0.9)!r} c:{ln(0.05)!r} <unk>:{ln(0.04)!r}"
            f" </s>:{ln(0.01)!r}\n"
        )

    def test_parses_rows(self, tmp_path):
        symbols = make_symbols()
        path = tmp_path / "t.table"
        path.write_text(self.good_text(), encoding="utf-8")
        scorer = load_table_scorer(path, symbols)
        pred = scorer.predict((A,))
        assert pred.logprob(B) == pytest.approx(math.log(0.9))
        assert pred.unk_logprob == pytest.approx(math.log(0.04))
        assert pred.eos_logprob == pytest.approx(math.log(0.01))

    def test_missing_pipe_rejected(self, tmp_path):
        path = tmp_path / "t.table"
        path.write_text("a b:-0.1\n", encoding="utf-8")
        with pytest.raises(ScorerFormatError, match="missing '\\|'"):
            load_table_scorer(path, make_symbols())

    def test_unnormalized_row_names_prefix(self, tmp_path):
        path = tmp_path / "t.table"
        path.write_text("a | b:-0.1 <unk>:-0.1 </s>:-0.1\n", encoding="utf-8")
        with pytest.raises(ScorerFormatError, match="'a'"):
            load_table_scorer(path, make_symbols())

    def test_row_without_unk_or_eos_rejected(self, tmp_path):
        path = tmp_path / "t.table"
        ln = math.log
        path.write_text(f"| a:{ln(0.5)!r} b:{ln(0.5)!r}\n", encoding="utf-8")
        with pytest.raises(ScorerFormatError, match="must include"):
            load_table_scorer(path, make_symbols())

    def test_duplicate_prefix_rejected(self, tmp_path):
        path = tmp_path / "t.table"
        ln = math.log
        row = f"| a:{ln(0.5)!r} <unk>:{ln(0.25)!r} </s>:{ln(0.25)!r}\n"
        path.write_text(row + row, encoding="utf-8")
        with pytest.raises(ScorerFormatError, match="duplicate"):
            load_table_scorer(path, make_symbols())


class TestPerplexity:
    def test_finite_on_training_data(self):
        corpus = [[A, B, C], [A, C], [B, C]]
        model = train_ngram(corpus, order=2)
        assert math.isfinite(perplexity(model, corpus))

    def test_uniform_scorer_perplexity_is_event_count(self):
        scorer = UniformScorer({1, 2, 3, 4})
        assert perplexity(scorer, [[1, 2]]) == pytest.approx(6.0)

    def test_oov_tokens_use_unk_mass(self):
        model = train_ngram([[A, B]], order=1)
        assert math.isfinite(perplexity(model, [[99, 98]]))
