"""Beam decoding with the joint lattice+scorer score."""

import math
import random

import pytest

from latbeam.decoder import (
    DecodeResult,
    DecoderConfig,
    _joint,
    decode,
    local_log_norm,
)
from latbeam.errors import SearchError
from latbeam.ops import enumerate_paths
from latbeam.posterior import REJECT, prepare
from latbeam.scorers import UNK_ID, Prediction, TableScorer, UniformScorer, train_ngram
from latbeam.synth import lattice_prefixes, random_acyclic_wfsa, random_table_scorer
from latbeam.wfsa import Wfsa

A, B, C, X = 1, 2, 3, 7


def l1() -> Wfsa:
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.7, 2)
    w.add_arc(1, C, 1.6, 3)
    w.set_final(2)
    w.set_final(3)
    return w


class CountingScorer:
    """Passes every call through to inner and counts predict and consume."""

    def __init__(self, inner):
        self.inner = inner
        self.predict_calls = self.consume_calls = 0

    def start(self, source=None):
        return self.inner.start(source)

    def predict(self, state):
        self.predict_calls += 1
        return self.inner.predict(state)

    def consume(self, state, token):
        self.consume_calls += 1
        return self.inner.consume(state, token)


class CountingPrediction:
    """Passes logprob through to pred and counts the calls in tally[-1]."""

    def __init__(self, pred, tally):
        self.pred, self.tally = pred, tally
        self.eos_logprob = pred.eos_logprob

    def logprob(self, token):
        self.tally[-1] += 1
        return self.pred.logprob(token)


class LogprobCountingScorer(CountingScorer):
    """Also counts pred.logprob calls, one tally per predict call."""

    def __init__(self, inner):
        super().__init__(inner)
        self.logprob_calls = []

    def predict(self, state):
        self.logprob_calls.append(0)
        return CountingPrediction(super().predict(state), self.logprob_calls)


def reference_decode(lattice, scorer, cfg):
    """Plain beam search: every candidate copies its prefix and consumes
    eagerly; candidates sort on (-score, len(prefix), prefix). The joint
    score is spelled out here, not borrowed from the decoder, and arcs
    and stop masses are read from the automaton itself, not from the
    lattice's index.

    Returns (best, beam) as (prefix, score, finished) triples.
    """
    key = lambda h: (-h[1], len(h[0]), h[0])
    max_steps = cfg.max_steps or max(1, 3 * lattice.depth)
    beam = [((), 0.0, False, lattice.start, scorer.start())]
    best_finished = None
    for _ in range(max_steps):
        if beam[0][2]:
            break
        candidates = []
        for hyp in beam:
            prefix, score, finished, state, sstate = hyp
            if finished:
                candidates.append(hyp)
                continue
            pred = scorer.predict(sstate)
            arcs = sorted(lattice.inner.arcs[state])
            final_logprob = -lattice.inner.finals.get(state, math.inf)
            for label, weight, dst in arcs:
                step = cfg.lambda_lat * -weight if cfg.lambda_lat else 0.0
                if cfg.lambda_scorer:
                    lp = pred.logprob(label)
                    if cfg.local_softmax:
                        lp -= local_log_norm(pred, [a.label for a in arcs])
                    step += cfg.lambda_scorer * lp
                candidates.append((prefix + (label,), score + step,
                                   False, dst, scorer.consume(sstate, label)))
            if final_logprob != -math.inf:
                end = cfg.lambda_lat * final_logprob if cfg.lambda_lat else 0.0
                if cfg.lambda_scorer:
                    end += cfg.lambda_scorer * pred.eos_logprob
                done = (prefix, score + end, True, state, sstate)
                candidates.append(done)
                if best_finished is None or key(done) < key(best_finished):
                    best_finished = done
        candidates.sort(key=key)
        beam = candidates[:cfg.beam]
    best = beam[0] if beam[0][2] else best_finished
    return best[:3], [h[:3] for h in beam]


def table_over(rows, vocab):
    return TableScorer(rows, vocab=vocab)


def uniform_rows_after(prefixes, vocab):
    n = len(vocab) + 2
    lp = math.log(1.0 / n)
    pred = Prediction({t: lp for t in sorted(vocab)}, lp, lp)
    return {p: pred for p in prefixes}


class TestDecoderConfig:
    def test_defaults(self):
        cfg = DecoderConfig()
        assert cfg.beam == 12
        assert cfg.lambda_lat == 1.0
        assert cfg.lambda_scorer == 1.0
        assert not cfg.local_softmax

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DecoderConfig(beam=0)
        with pytest.raises(ValueError):
            DecoderConfig(lambda_lat=-1.0)
        with pytest.raises(ValueError):
            DecoderConfig(lambda_lat=0.0, lambda_scorer=0.0)


class TestJointStep:
    """The one joint-score rule, and the decoder's use of it per arc."""

    def setup_method(self):
        self.lat = prepare(l1())
        state = self.lat.walk((A,))
        self.cond_b = -self.lat.arc_for(state, B).weight
        self.pred = Prediction({A: math.log(0.2), B: math.log(0.3),
                                C: math.log(0.1)},
                               math.log(0.15), math.log(0.25))

    def test_lattice_only(self):
        cond = self.cond_b
        assert _joint(1.0, cond, 0.0, self.pred.logprob(B)) == cond
        # a zero lambda drops its term: 0 * -inf never becomes NaN
        assert _joint(1.0, cond, 0.0, -math.inf) == cond
        assert _joint(0.0, -math.inf, 1.0, cond) == cond

    def test_scorer_only_in_vocab(self):
        got = _joint(0.0, self.cond_b, 1.0, self.pred.logprob(B))
        assert got == pytest.approx(math.log(0.3), abs=1e-12)

    def test_weighted_sum(self):
        want = 0.5 * self.cond_b + 2.0 * math.log(0.3)
        got = _joint(0.5, self.cond_b, 2.0, math.log(0.3))
        assert got == pytest.approx(want, abs=1e-12)

    def _finished_scores(self, lat, cfg):
        rows = {(): Prediction({A: math.log(0.6)}, math.log(0.3), math.log(0.1)),
                (A,): self.pred}
        rows.update(uniform_rows_after([(A, B), (A, C), (A, UNK_ID)], {A, B, C}))
        result = decode(lat, table_over(rows, {A, B, C}), cfg)
        return {h.prefix: h.score for h in result.beam if h.finished}

    def test_oov_token_takes_unk_mass(self):
        lat = prepare(self._with_oov())
        cfg = DecoderConfig(beam=4, lambda_lat=0.0, lambda_scorer=1.0)
        eos = math.log(1.0 / 5.0)
        want = math.log(0.6) + math.log(0.15) + eos
        got = self._finished_scores(lat, cfg)[(A, X)]
        assert got == pytest.approx(want, abs=1e-12)

    @staticmethod
    def _with_oov() -> Wfsa:
        w = Wfsa()
        w.add_arc(0, A, 0.0, 1)
        w.add_arc(1, B, 0.7, 2)
        w.add_arc(1, X, 1.6, 3)
        w.set_final(2)
        w.set_final(3)
        return w

    def test_local_softmax_renormalizes_over_state_tokens(self):
        cfg = DecoderConfig(beam=4, local_softmax=True)
        tokens = (B, C)
        norm = local_log_norm(self.pred, tokens)
        # A is the only token out of the start state, so it costs nothing
        eos = math.log(1.0 / 5.0)
        want = self.cond_b + (math.log(0.3) - norm) + eos
        got = self._finished_scores(self.lat, cfg)[(A, B)]
        assert got == pytest.approx(want, abs=1e-12)
        mass = sum(math.exp(self.pred.logprob(t) - norm) for t in tokens)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_local_softmax_norm_once_per_state(self):
        # a star of k arcs: the norm reads each arc's token once, and so
        # does the arc's own term, so logprob calls grow linearly in k
        for k in (10, 20, 40):
            w = Wfsa()
            for token in range(1, k + 1):
                w.add_arc(0, token, 0.0, 1)
            w.set_final(1)
            scorer = LogprobCountingScorer(UniformScorer(set(range(1, k + 1))))
            decode(prepare(w), scorer, DecoderConfig(beam=1, local_softmax=True))
            assert scorer.logprob_calls[0] <= 2 * k
            assert scorer.logprob_calls[1:] == [0]


class TestLocalLogNorm:
    def test_oov_arcs_each_contribute_unk_mass(self):
        pred = Prediction({A: math.log(0.5)}, math.log(0.25), math.log(0.25))
        norm = local_log_norm(pred, (A, 8, 9))
        assert norm == pytest.approx(0.0, abs=1e-12)

    def test_random_predictions_renormalize(self):
        rng = random.Random(89)
        for _ in range(50):
            probs = [rng.random() + 1e-3 for _ in range(6)]
            z = sum(probs)
            pred = Prediction(
                {t + 1: math.log(p / z) for t, p in enumerate(probs[:-2])},
                math.log(probs[-2] / z), math.log(probs[-1] / z))
            tokens = tuple(rng.sample(range(1, 8), k=rng.randrange(1, 5)))
            norm = local_log_norm(pred, tokens)
            mass = sum(math.exp(pred.logprob(t) - norm) for t in tokens)
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestDecode:
    def test_single_path_returned_with_counters(self):
        w = Wfsa()
        w.add_arc(0, A, 0.3, 1)
        w.add_arc(1, B, 0.4, 2)
        w.set_final(2)
        lat = prepare(w)
        scorer = CountingScorer(UniformScorer({A, B}))
        result = decode(lat, scorer, DecoderConfig())
        assert result.best.prefix == (A, B)
        assert result.best.finished
        # one expansion per emitted token plus one for the stop decision
        assert result.node_expansions == 3
        assert result.node_expansions == scorer.predict_calls
        assert result.node_expansions >= len(result.best.prefix)

    def test_lattice_only_picks_cheapest_path(self):
        lat = prepare(l1())
        cfg = DecoderConfig(lambda_lat=1.0, lambda_scorer=0.0)
        result = decode(lat, UniformScorer({A, B, C}), cfg)
        assert result.best.prefix == (A, B)

    def test_scorer_only_overrides_lattice_preference(self):
        lat = prepare(l1())
        lp = math.log
        rows = {
            (): Prediction({A: lp(0.9), B: lp(0.02), C: lp(0.02)},
                           lp(0.02), lp(0.04)),
            (A,): Prediction({A: lp(0.01), B: lp(0.05), C: lp(0.9)},
                             lp(0.02), lp(0.02)),
        }
        rows.update(uniform_rows_after([(A, B), (A, C)], {A, B, C}))
        scorer = table_over(rows, {A, B, C})
        cfg = DecoderConfig(lambda_lat=0.0, lambda_scorer=1.0)
        result = decode(lat, scorer, cfg)
        assert result.best.prefix == (A, C)

    def test_unk_branch_hand_computed(self):
        # two hypotheses, one through a token the scorer has never seen;
        # every term is written out by hand
        w = Wfsa()
        w.add_arc(0, A, 0.0, 1)
        w.add_arc(1, B, 0.7, 2)
        w.add_arc(1, X, 0.2, 3)
        w.set_final(2)
        w.set_final(3)
        lat = prepare(w)

        lp = math.log
        rows = {
            (): Prediction({A: lp(0.8), B: lp(0.1)}, lp(0.05), lp(0.05)),
            (A,): Prediction({A: lp(0.1), B: lp(0.3)}, lp(0.4), lp(0.2)),
        }
        rows.update(uniform_rows_after([(A, B)], {A, B}))
        rows[(A, UNK_ID)] = Prediction({A: lp(0.1), B: lp(0.1)},
                                       lp(0.1), lp(0.7))
        scorer = table_over(rows, {A, B})
        result = decode(lat, scorer, DecoderConfig(beam=4))

        z = math.exp(-0.7) + math.exp(-0.2)
        lat_ab = lp(math.exp(-0.7) / z)
        lat_ax = lp(math.exp(-0.2) / z)
        score_ab = lat_ab + lp(0.8) + lp(0.3) + lp(1.0 / 4.0)
        score_ax = lat_ax + lp(0.8) + lp(0.4) + lp(0.7)
        assert score_ax > score_ab
        assert result.best.prefix == (A, X)
        assert result.best.score == pytest.approx(score_ax, abs=1e-12)
        beam_scores = {h.prefix: h.score for h in result.beam if h.finished}
        assert beam_scores[(A, B)] == pytest.approx(score_ab, abs=1e-12)

    def test_output_never_contains_unk_placeholder(self):
        rng = random.Random(97)
        scorer = train_ngram([[1, 2], [2, 3]], order=2)
        for _ in range(20):
            lat = prepare(random_acyclic_wfsa(rng, max_states=15,
                                              n_labels=12))
            result = decode(lat, scorer, DecoderConfig())
            assert UNK_ID not in result.best.prefix
            assert lat.accepted_logprob(result.best.prefix) is not REJECT

    def test_ties_break_toward_shorter_then_lexicographic(self):
        w = Wfsa()
        half = -math.log(0.5)
        w.add_arc(0, B, half, 1)
        w.add_arc(0, A, half, 2)
        w.set_final(1)
        w.set_final(2)
        lat = prepare(w)
        result = decode(lat, UniformScorer({A, B}), DecoderConfig())
        assert result.best.prefix == (A,)

    def test_search_error_when_nothing_finishes(self):
        lat = prepare(l1())
        cfg = DecoderConfig(max_steps=1)
        with pytest.raises(SearchError):
            decode(lat, UniformScorer({A, B, C}), cfg)

    def test_max_steps_falls_back_to_best_finished(self):
        w = Wfsa()
        w.add_arc(0, A, 2.0, 1)
        w.add_arc(0, B, 0.1, 2)
        w.add_arc(2, C, 0.1, 3)
        w.add_arc(3, A, 0.1, 4)
        w.set_final(1)
        w.set_final(4)
        lat = prepare(w)
        cfg = DecoderConfig(max_steps=2)
        result = decode(lat, UniformScorer({A, B, C}), cfg)
        assert result.best.prefix == (A,)
        assert result.best.finished

    def test_local_softmax_still_returns_accepted_string(self):
        rng = random.Random(101)
        scorer = train_ngram([[1, 2, 3], [2, 1, 3]], order=2)
        for _ in range(15):
            lat = prepare(random_acyclic_wfsa(rng, max_states=15))
            cfg = DecoderConfig(local_softmax=True)
            result = decode(lat, scorer, cfg)
            assert lat.accepted_logprob(result.best.prefix) is not REJECT

    def test_lambda_scaling_leaves_argmax_unchanged(self):
        rng = random.Random(103)
        for _ in range(15):
            lat = prepare(random_acyclic_wfsa(rng, max_states=15))
            scorer = random_table_scorer(rng, lat.vocabulary,
                                         lattice_prefixes(lat))
            base = decode(lat, scorer, DecoderConfig(beam=8)).best.prefix
            for c in (0.1, 10.0):
                cfg = DecoderConfig(beam=8, lambda_lat=c, lambda_scorer=c)
                assert decode(lat, scorer, cfg).best.prefix == base

    def test_expansions_equal_predict_calls(self):
        rng = random.Random(107)
        model = train_ngram([[1, 2], [3, 4]], order=2)
        for _ in range(15):
            lat = prepare(random_acyclic_wfsa(rng, max_states=18))
            for flag in (False, True):
                for beam in (1, 3, 12):
                    scorer = CountingScorer(model)
                    cfg = DecoderConfig(beam=beam, local_softmax=flag)
                    result = decode(lat, scorer, cfg)
                    assert result.node_expansions == scorer.predict_calls
                    # every consumed hypothesis is expanded next, except
                    # the live ones left in the final beam
                    assert scorer.consume_calls <= scorer.predict_calls - 1 + beam

    def test_ties_match_reference_search_at_narrow_beams(self):
        # equal arc weights over three labels and a uniform scorer make
        # equal scores common, so the tie-break decides most beams
        rng = random.Random(131)
        scorer = UniformScorer({1, 2, 3})
        for _ in range(40):
            lat = prepare(random_acyclic_wfsa(rng, max_states=10, n_labels=3,
                                              cost_range=(1.0, 1.0),
                                              final_fraction=0.4))
            for beam in range(1, 6):
                for flag in (False, True):
                    for lam_lat, lam_scorer in ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
                        cfg = DecoderConfig(beam=beam, lambda_lat=lam_lat,
                                            lambda_scorer=lam_scorer,
                                            local_softmax=flag)
                        want_best, want_beam = reference_decode(lat, scorer, cfg)
                        got = decode(lat, scorer, cfg)
                        assert (got.best.prefix, got.best.score,
                                got.best.finished) == want_best
                        assert [(h.prefix, h.score, h.finished)
                                for h in got.beam] == want_beam

    def test_long_prefix_is_rebuilt_from_back_pointers(self):
        w = Wfsa()
        for q in range(5000):
            w.add_arc(q, 1 + q % 3, 0.0, q + 1)
        w.set_final(5000)
        lat = prepare(w)
        result = decode(lat, UniformScorer({1, 2, 3}), DecoderConfig(beam=2))
        assert result.best.prefix == tuple(1 + q % 3 for q in range(5000))

    def test_exhaustive_agreement_at_wide_beam(self):
        rng = random.Random(109)
        checked = 0
        while checked < 25:
            raw = random_acyclic_wfsa(rng, max_states=12, n_labels=5)
            lat = prepare(raw)
            paths = enumerate_paths(lat.inner)
            if len(paths) > 60:
                continue
            checked += 1
            scorer = random_table_scorer(rng, lat.vocabulary,
                                         lattice_prefixes(lat))
            want = max(
                ((tokens, self._joint(lat, scorer, tokens))
                 for tokens, _ in paths),
                key=lambda kv: (kv[1], -len(kv[0]),
                                tuple(-t for t in kv[0])))
            cfg = DecoderConfig(beam=2 * len(paths) + 4)
            got = decode(lat, scorer, cfg)
            assert got.best.prefix == want[0]
            assert got.best.score == pytest.approx(want[1], abs=1e-9)

    @staticmethod
    def _joint(lat, scorer, tokens) -> float:
        state = scorer.start()
        total = lat.accepted_logprob(tokens)
        for t in tokens:
            pred = scorer.predict(state)
            total += pred.logprob(t)
            state = scorer.consume(state, t)
        return total + scorer.predict(state).eos_logprob
