"""Comparison systems: n-best lists and their rescoring."""

import math
import random
import tracemalloc

import pytest

import oracles
from generators import lattice_prefixes, random_acyclic_wfsa, random_table_scorer, vocabulary

from latbeam.baselines import (
    NBestList,
    nbest_from_posterior,
    rescore_nbest_dfs,
    rescore_nbest_naive,
)
from latbeam.decoder import DecoderConfig
from latbeam import semiring
from latbeam.errors import ConfigError, LatbeamError
from latbeam.ops import n_shortest_strings
from latbeam.posterior import PosteriorLattice, prepare
from latbeam.scorers import UniformScorer, train_ngram
from latbeam.synth import sausage_lattice
from latbeam.wfsa import SymbolTable, Wfsa, parse_wfsa

A, B, C = 1, 2, 3

TIE_LATTICE_27 = """\
0 1 a 1.35583515364
0 1 b 1.35583515364
0 2 c 0.937124818777
0 3 d 2.37748640117
1 4 a 1.27296567581
1 5 b 2.1202635362
1 4 c 1.27296567581
1 4 d 1.27296567581
2 6 c 1.15267950994
2 1 d 0.418710334858
3 7 a 0.810930216216
3 8 b 0.587786664902
4 5 a 0.847297860387
4 9 b 1.94591014906
4 5 c 0.847297860387
5 9 b 1.09861228867
5 9 c 1.09861228867
5 9 d 1.09861228867
6 4 b 0.538996500733
6 8 d 0.875468737354
7 5 b 0.287682072452
8 9 b 1.60943791243
8 5 c 0.510825623766
1 3.21887582487
2 3.63758615973
7 1.38629436112
8 1.60943791243
9 0
"""


def l1() -> Wfsa:
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.7, 2)
    w.add_arc(1, C, 1.6, 3)
    w.set_final(2)
    w.set_final(3)
    return w


class TestNBestList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            NBestList([((A,), -0.5), ((A,), -0.6)])

    def test_rejects_increasing_logprobs(self):
        with pytest.raises(ValueError, match="non-increasing"):
            NBestList([((A,), -0.9), ((B,), -0.2)])

    @pytest.mark.parametrize("entries", [
        pytest.param([((A,), -0.5), ((A,), -0.6)], id="duplicate"),
        pytest.param([((A,), -0.9), ((B,), -0.2)], id="increasing"),
    ])
    def test_rejection_is_a_config_error(self, entries):
        with pytest.raises(ConfigError) as exc:
            NBestList(entries)
        assert isinstance(exc.value, LatbeamError)
        assert isinstance(exc.value, ValueError)

    def test_from_posterior_matches_n_shortest(self):
        lat = prepare(l1())
        nbest = nbest_from_posterior(lat, 2, source_id="s1")
        want = n_shortest_strings(lat.inner, 2)
        assert nbest.source_id == "s1"
        assert [t for t, _ in nbest.entries] == [t for t, _ in want]
        for (_, logprob), (_, cost) in zip(nbest.entries, want):
            assert logprob == -cost

    def test_from_posterior_logprobs_are_normalized(self):
        lat = prepare(l1())
        nbest = nbest_from_posterior(lat, 2)
        z = math.exp(-0.7) + math.exp(-1.6)
        assert nbest.entries[0][1] == pytest.approx(
            math.log(math.exp(-0.7) / z), abs=1e-12)

    def test_shorter_list_when_language_small(self):
        lat = prepare(l1())
        assert len(nbest_from_posterior(lat, 100)) == 2

    def test_cost_an_ulp_out_of_order_is_clamped(self):
        # tie_heavy_dfa(Random(27)) of tests/test_ops.py with every weight
        # zeroed, pushed, serialized and read back: its exact path costs
        # are not monotone in search order
        symbols = SymbolTable()
        for token in "abcd":
            symbols.add(token)
        lat = PosteriorLattice(parse_wfsa(TIE_LATTICE_27, symbols,
                                          semiring_tag=semiring.LOG))
        exact = n_shortest_strings(lat.inner, 50)
        assert any(a[1] > b[1] for a, b in zip(exact, exact[1:]))
        nbest = nbest_from_posterior(lat, 50)
        assert [t for t, _ in nbest.entries] == [t for t, _ in exact]
        last = math.inf
        for (_, logprob), (_, cost) in zip(nbest.entries, exact):
            assert logprob == min(last, -cost)
            assert logprob == pytest.approx(-cost, abs=1e-12)
            last = logprob


class TestRescoreNaive:
    def test_lattice_only_keeps_input_ranking(self):
        lat = prepare(l1())
        nbest = nbest_from_posterior(lat, 2)
        result = rescore_nbest_naive(nbest, UniformScorer({A, B, C}),
                                     lambda_lat=1.0, lambda_scorer=0.0)
        assert [e.tokens for e in result.ranked] == [t for t, _ in
                                                     nbest.entries]

    def test_predict_call_accounting(self):
        nbest = NBestList([((A, B, C), -0.5), ((B,), -0.9)])
        result = rescore_nbest_naive(nbest, UniformScorer({A, B, C}))
        assert result.predict_calls == (3 + 1) + (1 + 1)

    def test_scores_are_joint_terms(self):
        lat = prepare(l1())
        nbest = nbest_from_posterior(lat, 2)
        scorer = train_ngram([[A, B], [A, C]], order=2)
        result = rescore_nbest_naive(nbest, scorer, lambda_lat=2.0,
                                     lambda_scorer=0.5)
        for entry in result.ranked:
            assert entry.joint_score == pytest.approx(
                2.0 * entry.lattice_logprob + 0.5 * entry.scorer_logprob,
                abs=1e-12)

    def test_zero_lambda_drops_its_term(self):
        # the joint score is the decoder's rule: a dropped term adds 0.0,
        # so a lattice term of -0.0 comes out as 0.0, and -inf never
        # meets a zero weight
        nbest = NBestList([((A,), -0.0), ((B,), -math.inf)])
        scorer = UniformScorer({A, B, C})
        result = rescore_nbest_naive(nbest, scorer, lambda_lat=1.0, lambda_scorer=0.0)
        assert [math.copysign(1.0, e.joint_score) for e in result.ranked] == [1.0, -1.0]
        result = rescore_nbest_naive(nbest, scorer, lambda_lat=0.0, lambda_scorer=1.0)
        assert not any(math.isnan(e.joint_score) for e in result.ranked)


@pytest.mark.parametrize("rescore", [rescore_nbest_naive, rescore_nbest_dfs])
@pytest.mark.parametrize("lambda_lat, lambda_scorer",
                         [(-1.0, 0.0), (0.0, 0.0), (1.0, -0.5), (math.nan, 1.0)])
def test_rescorers_refuse_invalid_lambdas(rescore, lambda_lat, lambda_scorer):
    nbest = NBestList([((A, B), -0.3), ((B,), -0.9)])
    with pytest.raises(ConfigError):
        rescore(nbest, UniformScorer({A, B, C}), lambda_lat=lambda_lat,
                lambda_scorer=lambda_scorer)
    with pytest.raises(ConfigError):
        DecoderConfig(lambda_lat=lambda_lat, lambda_scorer=lambda_scorer)


class TestRescoreDfs:
    def test_shared_prefix_saves_calls(self):
        nbest = NBestList([((A, B, C), -0.5), ((A, B, A), -0.9)])
        scorer = UniformScorer({A, B, C})
        naive = rescore_nbest_naive(nbest, scorer)
        dfs = rescore_nbest_dfs(nbest, scorer)
        assert naive.predict_calls == 8
        # trie: a, ab, abc, abc-stop, aba, aba-stop
        assert dfs.predict_calls == 6
        assert dfs.predict_calls < naive.predict_calls

    def test_disjoint_hypotheses_cost_the_same(self):
        nbest = NBestList([((A, B), -0.5), ((C,), -0.9)])
        scorer = UniformScorer({A, B, C})
        naive = rescore_nbest_naive(nbest, scorer)
        dfs = rescore_nbest_dfs(nbest, scorer)
        assert dfs.predict_calls == naive.predict_calls == 5

    def test_identical_rankings_and_scores(self):
        rng = random.Random(127)
        for _ in range(20):
            lat = prepare(random_acyclic_wfsa(rng, max_states=20))
            nbest = nbest_from_posterior(lat, 100)
            scorer = random_table_scorer(rng, vocabulary(lat),
                                         lattice_prefixes(lat))
            naive = rescore_nbest_naive(nbest, scorer)
            dfs = rescore_nbest_dfs(nbest, scorer)
            assert [e.tokens for e in naive.ranked] == \
                [e.tokens for e in dfs.ranked]
            for a, b in zip(naive.ranked, dfs.ranked):
                assert a.joint_score == b.joint_score
                assert a.scorer_logprob == b.scorer_logprob
            assert dfs.predict_calls <= naive.predict_calls

    def test_strictly_fewer_calls_with_any_shared_prefix(self):
        rng = random.Random(131)
        tested = 0
        while tested < 10:
            lat = prepare(random_acyclic_wfsa(rng, max_states=20))
            nbest = nbest_from_posterior(lat, 50)
            strings = [t for t, _ in nbest.entries]
            shares = any(s[:1] == t[:1] for i, s in enumerate(strings)
                         for t in strings[i + 1:])
            if not shares:
                continue
            tested += 1
            scorer = UniformScorer(vocabulary(lat))
            naive = rescore_nbest_naive(nbest, scorer)
            dfs = rescore_nbest_dfs(nbest, scorer)
            assert dfs.predict_calls < naive.predict_calls

    def test_long_hypothesis_does_not_recurse(self):
        long = tuple(1 + i % 3 for i in range(3000))
        nbest = NBestList([(long, -1.0), (long[:1500] + (3, 3), -2.0),
                           ((A,), -3.0)])
        scorer = train_ngram([[1, 2, 3, 1], [3, 3, 2]], order=2)
        naive = rescore_nbest_naive(nbest, scorer)
        dfs = rescore_nbest_dfs(nbest, scorer)
        assert naive.ranked == dfs.ranked
        assert dfs.predict_calls <= naive.predict_calls

    def test_long_list_matches_naive_and_oracle(self):
        lat = prepare(sausage_lattice(8000, seed=13))
        nbest = nbest_from_posterior(lat, 10)
        rng = random.Random(17)
        corpus = [[rng.randint(1, 40) for _ in range(30)] for _ in range(200)]
        scorer = train_ngram(corpus, order=2)
        dfs = rescore_nbest_dfs(nbest, scorer)
        assert dfs == oracles.rescore_nbest_dfs(nbest, scorer)
        naive = rescore_nbest_naive(nbest, scorer)
        assert dfs.ranked == naive.ranked
        assert dfs.predict_calls < naive.predict_calls


def test_nbest_memory_is_linear_in_lattice_length():
    # heap entries hold back-pointers, not token tuples; tuples made
    # the peak grow with the square of the length (about 370 MB here)
    lat = prepare(sausage_lattice(4000, seed=13))
    tracemalloc.start()
    try:
        nbest = nbest_from_posterior(lat, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nbest) == 10
    assert all(len(tokens) == 4000 for tokens, _ in nbest.entries)
    assert peak < 20 * 2 ** 20
