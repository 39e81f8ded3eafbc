"""Acceptance checks for the whole toolkit, one test per criterion.

Each test computes its verdict first and prints a single
"criterion NN <name>: PASS|FAIL" line before asserting; run with -s
(or -rA) to see the lines for passing criteria too. Tolerances are
pinned here and nowhere looser: stochasticity 1e-6, probability
identities 1e-9 relative, hand-computed scores 1e-12, string
comparisons exact.
"""

import math
import random
import time

import pytest

from latbeam import semiring
from latbeam.baselines import (
    nbest_from_posterior,
    rescore_nbest_dfs,
    rescore_nbest_naive,
)
from latbeam.bleu import corpus_bleu
from latbeam.cli import main
from latbeam.decoder import DecoderConfig, decode, local_log_norm
from latbeam.ops import (
    PathCountError,
    aggregate_strings,
    check_stochastic,
    determinize,
    enumerate_paths,
    minimize,
    n_shortest_strings,
    rm_epsilon,
)
from latbeam.posterior import REJECT, prepare
from latbeam.scorers import (
    Prediction,
    TableScorer,
    UniformScorer,
    train_ngram,
)
from latbeam.synth import (
    build_demo,
    lattice_prefixes,
    random_acyclic_wfsa,
    random_table_scorer,
)
from latbeam.wfsa import Wfsa

A, B, C, X = 1, 2, 3, 7


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {verdict}{suffix}")


def argmax_key(item):
    # mirror the decoder's preference: score, then shorter, then
    # lexicographically smaller
    tokens, score = item
    return (score, -len(tokens), tuple(-t for t in tokens))


def scorer_total(lat, scorer, tokens, lambda_lat=1.0, lambda_scorer=1.0):
    state = scorer.start()
    total = lambda_lat * lat.accepted_logprob(tokens) if lambda_lat else 0.0
    for t in tokens:
        total += lambda_scorer * scorer.predict(state).logprob(t)
        state = scorer.consume(state, t)
    return total + lambda_scorer * scorer.predict(state).eos_logprob


@pytest.fixture(scope="module")
def demo():
    demo = build_demo(seed=13, n_sentences=50)
    posteriors = [prepare(w) for w in demo.lattices]
    scorer = train_ngram(demo.train_corpus, order=2)
    return demo, posteriors, scorer


def test_01_stochasticity():
    rng = random.Random(401)
    started = time.perf_counter()
    ok = True
    for i in range(200):
        raw = random_acyclic_wfsa(rng, min_states=5, max_states=100,
                                  cost_range=(0.0, 10.0),
                                  eps_fraction=0.15 if i % 3 == 0 else 0.0)
        lat = prepare(raw)
        if not check_stochastic(lat.inner, tol=1e-6):
            ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(1, "stochasticity", ok, f"200 lattices in {elapsed:.2f}s")
    assert ok


def test_02_posterior_identity():
    rng = random.Random(409)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 50:
        raw = random_acyclic_wfsa(rng, max_states=25,
                                  eps_fraction=0.1 if checked % 2 else 0.0)
        try:
            paths = enumerate_paths(raw, cap=10 ** 4)
        except PathCountError:
            continue
        checked += 1
        lat = prepare(raw)
        pooled = aggregate_strings(paths, semiring.LOG)
        z_neglog = semiring.log_sum(cost for _, cost in paths)
        total = 0.0
        for string, cost in pooled.items():
            want = math.exp(-cost + z_neglog)
            got = math.exp(lat.accepted_logprob(string))
            total += got
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15):
                ok = False
            worst = max(worst, abs(got - want) / max(want, 1e-300))
        if abs(total - 1.0) > 1e-9:
            ok = False
    report(2, "posterior identity", ok,
           f"50 lattices, worst rel err {worst:.2e}")
    assert ok


def test_03_pipeline_language_preservation():
    rng = random.Random(419)
    checked = 0
    ok = True
    while checked < 200:
        raw = random_acyclic_wfsa(rng, max_states=22, eps_fraction=0.25)
        try:
            want = aggregate_strings(enumerate_paths(raw, cap=5000),
                                     semiring.TROPICAL)
        except PathCountError:
            continue
        checked += 1
        processed = minimize(determinize(rm_epsilon(raw)))
        proc_paths = enumerate_paths(processed)
        got = aggregate_strings(proc_paths, semiring.TROPICAL)
        if set(got) != set(want):
            ok = False
            continue
        if any(abs(got[s] - want[s]) > 1e-9 for s in want):
            ok = False
        # deterministic output: one path per string
        if len(proc_paths) != len({tokens for tokens, _ in proc_paths}):
            ok = False
    report(3, "pipeline language preservation", ok, "200 lattices")
    assert ok


def test_04_decoder_exactness():
    rng = random.Random(421)
    hits = 0
    trials = 0
    while trials < 100:
        lat = prepare(random_acyclic_wfsa(rng, max_states=14, n_labels=6))
        paths = enumerate_paths(lat.inner)
        if len(paths) > 200:
            continue
        trials += 1
        scorer = random_table_scorer(rng, lat.vocabulary,
                                     lattice_prefixes(lat))
        want = max(((tokens, scorer_total(lat, scorer, tokens))
                    for tokens, _ in paths), key=argmax_key)[0]
        cfg = DecoderConfig(beam=len(paths) + 4)
        if decode(lat, scorer, cfg).best.prefix == want:
            hits += 1
    ok = hits == 100
    report(4, "decoder exactness", ok, f"{hits}/100 exhaustive matches")
    assert ok


def test_05_degenerate_lambdas():
    # the shortest path in question is the one through the prepared
    # automaton, whose per-string cost pools duplicate raw paths; the
    # per-path tropical argmin on the raw lattice can differ when a
    # string wins on pooled mass, so that agreement is only reported
    rng = random.Random(431)
    shortest_hits = 0
    raw_agree = 0
    scorer_hits = 0
    for _ in range(100):
        raw = random_acyclic_wfsa(rng, max_states=14, n_labels=6)
        lat = prepare(raw)
        paths = enumerate_paths(lat.inner)

        want_short = min(((tokens, cost) for tokens, cost in paths),
                         key=lambda kv: (kv[1], len(kv[0]), kv[0]))[0]
        assert want_short == n_shortest_strings(lat.inner, 1)[0][0]
        cfg = DecoderConfig(beam=len(paths) + 4, lambda_lat=1.0,
                            lambda_scorer=0.0)
        got = decode(lat, UniformScorer(lat.vocabulary), cfg).best.prefix
        if got == want_short:
            shortest_hits += 1
        tropical = aggregate_strings(enumerate_paths(raw), semiring.TROPICAL)
        if got == min(tropical.items(),
                      key=lambda kv: (kv[1], len(kv[0]), kv[0]))[0]:
            raw_agree += 1

        scorer = random_table_scorer(rng, lat.vocabulary,
                                     lattice_prefixes(lat))
        want_lm = max(((tokens,
                        scorer_total(lat, scorer, tokens, lambda_lat=0.0))
                       for tokens, _ in paths), key=argmax_key)[0]
        cfg = DecoderConfig(beam=len(paths) + 4, lambda_lat=0.0,
                            lambda_scorer=1.0)
        if decode(lat, scorer, cfg).best.prefix == want_lm:
            scorer_hits += 1
    ok = shortest_hits == 100 and scorer_hits == 100
    report(5, "degenerate lambdas", ok,
           f"shortest {shortest_hits}/100, scorer-argmax {scorer_hits}/100, "
           f"raw per-path argmin agrees {raw_agree}/100")
    assert ok


def test_06_unk_behavior():
    # hand-computed two-hypothesis case: the lattice offers B (in vocab)
    # against X (out of vocab); the unk branch must win on these numbers
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.7, 2)
    w.add_arc(1, X, 0.2, 3)
    w.set_final(2)
    w.set_final(3)
    lat = prepare(w)
    rows = {
        (): Prediction({A: math.log(0.8), B: math.log(0.1)},
                       math.log(0.05), math.log(0.05)),
        (A,): Prediction({A: math.log(0.1), B: math.log(0.3)},
                         math.log(0.4), math.log(0.2)),
        (A, -1): Prediction({A: math.log(0.1), B: math.log(0.1)},
                            math.log(0.1), math.log(0.7)),
        (A, B): Prediction({A: math.log(0.25), B: math.log(0.25)},
                           math.log(0.25), math.log(0.25)),
    }
    scorer = TableScorer(rows, vocab={A, B})
    result = decode(lat, scorer, DecoderConfig(beam=4))
    lat_ax = lat.accepted_logprob((A, X))
    want_ax = lat_ax + math.log(0.8) + math.log(0.4) + math.log(0.7)
    ok = result.best.prefix == (A, X)
    ok = ok and result.best.score == pytest.approx(want_ax, abs=1e-12)

    # surface tokens survive in outputs on random OOV-heavy lattices
    rng = random.Random(433)
    scorer = train_ngram([[1, 2, 3], [2, 3, 1], [1, 3, 2]], order=2)
    for _ in range(30):
        lat = prepare(random_acyclic_wfsa(rng, max_states=16, n_labels=8))
        best = decode(lat, scorer).best.prefix
        if lat.accepted_logprob(best) is REJECT:
            ok = False
        if any(t < 1 for t in best):
            ok = False
    report(6, "unk behavior", ok)
    assert ok


def test_07_nbest_equivalence_and_cost(demo):
    rng = random.Random(439)
    ok = True
    checked = 0
    while checked < 100:
        lat = prepare(random_acyclic_wfsa(rng, max_states=25))
        nbest = nbest_from_posterior(lat, 100)
        if len(nbest) < 2:
            continue
        checked += 1
        scorer = random_table_scorer(rng, lat.vocabulary,
                                     lattice_prefixes(lat))
        naive = rescore_nbest_naive(nbest, scorer)
        dfs = rescore_nbest_dfs(nbest, scorer)
        if [e.tokens for e in naive.ranked] != [e.tokens for e in dfs.ranked]:
            ok = False
        if any(abs(a.joint_score - b.joint_score) > 1e-9
               for a, b in zip(naive.ranked, dfs.ranked)):
            ok = False
        if dfs.predict_calls > naive.predict_calls:
            ok = False
        strings = [t for t, _ in nbest.entries]
        shared = len({s[0] for s in strings}) < len(strings)
        if shared and dfs.predict_calls >= naive.predict_calls:
            ok = False

    demo_set, posteriors, scorer = demo
    decode_cost = []
    dfs_cost = []
    naive_cost = []
    for lat in posteriors:
        decode_cost.append(decode(lat, scorer).node_expansions)
        nbest = nbest_from_posterior(lat, 100)
        dfs_cost.append(rescore_nbest_dfs(nbest, scorer).predict_calls)
        naive_cost.append(rescore_nbest_naive(nbest, scorer).predict_calls)
    mean = lambda xs: sum(xs) / len(xs)
    ordering = mean(decode_cost) < mean(dfs_cost) < mean(naive_cost)
    ok = ok and ordering
    report(7, "n-best equivalence and cost", ok,
           f"mean expansions {mean(decode_cost):.1f} < "
           f"{mean(dfs_cost):.1f} < {mean(naive_cost):.1f}")
    assert ok


def test_08_local_softmax(demo):
    demo_set, posteriors, scorer = demo
    ok = True
    worst = 0.0
    for lat in posteriors[:10]:
        # one representative prefix per lattice state
        seen = {lat.start: ()}
        queue = [lat.start]
        while queue:
            state = queue.pop()
            for label, _, dst in lat.successors(state):
                if dst not in seen:
                    seen[dst] = seen[state] + (label,)
                    queue.append(dst)
        for state, prefix in seen.items():
            tokens = [arc.label for arc in lat.successors(state)]
            if not tokens:
                continue
            lm_state = scorer.start()
            for t in prefix:
                lm_state = scorer.consume(lm_state, t)
            pred = scorer.predict(lm_state)
            norm = local_log_norm(pred, tokens)
            mass = sum(math.exp(pred.logprob(t) - norm) for t in tokens)
            worst = max(worst, abs(mass - 1.0))
            if abs(mass - 1.0) > 1e-6:
                ok = False

    refs = demo_set.references
    hyps = {}
    for flag in (False, True):
        cfg = DecoderConfig(local_softmax=flag)
        outs = []
        for lat in posteriors:
            best = decode(lat, scorer, cfg).best.prefix
            if lat.accepted_logprob(best) is REJECT:
                ok = False
            outs.append(best)
        hyps[flag] = outs
    full = corpus_bleu(hyps[False], refs).score
    local = corpus_bleu(hyps[True], refs).score
    report(8, "local softmax", ok,
           f"worst mass err {worst:.2e}; BLEU local {local:.4f} vs "
           f"full {full:.4f}, delta {local - full:+.4f} (reported only)")
    assert ok


def test_09_bleu_oracles():
    ident = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]])
    short = corpus_bleu([["the", "cat", "sat"]],
                        [["the", "cat", "sat", "down"]])
    disjoint = corpus_bleu([["a", "b", "c", "d"]], [["x", "y", "z", "w"]])
    ok = ident.score == 1.0 and ident.brevity_penalty == 1.0
    ok = ok and short.score == 0.0
    ok = ok and short.precisions == (1.0, 1.0, 1.0, 0.0)
    ok = ok and abs(short.brevity_penalty - math.exp(1 - 4 / 3)) < 1e-12
    ok = ok and disjoint.score == 0.0
    report(9, "bleu oracles", ok)
    assert ok


def test_10_lambda_scale_invariance(demo):
    demo_set, posteriors, scorer = demo
    ok = True
    base = [decode(lat, scorer).best.prefix for lat in posteriors]
    for c in (0.1, 10.0):
        cfg = DecoderConfig(lambda_lat=c, lambda_scorer=c)
        scaled = [decode(lat, scorer, cfg).best.prefix for lat in posteriors]
        if scaled != base:
            ok = False
    report(10, "lambda scale invariance", ok, "c in {0.1, 10}")
    assert ok


def test_11_determinism(tmp_path, capsys):
    root = tmp_path / "demo"
    assert main(["demo", str(root), "--sentences", "20"]) == 0
    symtab = str(root / "symtab.txt")
    assert main(["train", str(root / "train.txt"),
                 "--out", str(root / "model.txt"), "--symtab", symtab]) == 0

    outputs = []
    for run in (1, 2):
        pushed = tmp_path / f"pushed{run}"
        hyp = tmp_path / f"hyp{run}.txt"
        assert main(["push", str(root / "lattices"), str(pushed),
                     "--symtab", symtab, "--workers", "8"]) == 0
        assert main(["decode", str(pushed), "--symtab", symtab,
                     "--scorer", "ngram", "--model", str(root / "model.txt"),
                     "--workers", "8", "--out", str(hyp)]) == 0
        capsys.readouterr()
        assert main(["bleu", str(hyp), str(root / "refs.txt"),
                     "--json"]) == 0
        bleu_line = capsys.readouterr().out
        pushed_bytes = {f.name: f.read_bytes()
                        for f in sorted(pushed.glob("*.lat"))}
        outputs.append((pushed_bytes, hyp.read_bytes(), bleu_line))
    ok = outputs[0] == outputs[1]
    report(11, "determinism under workers", ok, "push/decode/bleu x2")
    assert ok


def test_12_engineering_budget(tmp_path, capsys):
    rng = random.Random(443)
    big = Wfsa(semiring.TROPICAL)
    n = 10_000
    big.ensure_state(n - 1)
    for q in range(n - 1):
        big.add_arc(q, rng.randint(1, 20), rng.uniform(0.0, 2.0), q + 1)
        big.add_arc(q, rng.randint(1, 20), rng.uniform(0.0, 2.0), q + 1)
    big.set_final(n - 1, 0.0)
    started = time.perf_counter()
    lat = prepare(big)
    big_elapsed = time.perf_counter() - started
    ok = big_elapsed < 5.0 and lat.depth == n - 1

    root = tmp_path / "demo"
    started = time.perf_counter()
    assert main(["demo", str(root)]) == 0
    symtab = str(root / "symtab.txt")
    assert main(["push", str(root / "lattices"), str(tmp_path / "pushed"),
                 "--symtab", symtab]) == 0
    assert main(["train", str(root / "train.txt"),
                 "--out", str(root / "model.txt"), "--symtab", symtab]) == 0
    assert main(["decode", str(tmp_path / "pushed"), "--symtab", symtab,
                 "--scorer", "ngram", "--model", str(root / "model.txt"),
                 "--out", str(tmp_path / "hyp.txt")]) == 0
    assert main(["bleu", str(tmp_path / "hyp.txt"),
                 str(root / "refs.txt")]) == 0
    demo_elapsed = time.perf_counter() - started
    capsys.readouterr()
    ok = ok and demo_elapsed < 60.0
    report(12, "engineering budget", ok,
           f"10k-state prepare {big_elapsed:.2f}s, "
           f"demo pipeline {demo_elapsed:.2f}s")
    assert ok
