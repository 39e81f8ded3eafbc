"""Automata operations: epsilon removal, determinization, minimization,
pushing, and the path-enumeration oracles they are checked against."""

import math
import random

import pytest

from latbeam import ops, semiring
from latbeam.errors import (
    CyclicLatticeError,
    EpsilonArcError,
    EpsilonCycleError,
    NotCoaccessibleError,
    NotDeterministicError,
    PathCountError,
)
from latbeam.ops import (
    _determinize,
    _subsets,
    aggregate_strings,
    check_stochastic,
    connect,
    count_paths,
    determinize,
    enumerate_paths,
    equivalent_acyclic,
    minimize,
    n_shortest_strings,
    push_log,
    rm_epsilon,
)
from latbeam.semiring import INF
from latbeam.synth import random_acyclic_wfsa
from latbeam.wfsa import EPS, Arc, SymbolTable, Wfsa, serialize_wfsa, topological_order

A, B, C, D = 1, 2, 3, 4


def l1() -> Wfsa:
    """Two paths sharing the first arc: 'a b' at 0.7, 'a c' at 1.6."""
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.7, 2)
    w.add_arc(1, C, 1.6, 3)
    w.set_final(2)
    w.set_final(3)
    return w


def chain(costs, labels=None) -> Wfsa:
    w = Wfsa()
    for i, cost in enumerate(costs):
        label = labels[i] if labels else A + i
        w.add_arc(i, label, cost, i + 1)
    w.set_final(len(costs))
    return w


def string_costs(w: Wfsa) -> dict[tuple[int, ...], float]:
    return aggregate_strings(enumerate_paths(w), w.semiring)


def assert_topological(w: Wfsa, order: list[int]) -> None:
    assert sorted(order) == list(range(w.num_states))
    pos = {q: i for i, q in enumerate(order)}
    assert all(pos[q] < pos[a.dst] for q in range(w.num_states) for a in w.arcs[q])


class TestConnect:
    def test_drops_dead_states(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(0, B, 0.5, 2)
        w.set_final(1)
        out = connect(w)
        assert out.num_states == 2
        assert string_costs(out) == string_costs(w)

    def test_keeps_connected_input_intact(self):
        w = l1()
        out = connect(w)
        assert out.num_states == w.num_states
        assert string_costs(out) == string_costs(w)

    def test_nothing_dropped_returns_independent_copy(self):
        w = l1()
        out = connect(w)
        assert out is not w
        assert (out.start, out.arcs, out.finals) == (w.start, w.arcs, w.finals)
        assert all(mine is not theirs for mine, theirs in zip(out.arcs, w.arcs))
        out.arcs[1].append(Arc(D, 0.5, 2))
        out.add_arc(3, A, 0.5, 4)
        out.set_final(4)
        assert len(w.arcs[1]) == 2
        assert w.num_states == 4
        assert w.finals == {2: 0.0, 3: 0.0}

    def test_stateless_automaton_stays_stateless(self):
        for op in (connect, minimize):
            out = op(Wfsa(semiring.LOG))
            assert (out.num_states, out.finals) == (0, {})


class TestRmEpsilon:
    def test_no_epsilons_is_noop_on_language(self):
        w = l1()
        out = rm_epsilon(w)
        assert not out.has_epsilon()
        assert string_costs(out) == string_costs(w)

    def test_single_epsilon_weight_composition(self):
        w = Wfsa()
        w.add_arc(0, EPS, 0.2, 1)
        w.add_arc(1, A, 0.5, 2)
        w.set_final(2)
        out = rm_epsilon(w)
        assert not out.has_epsilon()
        [(src, arc)] = list(out.iter_arcs())
        assert arc.label == A
        assert arc.weight == pytest.approx(0.7)

    def test_epsilon_into_final_state(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(1, EPS, 0.25, 2)
        w.set_final(2, 0.125)
        out = rm_epsilon(w)
        assert string_costs(out)[(A,)] == pytest.approx(0.875)

    def test_parallel_epsilon_paths_combine_tropically(self):
        w = Wfsa()
        w.add_arc(0, EPS, 0.2, 1)
        w.add_arc(0, EPS, 0.9, 1)
        w.add_arc(1, A, 0.0, 2)
        w.set_final(2)
        out = rm_epsilon(w)
        assert string_costs(out)[(A,)] == pytest.approx(0.2)

    def test_parallel_epsilon_paths_pool_in_log(self):
        w = Wfsa(semiring.LOG)
        w.add_arc(0, EPS, 0.2, 1)
        w.add_arc(0, EPS, 0.9, 1)
        w.add_arc(1, A, 0.0, 2)
        w.set_final(2)
        out = rm_epsilon(w)
        want = -math.log(math.exp(-0.2) + math.exp(-0.9))
        assert string_costs(out)[(A,)] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("tag, plus", [(semiring.TROPICAL, min),
                                           (semiring.LOG, semiring.log_add)])
    def test_epsilon_free_input_pools_sorts_and_trims(self, tag, plus):
        w = Wfsa(tag)
        w.add_arc(0, B, 0.5, 2)
        w.add_arc(0, A, 2.0, 2)
        w.add_arc(0, A, 0.3, 1)
        w.add_arc(0, A, 1.0, 2)
        w.add_arc(3, A, 0.1, 2)   # state 3 is unreachable
        w.set_final(1)
        w.set_final(2, 0.25)
        out = rm_epsilon(w)
        assert out.num_states == 3
        assert out.arcs[0] == [Arc(A, 0.3, 1), Arc(A, plus(2.0, 1.0), 2),
                               Arc(B, 0.5, 2)]
        assert out.arcs[1] == out.arcs[2] == []
        assert out.finals == {1: 0.0, 2: 0.25}
        assert len(w.arcs[0]) == 4 and w.num_states == 4

    def test_epsilon_cycle_rejected(self):
        w = Wfsa()
        w.add_arc(0, EPS, 0.1, 1)
        w.add_arc(1, EPS, 0.1, 0)
        w.add_arc(1, A, 0.5, 2)
        w.set_final(2)
        with pytest.raises(EpsilonCycleError):
            rm_epsilon(w)

    def test_random_lattices_language_preserved(self):
        rng = random.Random(19)
        for _ in range(30):
            w = random_acyclic_wfsa(rng, max_states=20, eps_fraction=0.3)
            got = string_costs(rm_epsilon(w))
            want = {s: c for s, c in
                    aggregate_strings(enumerate_paths(w), w.semiring).items()}
            assert set(got) == set(want)
            for s, cost in want.items():
                assert got[s] == pytest.approx(cost, abs=1e-9)


class TestDeterminize:
    def test_same_label_merge_keeps_min(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(0, A, 0.9, 2)
        w.set_final(1)
        w.set_final(2)
        out = determinize(w)
        assert out.is_deterministic()
        assert string_costs(out)[(A,)] == pytest.approx(0.5)

    def test_log_tag_pools_mass_instead(self):
        w = Wfsa(semiring.LOG)
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(0, A, 0.9, 2)
        w.set_final(1)
        w.set_final(2)
        out = determinize(w)
        want = -math.log(math.exp(-0.5) + math.exp(-0.9))
        assert string_costs(out)[(A,)] == pytest.approx(want, abs=1e-12)

    def test_deterministic_input_language_unchanged(self):
        w = l1()
        out = determinize(w)
        assert string_costs(out) == pytest.approx(string_costs(w))

    @pytest.mark.parametrize("tag", [semiring.TROPICAL, semiring.LOG])
    def test_fast_path_matches_subset_construction(self, tag, monkeypatch):
        # deterministic input is renumbered instead of subset-constructed;
        # the result must be the one the subset construction builds
        handed_over = []

        def counting(w, order):
            handed_over.append(w)
            return _subsets(w, order)

        monkeypatch.setattr(ops, "_subsets", counting)
        symbols = SymbolTable.from_tokens(f"w{i}" for i in range(1, 7))
        rng = random.Random(97)
        for case in range(60):
            n = rng.randint(2, 25)
            w = Wfsa(tag)
            w.ensure_state(n)  # state n has arcs out but none in
            if case % 2:
                w.set_final(n, 1.0)
            for q in [*range(n - 1), n]:
                labels = rng.sample(range(1, 6), rng.randint(0, 3))
                for label in labels:
                    dst = rng.randrange(q + 1, n) if q < n - 1 else rng.randrange(n)
                    w.add_arc(q, label, rng.choice([-0.0, rng.uniform(-1.0, 5.0)]), dst)
            inf_arc = case % 4 == 0
            # label 6 is used nowhere else; starting at 1 leaves 0 inaccessible
            w.add_arc(0, 6, INF if inf_arc else 0.5, n - 1)
            w.start = 0 if inf_arc or n == 2 else rng.choice([0, 1])
            w.set_final(n - 1, rng.uniform(0.0, 2.0))
            if case % 3 == 0:
                w.set_final(w.start, rng.uniform(0.0, 2.0))
            handed_over.clear()
            out, order = _determinize(w, topological_order(w))
            # an infinite arc weight hands over to the subset construction
            assert handed_over == ([w] if inf_arc else [])
            assert repr(determinize(w).arcs) == repr(out.arcs)
            ref, ref_order = _subsets(w, topological_order(w))
            assert serialize_wfsa(out, symbols) == serialize_wfsa(ref, symbols)
            assert repr(out.arcs) == repr(ref.arcs)
            assert repr(sorted(out.finals.items())) == repr(sorted(ref.finals.items()))
            for result, result_order in ((out, order), (ref, ref_order)):
                assert_topological(result, result_order)

    def test_rejects_epsilon_input(self):
        w = Wfsa()
        w.add_arc(0, EPS, 0.0, 1)
        w.set_final(1)
        with pytest.raises(EpsilonArcError):
            determinize(w)

    def test_rejects_cyclic_input(self):
        w = Wfsa()
        w.add_arc(0, A, 0.0, 1)
        w.add_arc(1, B, 0.0, 0)
        w.set_final(1)
        with pytest.raises(CyclicLatticeError):
            determinize(w)

    def test_random_lattices_min_cost_preserved_and_unique_paths(self):
        rng = random.Random(23)
        for _ in range(40):
            w = random_acyclic_wfsa(rng, max_states=30)
            out = determinize(w)
            assert out.is_deterministic()
            want = string_costs(w)
            paths = enumerate_paths(out)
            strings = [s for s, _ in paths]
            assert len(strings) == len(set(strings))
            got = dict(paths)
            assert set(got) == set(want)
            for s, cost in want.items():
                assert got[s] == pytest.approx(cost, abs=1e-9)

    def test_subset_construction_reports_topological_order(self):
        rng = random.Random(29)
        for _ in range(40):
            w = random_acyclic_wfsa(rng, max_states=30)
            out, order = _subsets(w, topological_order(w))
            assert_topological(out, order)
            assert repr(out.arcs) == repr(determinize(w).arcs)

    def test_empty_input_gives_empty_automaton(self):
        for tag in (semiring.TROPICAL, semiring.LOG):
            for op in (rm_epsilon, determinize):
                out = op(Wfsa(tag))
                assert (out.num_states, out.finals, out.semiring) == (0, {}, tag)


class TestMinimize:
    def test_isomorphic_suffixes_merge(self):
        w = Wfsa()
        w.add_arc(0, A, 0.1, 1)
        w.add_arc(0, B, 0.2, 2)
        w.add_arc(1, C, 0.3, 3)
        w.add_arc(2, C, 0.3, 4)
        w.add_arc(3, D, 0.4, 5)
        w.add_arc(4, D, 0.4, 6)
        w.set_final(5)
        w.set_final(6)
        out = minimize(w)
        assert out.num_states == 4
        assert string_costs(out) == pytest.approx(string_costs(w))

    def test_chain_is_fixed_point(self):
        w = chain([0.3, 0.4, 0.5])
        out = minimize(w)
        assert out.num_states == w.num_states
        assert string_costs(out) == pytest.approx(string_costs(w))

    def test_rejects_nondeterministic_input(self):
        w = Wfsa()
        w.add_arc(0, A, 0.1, 1)
        w.add_arc(0, A, 0.2, 2)
        w.set_final(1)
        w.set_final(2)
        with pytest.raises(NotDeterministicError):
            minimize(w)

    def test_weight_distribution_does_not_block_merging(self):
        # same suffix language, weights split differently across arcs;
        # pushing makes the residuals line up so the states still merge
        w = Wfsa()
        w.add_arc(0, A, 0.0, 1)
        w.add_arc(0, B, 0.0, 2)
        w.add_arc(1, C, 1.0, 3)
        w.add_arc(2, C, 0.0, 4)
        w.set_final(3, 0.5)
        w.set_final(4, 1.5)
        out = minimize(w)
        assert out.num_states == 3
        assert string_costs(out) == pytest.approx(string_costs(w))

    def test_random_lattices_language_preserved(self):
        rng = random.Random(29)
        for _ in range(40):
            w = determinize(random_acyclic_wfsa(rng, max_states=25))
            out = minimize(w)
            assert out.num_states <= w.num_states
            assert out.is_deterministic()
            got = string_costs(out)
            want = string_costs(w)
            assert set(got) == set(want)
            for s, cost in want.items():
                assert got[s] == pytest.approx(cost, abs=1e-9)


class TestPushLog:
    def test_single_path_all_mass_moves_to_total(self):
        w = chain([0.3, 0.4])
        out, total = push_log(w)
        assert total == pytest.approx(0.7)
        for _, arc in out.iter_arcs():
            assert arc.weight == pytest.approx(0.0, abs=1e-12)
        assert check_stochastic(out)

    def test_worked_two_path_example(self):
        out, total = push_log(l1())
        z = math.exp(-0.7) + math.exp(-1.6)
        assert total == pytest.approx(-math.log(z), abs=1e-12)

        by_label = {arc.label: arc.weight for _, arc in out.iter_arcs()}
        p_b = math.exp(-0.7) / z
        assert p_b == pytest.approx(0.711, abs=5e-4)
        assert by_label[A] == pytest.approx(0.0, abs=1e-12)
        assert by_label[B] == pytest.approx(-math.log(p_b), abs=1e-12)
        assert by_label[B] == pytest.approx(0.3412, abs=1e-4)
        assert by_label[C] == pytest.approx(-math.log(1.0 - p_b), abs=1e-12)
        assert by_label[C] == pytest.approx(1.2412, abs=1e-4)
        assert total == pytest.approx(0.3589, abs=1e-4)

    def test_output_is_stochastic_and_input_was_not(self):
        w = l1()
        assert not check_stochastic(w)
        out, _ = push_log(w)
        assert check_stochastic(out)

    def test_idempotent(self):
        out, _ = push_log(l1())
        again, total = push_log(out)
        assert total == pytest.approx(0.0, abs=1e-9)
        original = {(s, a.label, a.dst): a.weight for s, a in out.iter_arcs()}
        for s, a in again.iter_arcs():
            assert a.weight == pytest.approx(original[(s, a.label, a.dst)],
                                             abs=1e-9)

    def test_pushed_mass_sums_to_one(self):
        rng = random.Random(31)
        for _ in range(25):
            w = random_acyclic_wfsa(rng, max_states=20)
            out, _ = push_log(w)
            mass = sum(math.exp(-cost) for _, cost in enumerate_paths(out))
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_relative_costs_preserved(self):
        rng = random.Random(37)
        for _ in range(25):
            w = determinize(random_acyclic_wfsa(rng, max_states=15))
            before = dict(enumerate_paths(w))
            out, _ = push_log(w)
            after = dict(enumerate_paths(out))
            strings = sorted(before)
            for s, t in zip(strings, strings[1:]):
                assert (before[s] - before[t]) == pytest.approx(
                    after[s] - after[t], abs=1e-9)

    def test_rejects_non_coaccessible_state(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(0, B, 0.5, 2)
        w.set_final(1)
        with pytest.raises(NotCoaccessibleError):
            push_log(w)

    def test_output_tagged_log(self):
        out, _ = push_log(l1())
        assert out.semiring == semiring.LOG


class TestCheckStochastic:
    def test_single_final_state(self):
        w = Wfsa()
        w.ensure_state(0)
        w.set_final(0)
        assert check_stochastic(w)

    def test_l1_state_mass(self):
        # state 1 holds e^-0.7 + e^-1.6 of mass, short of 1
        mass = math.exp(-0.7) + math.exp(-1.6)
        assert mass == pytest.approx(0.6985, abs=1e-4)
        assert not check_stochastic(l1())

    def test_tolerance_is_respected(self):
        w = Wfsa()
        w.add_arc(0, A, 1e-7, 1)
        w.set_final(1)
        assert check_stochastic(w, tol=1e-6)
        assert not check_stochastic(w, tol=1e-9)


class TestPathEnumeration:
    def test_l1_paths(self):
        assert dict(enumerate_paths(l1())) == {(A, B): 0.7, (A, C): 1.6}

    def test_empty_language(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.set_final(1)
        w.finals.clear()
        assert enumerate_paths(w) == []

    def test_final_start_state_yields_empty_string(self):
        w = Wfsa()
        w.ensure_state(0)
        w.set_final(0, 0.25)
        assert enumerate_paths(w) == [((), 0.25)]

    def test_cap_enforced(self):
        w = Wfsa()
        for i in range(25):
            w.add_arc(i, A, 0.0, i + 1)
            w.add_arc(i, B, 0.0, i + 1)
        w.set_final(25)
        with pytest.raises(PathCountError):
            enumerate_paths(w, cap=1000)

    def test_count_paths_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(20):
            w = random_acyclic_wfsa(rng, max_states=15)
            assert count_paths(w) == len(enumerate_paths(w))

    def test_aggregate_strings_tropical_vs_log(self):
        paths = [((A,), 0.5), ((A,), 0.9), ((B,), 1.0)]
        trop = aggregate_strings(paths, semiring.TROPICAL)
        assert trop[(A,)] == 0.5
        pooled = aggregate_strings(paths, semiring.LOG)
        assert pooled[(A,)] == pytest.approx(
            -math.log(math.exp(-0.5) + math.exp(-0.9)), abs=1e-12)
        assert pooled[(B,)] == 1.0


class TestNShortestStrings:
    def test_l1_two_best(self):
        out = n_shortest_strings(determinize(l1()), 2)
        assert out[0] == ((A, B), pytest.approx(0.7))
        assert out[1] == ((A, C), pytest.approx(1.6))

    def test_n_one_is_shortest_path(self):
        rng = random.Random(43)
        for _ in range(20):
            w = determinize(random_acyclic_wfsa(rng, max_states=15))
            [(tokens, cost)] = n_shortest_strings(w, 1)
            want = min(string_costs(w).items(), key=lambda kv: (kv[1], kv[0]))
            assert cost == pytest.approx(want[1], abs=1e-9)
            assert tokens == want[0]

    def test_n_larger_than_language(self):
        out = n_shortest_strings(determinize(l1()), 100)
        assert len(out) == 2

    def test_ascending_with_lexicographic_ties(self):
        w = Wfsa()
        w.add_arc(0, B, 0.5, 1)
        w.add_arc(0, A, 0.5, 2)
        w.add_arc(0, C, 0.1, 3)
        for q in (1, 2, 3):
            w.set_final(q)
        out = n_shortest_strings(w, 3)
        assert [s for s, _ in out] == [(C,), (A,), (B,)]

    def test_rejects_nondeterministic_input(self):
        w = Wfsa()
        w.add_arc(0, A, 0.1, 1)
        w.add_arc(0, A, 0.2, 2)
        w.set_final(1)
        w.set_final(2)
        with pytest.raises(NotDeterministicError):
            n_shortest_strings(w, 1)

    def test_matches_enumeration_order(self):
        rng = random.Random(47)
        for _ in range(20):
            w = determinize(random_acyclic_wfsa(rng, max_states=18))
            want = sorted(string_costs(w).items(),
                          key=lambda kv: (kv[1], kv[0]))[:10]
            got = n_shortest_strings(w, 10)
            assert [s for s, _ in got] == [s for s, _ in want]


class TestEquivalence:
    def test_determinize_is_equivalent(self):
        w = l1()
        assert equivalent_acyclic(w, determinize(w))

    def test_detects_changed_weight(self):
        other = Wfsa()
        other.add_arc(0, A, 0.0, 1)
        other.add_arc(1, B, 0.7, 2)
        other.add_arc(1, C, 1.7, 3)
        other.set_final(2)
        other.set_final(3)
        assert not equivalent_acyclic(l1(), other)

    def test_full_tropical_pipeline_is_equivalent(self):
        rng = random.Random(53)
        for _ in range(30):
            w = random_acyclic_wfsa(rng, max_states=25, eps_fraction=0.2)
            out = minimize(determinize(rm_epsilon(w)))
            assert equivalent_acyclic(w, out, tol=1e-9)

