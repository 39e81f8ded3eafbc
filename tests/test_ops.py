"""Automata operations: epsilon removal, determinization, minimization,
pushing, and the path-enumeration oracles they are checked against."""

import math
import random
import tracemalloc

import pytest

import oracles
from generators import iter_arcs, random_acyclic_wfsa, symbols_from_tokens
from oracles import (
    PathCountError,
    aggregate_strings,
    count_paths,
    enumerate_paths,
    equivalent_acyclic,
)

from latbeam import ops, semiring
from latbeam.errors import (
    CyclicLatticeError,
    EpsilonArcError,
    EpsilonCycleError,
    NotCoaccessibleError,
    NotDeterministicError,
)
from latbeam.ops import (
    _subsets,
    check_stochastic,
    connect,
    determinize,
    minimize,
    n_shortest_strings,
    push_log,
    rm_epsilon,
)
from latbeam.posterior import prepare
from latbeam.synth import build_demo, sausage_lattice
from latbeam.semiring import INF
from latbeam.wfsa import EPS, Arc, Wfsa, serialize_wfsa, topological_order

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


def dropped_cycles() -> Wfsa:
    """A live cycle 2 -> 4 -> 2 on the way from 0 to the final state 6,
    an unreachable cycle 1 <-> 5 into 6 and a dead cycle 3 <-> 7 off 2."""
    w = Wfsa()
    w.add_arc(0, A, 0.1, 2)
    w.add_arc(2, B, 0.2, 4)
    w.add_arc(4, C, 0.3, 2)
    w.add_arc(4, D, 0.4, 6)
    w.set_final(6, 0.5)
    w.add_arc(1, A, 0.1, 5)
    w.add_arc(5, B, 0.1, 1)
    w.add_arc(5, C, 0.1, 6)
    w.add_arc(2, C, 0.1, 3)
    w.add_arc(3, A, 0.1, 7)
    w.add_arc(7, B, 0.1, 3)
    return w


class TestConnect:
    @pytest.mark.parametrize("op", [connect, rm_epsilon])
    def test_keeps_live_cycle_and_drops_dead_and_unreachable_ones(self, op):
        # states 0, 2, 4 and 6 survive as 0, 1, 2 and 3
        out = op(dropped_cycles())
        assert out.start == 0
        assert out.arcs == [[Arc(A, 0.1, 1)], [Arc(B, 0.2, 2)],
                            [Arc(C, 0.3, 1), Arc(D, 0.4, 3)], []]
        assert out.finals == {3: 0.5}

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
        [(src, arc)] = list(iter_arcs(out))
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

    def test_trims_dead_and_unreachable_states(self):
        w = Wfsa()
        w.add_arc(0, A, 0.1, 1)
        w.add_arc(1, B, 0.2, 2)
        w.set_final(2)
        w.add_arc(0, B, 0.3, 3)     # a dead end
        w.add_arc(4, A, 0.4, 2)     # unreachable
        out = minimize(w)
        want = minimize(connect(w))
        assert (out.arcs, out.finals) == (want.arcs, want.finals)
        assert out.num_states == 3
        assert string_costs(out) == pytest.approx(string_costs(w))
        # nothing accepted: the start state alone, never the input itself
        w = Wfsa()
        w.add_arc(0, A, 0.1, 1)
        w.add_arc(2, B, 0.1, 3)
        w.set_final(3)
        out = minimize(w)
        assert out is not w
        assert (out.num_states, out.arcs, out.finals) == (1, [[]], {})

    @pytest.mark.parametrize("states", ["dead", "unreachable"])
    def test_rejects_cycle_among_states_the_trim_drops(self, states):
        w = l1()
        if states == "dead":
            w.add_arc(1, D, 0.1, 4)
        w.add_arc(4, A, 0.1, 5)
        w.add_arc(5, B, 0.1, 4)
        with pytest.raises(CyclicLatticeError):
            minimize(w)

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


class TestMinimizeConsumes:
    def test_every_input_row_is_emptied(self):
        # states 1 and 2, 3 and 4, 5 and 6 merge: the rows of the states
        # the result is not built from are emptied too
        w = Wfsa()
        w.add_arc(0, A, 0.1, 1)
        w.add_arc(0, B, 0.2, 2)
        w.add_arc(1, C, 0.3, 3)
        w.add_arc(2, C, 0.3, 4)
        w.add_arc(3, D, 0.4, 5)
        w.add_arc(4, D, 0.4, 6)
        w.set_final(5)
        w.set_final(6)
        want = minimize(w)
        out, order = ops._minimize(w, topological_order(w))
        assert all(row == () for row in w.arcs)
        assert (out.arcs, out.finals) == (want.arcs, want.finals)
        assert_topological(out, order)

    def test_traced_peak_stays_under_half_its_input(self):
        # inside prepare: the input is all that is alive. With one
        # signature kept per class and each row emptied once its
        # signature is built, minimize peaks at 0.13 times its input
        # above it (CPython 3.11); keeping the signature table and the
        # input rows until the result was rebuilt took 0.64 times
        tracemalloc.start()
        try:
            work = ops.rm_epsilon(sausage_lattice(4000, seed=13).retagged(semiring.LOG))
            order = topological_order(work)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out, _ = ops._minimize(work, order)
            peak = tracemalloc.get_traced_memory()[1] - size
        finally:
            tracemalloc.stop()
        assert out.num_states == work.num_states
        assert all(row == () for row in work.arcs)
        assert peak < 0.5 * size


class TestPushLog:
    def test_single_path_all_mass_moves_to_total(self):
        w = chain([0.3, 0.4])
        out, total = push_log(w)
        assert total == pytest.approx(0.7)
        for _, arc in iter_arcs(out):
            assert arc.weight == pytest.approx(0.0, abs=1e-12)
        assert check_stochastic(out)

    def test_worked_two_path_example(self):
        out, total = push_log(l1())
        z = math.exp(-0.7) + math.exp(-1.6)
        assert total == pytest.approx(-math.log(z), abs=1e-12)

        by_label = {arc.label: arc.weight for _, arc in iter_arcs(out)}
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
        original = {(s, a.label, a.dst): a.weight for s, a in iter_arcs(out)}
        for s, a in iter_arcs(again):
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

    def test_ignores_unreachable_states(self):
        w = Wfsa()
        w.add_arc(0, A, 0.0, 1)
        w.set_final(1)
        w.add_arc(2, A, 5.0, 1)     # unreachable, with mass e^-5
        assert check_stochastic(w)
        w.start = 2
        assert not check_stochastic(w)

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


def tie_heavy_dfa(rng: random.Random) -> Wfsa:
    """A deterministic acyclic acceptor of 2-12 states, labels 1-4 and
    weights from {0, 0.5, 1}, so that many strings cost the same."""
    n = rng.randint(2, 12)
    w = Wfsa()
    w.ensure_state(n - 1)
    for q in range(n - 1):
        for label in rng.sample(range(1, 5), rng.randint(1, 4)):
            w.add_arc(q, label, rng.choice((0.0, 0.5, 1.0)), rng.randint(q + 1, n - 1))
    for q in range(n):
        if q == n - 1 or rng.random() < 0.4:
            w.set_final(q, rng.choice((0.0, 0.5, 1.0)))
    return w


def count_ties(strings) -> int:
    return sum(a[1] == b[1] for a, b in zip(strings, strings[1:]))


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

    def test_matches_oracle_on_tie_heavy_lattices(self):
        rng = random.Random(61)
        ties = 0
        for _ in range(300):
            w = tie_heavy_dfa(rng)
            for n in (1, 3, 10, 50):
                want = oracles.n_shortest_strings(w, n)
                assert n_shortest_strings(w, n) == want
                ties += count_ties(want)
        assert ties > 1000

    def test_search_on_posterior_order_matches_oracle(self):
        # nbest_from_posterior runs the search on the order the
        # PosteriorLattice computed; pushed uniform choices still tie
        rng = random.Random(67)
        ties = 0
        for _ in range(200):
            w = tie_heavy_dfa(rng)
            for q in range(w.num_states):
                w.arcs[q] = [Arc(label, 0.0, dst) for label, _, dst in w.arcs[q]]
            lat = prepare(w)
            for n in (1, 3, 10, 50):
                want = oracles.n_shortest_strings(lat.inner, n)
                assert ops._n_shortest(lat.inner, lat.order, n) == want
                ties += count_ties(want)
        assert ties > 1000


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



def snapshot(w: Wfsa):
    """start, finals and each row with a copy of its contents."""
    return w.start, dict(w.finals), [(row, list(row)) for row in w.arcs]


def assert_unchanged(w: Wfsa, snap) -> None:
    start, finals, rows = snap
    assert w.start == start
    assert w.finals == finals
    assert len(w.arcs) == len(rows)
    for row, (was, contents) in zip(w.arcs, rows):
        assert row is was
        assert row == contents


def with_dead_state() -> Wfsa:
    """l1 with an arc into state 4, which reaches no final state."""
    w = l1()
    w.add_arc(1, D, 0.5, 4)
    return w


class TestOwnership:
    """No public operation changes its argument: the cores that empty
    rows get a copy, and prepare's intermediates are its own."""

    def test_rm_epsilon(self):
        for w in (l1(), dropped_cycles(), random_acyclic_wfsa(random.Random(3), max_states=20, eps_fraction=0.3)):
            snap = snapshot(w)
            rm_epsilon(w)
            assert_unchanged(w, snap)

    def test_determinize_on_both_paths(self, monkeypatch):
        # deterministic input or not, determinize is the subset construction
        subsets = []
        monkeypatch.setattr(ops, "_subsets", lambda *a: subsets.append(1) or _subsets(*a))
        deterministic = l1()
        snap = snapshot(deterministic)
        determinize(deterministic)
        assert_unchanged(deterministic, snap)
        assert len(subsets) == 1
        nondeterministic = Wfsa()
        nondeterministic.add_arc(0, A, 0.5, 1)
        nondeterministic.add_arc(0, A, 0.9, 2)
        nondeterministic.add_arc(2, B, 0.1, 1)
        nondeterministic.set_final(1)
        snap = snapshot(nondeterministic)
        determinize(nondeterministic)
        assert_unchanged(nondeterministic, snap)
        assert len(subsets) == 2

    @pytest.mark.parametrize("make", [l1, with_dead_state])
    def test_minimize_whether_or_not_the_trim_drops_states(self, make):
        w = make()
        snap = snapshot(w)
        out = minimize(w)
        assert_unchanged(w, snap)
        assert out.num_states == 3

    def test_push_log_and_connect(self):
        for op in (push_log, connect):
            w = l1().retagged(semiring.LOG)
            snap = snapshot(w)
            op(w)
            assert_unchanged(w, snap)

    def test_prepare_on_a_raw_lattice_the_caller_keeps(self):
        rng = random.Random(11)
        for _ in range(10):
            raw = random_acyclic_wfsa(rng, max_states=15, eps_fraction=0.2)
            snap = snapshot(raw)
            prepare(raw)
            assert_unchanged(raw, snap)


class TestArcSharing:
    def test_unchanged_arcs_pass_through_as_they_are(self):
        w = Wfsa(semiring.LOG)
        w.add_arc(0, A, 0.0, 1)
        w.add_arc(0, B, 0.25, 2)
        w.add_arc(0, B, 0.5, 2)         # merges with the arc before it
        w.add_arc(0, EPS, 0.5, 3)       # 0 reaches 3's arc at a cost
        w.add_arc(3, C, 1.0, 2)
        w.add_arc(1, D, 0.75, 2)
        w.add_arc(1, C, 0.1, 3)
        w.set_final(2)
        out = rm_epsilon(w)
        assert out.arcs[0] == [Arc(A, 0.0, 1), Arc(B, semiring.log_add(0.25, 0.5), 2),
                               Arc(C, 1.5, 2)]
        assert out.arcs[0][0] is w.arcs[0][0]
        assert out.arcs[1] == sorted(w.arcs[1])
        assert all(mine is theirs for mine, theirs in zip(out.arcs[1], sorted(w.arcs[1])))
        assert out.arcs[3][0] is w.arcs[3][0]
        # BFS keeps every state's number, so determinize builds every
        # arc again
        assert determinize(out).arcs == out.arcs

    def test_trim_keeps_arcs_whose_dst_keeps_its_number(self):
        # the trim drops unreachable state 4 and renumbers no other state
        w = chain([0.5, 0.25, 1.0])
        w.add_arc(4, D, 0.1, 2)
        out = rm_epsilon(w)
        assert out.num_states == 4
        assert all(out.arcs[q][0] is w.arcs[q][0] for q in range(3))
        # dropping unreachable state 2 renumbers 3 and 4 and only the
        # arcs into them
        w = Wfsa(semiring.LOG)
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(1, B, 0.25, 3)
        w.add_arc(2, C, 0.1, 3)
        w.add_arc(3, D, 1.0, 4)
        w.set_final(4)
        out = rm_epsilon(w)
        assert out.arcs == [[Arc(A, 0.5, 1)], [Arc(B, 0.25, 2)], [Arc(D, 1.0, 3)], []]
        assert out.arcs[0][0] is w.arcs[0][0]

    @pytest.mark.parametrize("op", [rm_epsilon, determinize])
    def test_negative_zero_comes_out_as_positive_zero(self, op):
        # the stages add 0.0 to every weight, and 0.0 + -0.0 is 0.0
        w = chain([-0.0, 0.5])
        out = op(w)
        assert out.arcs[0] == [Arc(A, 0.0, 1)]
        assert math.copysign(1.0, out.arcs[0][0].weight) == 1.0
        assert out.arcs[1] == w.arcs[1]
        if op is rm_epsilon:
            assert out.arcs[1][0] is w.arcs[1][0]


def shares_no_row(a: Wfsa, b: Wfsa) -> bool:
    rows = {id(row) for row in b.arcs}
    return not any(id(row) in rows for row in a.arcs)


def renumbered_by_bfs() -> Wfsa:
    """0 -A-> 2 -B-> 1: BFS numbers state 2 as 1 and state 1 as 2."""
    w = Wfsa()
    w.add_arc(0, A, 0.5, 2)
    w.add_arc(2, B, 0.25, 1)
    w.set_final(1, 0.5)
    return w


def nonzero_start() -> Wfsa:
    w = Wfsa()
    w.add_arc(1, A, 0.5, 0)
    w.set_final(0, 0.5)
    w.start = 1
    return w


def inaccessible_state() -> Wfsa:
    w = chain([0.5, 0.25])
    w.add_arc(3, C, 0.1, 2)   # BFS from 0 never reaches state 3
    return w


def negative_zero_final() -> Wfsa:
    w = chain([0.5, 0.25])
    w.set_final(2, -0.0)
    return w


def two_dsts_against_arc_order() -> Wfsa:
    """State 0 sends A to 1 and to 2, the arc into 2 first and cheaper,
    so Arc order and (label, dst) order differ."""
    w = Wfsa(semiring.LOG)
    w.add_arc(0, A, 0.5, 2)
    w.add_arc(0, A, 1.0, 1)
    w.add_arc(1, B, 0.25, 2)
    w.set_final(2)
    return w


TWO_DSTS = semiring.log_add(1.0, 0.5)


class TestPassThrough:
    """What is only built again passes through: _rm_epsilon gives back a
    row that merging leaves as it is, and prepare hands a lattice that
    is deterministic after epsilon removal to minimize as it is. The
    public operations still share no row list with their argument."""

    def identity_numbered(self) -> Wfsa:
        w = rm_epsilon(sausage_lattice(50, seed=13))
        assert w.start == 0 and topological_order(w) == list(range(w.num_states))
        return w

    def test_prepare_runs_subsets_only_on_nondeterministic_lattices(self, monkeypatch):
        handed = {"_subsets": [], "_rm_epsilon": [], "_minimize": []}

        def recording(name, takes_input):
            core = getattr(ops, name)

            def record(w, *rest):
                out = core(w, *rest)
                handed[name].append(w if takes_input else out)
                return out
            monkeypatch.setattr(ops, name, record)

        recording("_subsets", True)
        recording("_rm_epsilon", False)
        recording("_minimize", True)
        lattices = build_demo(seed=13, n_sentences=50).lattices
        assert sum(not rm_epsilon(raw).is_deterministic() for raw in lattices) == 20
        for raw in lattices:
            prepare(raw)
        assert len(handed["_subsets"]) == 20
        assert all(not w.is_deterministic() for w in handed["_subsets"])
        for name in handed:
            handed[name].clear()
        prepare(sausage_lattice(2000, seed=13))
        assert handed["_subsets"] == []
        [epsilon_free], [minimized] = handed["_rm_epsilon"], handed["_minimize"]
        assert minimized is epsilon_free

    @pytest.mark.parametrize("op", [determinize, rm_epsilon])
    def test_public_operations_share_no_row_list(self, op):
        w = self.identity_numbered()
        snap = snapshot(w)
        out = op(w)
        assert out.arcs == w.arcs and out.finals == w.finals
        assert shares_no_row(out, w)
        for row in out.arcs:
            row.append(Arc(A, 0.5, 0))
        out.finals[0] = 1.0
        assert_unchanged(w, snap)

    def test_rm_epsilon_core_keeps_each_row_list_sorted_in_place(self):
        # every sausage row passes through, most of them out of label order
        w = sausage_lattice(200, seed=13)
        arcs_in = [list(row) for row in w.arcs]
        rows = list(w.arcs)
        out = ops._rm_epsilon(w)
        assert all(mine is theirs for mine, theirs in zip(out.arcs, rows))
        assert any(row != sorted(row) for row in arcs_in)
        for row, was in zip(out.arcs, arcs_in):
            assert row == sorted(was, key=lambda arc: (arc.label, arc.dst))
            assert all(any(arc is old for old in was) for arc in row)

    def test_rm_epsilon_orders_one_label_to_two_dsts_by_dst(self):
        w = two_dsts_against_arc_order()
        row = w.arcs[0]
        out = ops._rm_epsilon(w)
        assert out.arcs[0] is row
        assert out.arcs[0] == [Arc(A, 1.0, 1), Arc(A, 0.5, 2)]
        assert rm_epsilon(two_dsts_against_arc_order()).arcs == out.arcs

    def test_numbering_of_a_deterministic_lattice_does_not_reach_the_output(self):
        # the states of a sausage numbered against BFS order, rows shuffled
        # and the start not 0: no subset construction renumbers them first
        w = sausage_lattice(300, seed=29)
        rng = random.Random(5)
        renum = list(range(w.num_states))
        rng.shuffle(renum)
        shuffled = Wfsa(w.semiring)
        shuffled.ensure_state(w.num_states - 1)
        shuffled.start = renum[w.start]
        for q, row in enumerate(w.arcs):
            for label, weight, dst in rng.sample(row, len(row)):
                shuffled.add_arc(renum[q], label, weight, renum[dst])
        shuffled.finals = {renum[q]: f for q, f in w.finals.items()}
        assert shuffled.start != 0
        assert topological_order(shuffled) != list(range(shuffled.num_states))
        assert rm_epsilon(shuffled).is_deterministic()
        symbols = symbols_from_tokens(f"w{i}" for i in range(1, 41))
        a, b = prepare(w), prepare(shuffled)
        assert serialize_wfsa(a.inner, symbols) == serialize_wfsa(b.inner, symbols)
        assert repr(a.raw_total) == repr(b.raw_total)

    @pytest.mark.parametrize("make, arcs, finals", [
        (lambda: chain([-0.0, 0.5]), [[Arc(A, 0.0, 1)], [Arc(B, 0.5, 2)], []], {2: 0.0}),
        (negative_zero_final, [[Arc(A, 0.5, 1)], [Arc(B, 0.25, 2)], []], {2: 0.0}),
        (nonzero_start, [[Arc(A, 0.5, 1)], []], {1: 0.5}),
        (renumbered_by_bfs, [[Arc(A, 0.5, 1)], [Arc(B, 0.25, 2)], []], {2: 0.5}),
        (inaccessible_state, [[Arc(A, 0.5, 1)], [Arc(B, 0.25, 2)], []], {2: 0.0}),
        # A out of 0 pools 1.0 into 1 and 0.5 into 2
        (two_dsts_against_arc_order,
         [[Arc(A, TWO_DSTS, 1)], [Arc(B, 1.0 - TWO_DSTS + 0.25, 2)], []],
         {1: 0.5 - TWO_DSTS + 0.0, 2: 0.0}),
    ], ids=["negative_zero_arc", "negative_zero_final", "nonzero_start",
            "bfs_renumbers", "inaccessible_state", "two_dsts"])
    def test_determinize_rebuilds_what_it_changes(self, make, arcs, finals):
        w = make()
        out, order = _subsets(w, topological_order(w))
        assert shares_no_row(out, w)
        assert_topological(out, order)
        assert repr(out.arcs) == repr(arcs)
        assert repr(out.finals) == repr(finals)
        assert repr(determinize(w).arcs) == repr(out.arcs)

    @pytest.mark.parametrize("arcs, want", [
        ([(A, 0.5, 1), (A, 0.25, 1)], [Arc(A, semiring.log_add(0.5, 0.25), 1)]),
        ([(A, -0.0, 1)], [Arc(A, 0.0, 1)]),
        ([(B, 0.5, 1), (A, math.inf, 1)], [Arc(B, 0.5, 1)]),
    ], ids=["parallel", "negative_zero", "infinite"])
    def test_rm_epsilon_merges_what_it_changes(self, arcs, want):
        w = Wfsa(semiring.LOG)
        for label, weight, dst in arcs:
            w.add_arc(0, label, weight, dst)
        w.set_final(1)
        row = w.arcs[0]
        out = ops._rm_epsilon(w)
        assert out.arcs[0] is not row
        assert repr(out.arcs[0]) == repr(want)
