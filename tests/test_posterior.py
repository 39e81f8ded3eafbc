"""PosteriorLattice: the pushed lattice as a conditional token distribution."""

import hashlib
import logging
import math
import random

import pytest

from latbeam import ops, posterior, semiring, wfsa
from latbeam.errors import (
    CyclicLatticeError,
    EmptyLatticeError,
    NotDeterministicError,
    NotStochasticError,
    SemiringError,
)
from latbeam.ops import determinize, enumerate_paths, minimize, push_log, rm_epsilon
from latbeam.posterior import REJECT, STAGES, PosteriorLattice, prepare
from latbeam.synth import build_demo, random_acyclic_wfsa, sausage_lattice
from latbeam.wfsa import EPS, SymbolTable, Wfsa, serialize_wfsa, topological_order

A, B, C, Z = 1, 2, 3, 9


def l1() -> Wfsa:
    w = Wfsa()
    w.add_arc(0, A, 0.0, 1)
    w.add_arc(1, B, 0.7, 2)
    w.add_arc(1, C, 1.6, 3)
    w.set_final(2)
    w.set_final(3)
    return w


@pytest.fixture
def pl1():
    return prepare(l1())


P_B = math.exp(-0.7) / (math.exp(-0.7) + math.exp(-1.6))


class TestPrepare:
    def test_l1_conditionals(self, pl1):
        state = pl1.walk((A,))
        assert pl1.final_logprob(state) == -math.inf
        by_token = {label: -weight for label, weight, _ in pl1.successors(state)}
        assert set(by_token) == {B, C}
        assert by_token[B] == pytest.approx(math.log(P_B), abs=1e-12)
        assert by_token[C] == pytest.approx(math.log(1.0 - P_B), abs=1e-12)

    def test_l1_total_mass(self, pl1):
        z = math.exp(-0.7) + math.exp(-1.6)
        assert pl1.raw_total == pytest.approx(-math.log(z), abs=1e-12)

    def test_single_path_probability_one(self):
        w = Wfsa()
        w.add_arc(0, A, 0.3, 1)
        w.add_arc(1, B, 0.4, 2)
        w.set_final(2)
        lat = prepare(w)
        for state in range(lat.num_states):
            for arc in lat.successors(state):
                assert -arc.weight == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_paths_pool_mass(self):
        # two distinct paths spelling the same string: the prepared
        # lattice carries their combined probability
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(0, A, 0.9, 2)
        w.add_arc(1, B, 0.1, 3)
        w.add_arc(2, B, 0.1, 3)
        w.add_arc(0, C, 0.2, 4)
        w.set_final(3)
        w.set_final(4)
        lat = prepare(w)
        mass_ab = math.exp(-0.6) + math.exp(-1.0)
        z = mass_ab + math.exp(-0.2)
        assert math.exp(lat.accepted_logprob((A, B))) == pytest.approx(
            mass_ab / z, abs=1e-12)

    def test_epsilon_arcs_removed(self):
        from latbeam.wfsa import EPS
        w = Wfsa()
        w.add_arc(0, EPS, 0.2, 1)
        w.add_arc(1, A, 0.5, 2)
        w.set_final(2)
        lat = prepare(w)
        assert lat.vocabulary == {A}
        assert lat.accepted_logprob((A,)) == pytest.approx(0.0, abs=1e-12)

    def test_discarded_total_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="latbeam.posterior"):
            prepare(l1())
        assert any("discarded total" in rec.message for rec in caplog.records)

    def test_stages_dict_accumulates(self):
        stages = {}
        lat = prepare(l1(), stages=stages)
        assert list(stages) == list(STAGES) == [
            "determinization", "minimization", "pushing"]
        assert all(seconds >= 0.0 for seconds in stages.values())
        first = dict(stages)
        again = prepare(l1(), stages=stages)
        for name in STAGES:
            assert stages[name] >= first[name]
            assert stages[name] > 0.0
        assert lat.raw_total == again.raw_total == pytest.approx(0.3589, abs=1e-4)

    def test_same_bytes_as_composed_ops(self):
        # the pipeline is exactly push_log(minimize(determinize(rm_epsilon())))
        # on the log-retagged input; callers that time the stages one by
        # one rely on getting the same automaton and total
        symbols = SymbolTable()
        for i in range(1, 9):
            symbols.add(f"w{i}")
        rng = random.Random(71)
        for _ in range(40):
            raw = random_acyclic_wfsa(rng, max_states=25, eps_fraction=0.2)
            lat = prepare(raw)
            pushed, total = push_log(minimize(determinize(rm_epsilon(
                raw.retagged(semiring.LOG)))))
            assert serialize_wfsa(lat.inner, symbols) == serialize_wfsa(pushed, symbols)
            assert lat.inner.arcs == pushed.arcs
            assert lat.inner.finals == pushed.finals
            assert lat.raw_total == total

    def test_rejects_lattice_with_no_finals(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        with pytest.raises(EmptyLatticeError):
            prepare(w)
        # a final state the start cannot reach leaves nothing accepted
        w.add_arc(2, B, 0.5, 3)
        w.set_final(3)
        with pytest.raises(EmptyLatticeError, match="accepts nothing"):
            prepare(w)

    def test_rejects_cyclic_lattice(self):
        w = Wfsa()
        w.add_arc(0, A, 0.5, 1)
        w.add_arc(1, B, 0.5, 0)
        w.set_final(1)
        with pytest.raises(CyclicLatticeError):
            prepare(w)


def _two_arc_lattice(n_states: int, rng: random.Random) -> Wfsa:
    # the lattice of acceptance criterion 12: two arcs per position
    w = Wfsa(semiring.TROPICAL)
    w.ensure_state(n_states - 1)
    for q in range(n_states - 1):
        w.add_arc(q, rng.randint(1, 20), rng.uniform(0.0, 2.0), q + 1)
        w.add_arc(q, rng.randint(1, 20), rng.uniform(0.0, 2.0), q + 1)
    w.set_final(n_states - 1, 0.0)
    return w


def _numbered(n: int) -> SymbolTable:
    return SymbolTable.from_tokens(f"t{i:02d}" for i in range(1, n + 1))


def _golden_inputs(name):
    if name == "demo":
        demo = build_demo(seed=13, n_sentences=50)
        return demo.lattices, demo.symbols
    if name == "sausage":
        return [sausage_lattice(2000, seed=13)], _numbered(40)
    return [_two_arc_lattice(1000, random.Random(14))], _numbered(20)


class TestPinnedBytes:
    """prepare() output pinned by digest, so a rewrite inside ops that
    moves a single float in the last place fails here."""

    @pytest.mark.parametrize("name, digest", [
        # epsilons, skip arcs and detours
        ("demo", "12012b080a43b3093988a612686c38db92b4a2803f96dc5ec084c0234ef0bfcc"),
        ("sausage", "0dcc1255cf38fcfb7b02dd3864d4be5868c0c3cfca0525ecadcd1678f49bb0ce"),
        ("two_arc", "5560e280a6758a19ffb6edb70ea832c9db1beef10e0a8e1fdcaf336a8d24d53d"),
    ], ids=["demo", "sausage", "two_arc"])
    def test_prepare_bytes_unchanged(self, name, digest):
        raws, symbols = _golden_inputs(name)
        h = hashlib.sha256()
        for raw in raws:
            lat = prepare(raw)
            h.update(serialize_wfsa(lat.inner, symbols).encode())
            h.update(f"{lat.raw_total!r}\n".encode())
        assert h.hexdigest() == digest


class TestValidateOnce:
    @pytest.mark.parametrize("raw", [
        lambda: sausage_lattice(2000, seed=13),
        lambda: _two_arc_lattice(10_000, random.Random(443)),  # criterion 12's
        # needs the subset construction, which reports its own order
        lambda: build_demo(seed=13, n_sentences=1).lattices[0],
    ], ids=["sausage", "acceptance_12", "demo_subsets"])
    def test_at_most_two_topological_orders(self, monkeypatch, raw):
        # one after epsilon removal, one in the PosteriorLattice check
        calls = []

        def counting(w):
            calls.append(w.num_states)
            return topological_order(w)

        for module in (wfsa, ops, posterior):
            monkeypatch.setattr(module, "topological_order", counting)
        lattice = prepare(raw())
        assert len(calls) <= 2
        assert lattice.num_states == calls[-1]


class TestValidation:
    def test_accepts_pushed_lattice(self):
        pushed, _ = push_log(l1())
        lat = PosteriorLattice(pushed)
        assert lat.num_states == pushed.num_states

    def test_rejects_tropical_tag(self):
        with pytest.raises(SemiringError):
            PosteriorLattice(l1())

    def test_rejects_unpushed_weights(self):
        w = l1().retagged(semiring.LOG)
        with pytest.raises(NotStochasticError):
            PosteriorLattice(w)

    def test_rejects_nondeterministic(self):
        w = Wfsa(semiring.LOG)
        half = -math.log(0.5)
        w.add_arc(0, A, half, 1)
        w.add_arc(0, A, half, 2)
        w.set_final(1)
        w.set_final(2)
        with pytest.raises(NotDeterministicError):
            PosteriorLattice(w)

    def test_rejects_empty(self):
        with pytest.raises(EmptyLatticeError):
            PosteriorLattice(Wfsa(semiring.LOG))

    def test_cycle_reported_before_nondeterminism(self):
        w = Wfsa(semiring.LOG)
        half = -math.log(0.5)
        w.add_arc(0, A, half, 1)
        w.add_arc(0, A, half, 1)
        w.add_arc(1, B, 0.0, 0)
        w.set_final(1)
        with pytest.raises(CyclicLatticeError):
            PosteriorLattice(w)

    def test_nondeterminism_reported_before_mass(self):
        w = Wfsa(semiring.LOG)
        w.add_arc(0, A, 3.0, 1)
        w.add_arc(0, A, 4.0, 2)
        w.set_final(1)
        w.set_final(2)
        with pytest.raises(NotDeterministicError):
            PosteriorLattice(w)

    def test_rejects_epsilon_arc(self):
        # stochastic and single-labelled, but the label is epsilon
        w = Wfsa(semiring.LOG)
        w.add_arc(0, EPS, 0.0, 1)
        w.set_final(1)
        with pytest.raises(NotDeterministicError):
            PosteriorLattice(w)

    def test_unreachable_state_need_not_be_stochastic(self):
        w = Wfsa(semiring.LOG)
        w.add_arc(0, A, 0.0, 1)
        w.add_arc(2, B, 5.0, 1)   # state 2: unreachable, mass far from 1
        w.set_final(1)
        lat = PosteriorLattice(w)
        assert lat.walk((A,)) == 1
        assert lat.depth == 1

    def test_depth_matches_enumeration(self):
        rng = random.Random(83)
        for _ in range(30):
            lat = prepare(random_acyclic_wfsa(rng, max_states=15, eps_fraction=0.1))
            longest = max(len(tokens) for tokens, _ in enumerate_paths(lat.inner))
            assert lat.depth == longest


class TestQueries:
    def test_empty_prefix_logprob_zero(self, pl1):
        assert pl1.prefix_logprob(()) == 0.0

    def test_prefix_logprob_accumulates(self, pl1):
        assert pl1.prefix_logprob((A, B)) == pytest.approx(math.log(P_B),
                                                           abs=1e-12)

    def test_off_lattice_prefix_rejects(self, pl1):
        assert pl1.prefix_logprob((A, Z)) is REJECT
        assert pl1.prefix_logprob((Z,)) is REJECT

    def test_reject_is_not_a_float(self, pl1):
        got = pl1.prefix_logprob((A, Z))
        assert got is REJECT
        assert not isinstance(got, float)
        assert repr(got) == "REJECT"

    def test_accepted_logprob_includes_stop_mass(self, pl1):
        assert pl1.accepted_logprob((A, B)) == pytest.approx(math.log(P_B),
                                                             abs=1e-12)
        # stopping mid-lattice is not accepting
        assert pl1.accepted_logprob((A,)) is REJECT

    def test_walk_returns_none_off_lattice(self, pl1):
        assert pl1.walk((A, Z)) is None
        assert pl1.walk(()) == pl1.start

    def test_arc_for_token_lookup(self, pl1):
        state = pl1.walk((A,))
        arc = pl1.arc_for(state, B)
        assert arc.label == B
        assert any(arc is own for own in pl1.inner.arcs[state])
        assert pl1.arc_for(state, Z) is None

    def test_successors_sorted_by_token(self):
        rng = random.Random(61)
        for _ in range(10):
            lat = prepare(random_acyclic_wfsa(rng, max_states=20))
            for state in range(lat.num_states):
                labels = [arc.label for arc in lat.successors(state)]
                assert labels == sorted(labels)

    def test_final_state_all_mass_on_stopping(self, pl1):
        state = pl1.walk((A, B))
        assert pl1.successors(state) == ()
        assert pl1.final_logprob(state) == pytest.approx(0.0, abs=1e-12)

    def test_successors_are_the_automatons_own_arcs(self):
        rng = random.Random(89)
        lats = [prepare(random_acyclic_wfsa(rng, max_states=20)) for _ in range(10)]
        lats += [prepare(w) for w in build_demo(seed=13, n_sentences=50).lattices]
        for lat in lats:
            for state in range(lat.num_states):
                row = lat.successors(state)
                own = {id(arc) for arc in lat.inner.arcs[state]}
                assert len(row) == len(own)
                assert all(id(arc) in own for arc in row)
                assert all(a.label < b.label for a, b in zip(row, row[1:]))

    def test_construction_leaves_inner_arcs_unsorted(self):
        w = Wfsa(semiring.LOG)
        w.add_arc(0, C, -math.log(0.5), 1)
        w.add_arc(0, A, -math.log(0.3), 1)
        w.add_arc(0, B, -math.log(0.2), 1)
        w.set_final(1)
        row = w.arcs[0]
        before = list(row)
        lat = PosteriorLattice(w)
        assert w.arcs[0] is row
        assert [arc.label for arc in row] == [C, A, B]
        assert all(x is y for x, y in zip(row, before))
        got = lat.successors(0)
        assert [arc.label for arc in got] == [A, B, C]
        assert all(x is y for x, y in zip(got, sorted(before)))

    def test_depth_is_longest_path(self, pl1):
        assert pl1.depth == 2


class TestDistributionInvariants:
    def test_per_state_mass_sums_to_one(self):
        rng = random.Random(67)
        for _ in range(25):
            lat = prepare(random_acyclic_wfsa(rng, max_states=25,
                                              eps_fraction=0.15))
            for state in range(lat.num_states):
                mass = sum(math.exp(-arc.weight) for arc in lat.successors(state))
                if lat.final_logprob(state) != -math.inf:
                    mass += math.exp(lat.final_logprob(state))
                assert mass == pytest.approx(1.0, abs=1e-6)

    def test_conditional_probabilities_in_unit_interval(self):
        rng = random.Random(71)
        for _ in range(10):
            lat = prepare(random_acyclic_wfsa(rng, max_states=20))
            for state in range(lat.num_states):
                for arc in lat.successors(state):
                    p = math.exp(-arc.weight)
                    assert 0.0 < p <= 1.0 + 1e-12

    def test_product_identity_against_enumeration(self):
        # walking the prepared lattice recovers each string's share of
        # the raw lattice's total mass
        rng = random.Random(73)
        for _ in range(20):
            raw = random_acyclic_wfsa(rng, max_states=18, eps_fraction=0.1)
            lat = prepare(raw)
            raw_strings = {}
            for tokens, cost in enumerate_paths(raw):
                string = tuple(t for t in tokens if t != 0)
                prev = raw_strings.get(string)
                mass = math.exp(-cost)
                raw_strings[string] = mass if prev is None else prev + mass
            z = sum(raw_strings.values())
            for string, mass in raw_strings.items():
                got = math.exp(lat.accepted_logprob(string))
                assert got == pytest.approx(mass / z, rel=1e-9)

    def test_probability_conservation(self):
        rng = random.Random(79)
        for _ in range(20):
            lat = prepare(random_acyclic_wfsa(rng, max_states=18))
            total = sum(math.exp(-cost)
                        for _, cost in enumerate_paths(lat.inner))
            assert total == pytest.approx(1.0, abs=1e-9)
