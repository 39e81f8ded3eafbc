"""Symbol tables, the lattice text format, and structural validation."""

import math
import random

import pytest

from latbeam import semiring, wfsa
from latbeam.errors import LatticeFormatError, UnknownSymbolError
from latbeam.posterior import PosteriorLattice, prepare
from latbeam.synth import build_demo
from latbeam.wfsa import (
    EPS,
    EPS_SYM,
    SymbolTable,
    Wfsa,
    format_symbols,
    parse_symbols,
    parse_wfsa,
    serialize_wfsa,
    topological_order,
    validate,
)

from generators import iter_arcs, random_acyclic_wfsa

FOUR_STATE = "0 1 a 0.0\n1 2 b 0.7\n1 3 c 1.6\n2\n3\n"


@pytest.fixture
def abc():
    table = SymbolTable()
    for sym in ("a", "b", "c"):
        table.add(sym)
    return table


class TestSymbolTable:
    def test_eps_reserved(self):
        table = SymbolTable()
        assert table.id_of(EPS_SYM) == EPS
        assert table.sym_of(EPS) == EPS_SYM

    def test_add_and_lookup(self, abc):
        assert abc.id_of("a") == 1
        assert abc.id_of("c") == 3
        assert abc.sym_of(2) == "b"
        assert "b" in abc
        assert "zzz" not in abc

    def test_add_is_idempotent(self, abc):
        assert abc.add("a") == 1
        assert len(abc) == 4

    def test_closed_table_rejects_new_symbols(self, abc):
        abc.close()
        with pytest.raises(UnknownSymbolError, match="zzz"):
            abc.id_of("zzz")

    def test_parse_format_round_trip(self, abc):
        text = format_symbols(abc)
        back = parse_symbols(text)
        assert back.closed
        for sym in ("a", "b", "c", EPS_SYM):
            assert back.id_of(sym) == abc.id_of(sym)

    def test_add_after_parse_takes_next_id_above_largest(self):
        table = parse_symbols("<eps> 0\nz 5\n")
        table.closed = False
        assert table.add("new") == 6
        assert table.add("newer") == 7

    def test_parse_requires_eps_zero(self):
        with pytest.raises(LatticeFormatError):
            parse_symbols("a 1\nb 2\n")

    def test_parse_rejects_duplicate_symbol(self):
        with pytest.raises(LatticeFormatError):
            parse_symbols("<eps> 0\na 1\na 2\n")

    def test_parse_rejects_duplicate_id(self):
        with pytest.raises(LatticeFormatError):
            parse_symbols("<eps> 0\na 1\nb 1\n")


class TestParseWfsa:
    def test_four_state_example(self, abc):
        w = parse_wfsa(FOUR_STATE, abc)
        assert w.num_states == 4
        assert w.num_arcs == 3
        assert w.start == 0
        assert w.finals == {2: 0.0, 3: 0.0}
        assert w.semiring == semiring.TROPICAL

    def test_first_record_sets_start(self, abc):
        w = parse_wfsa("3 1 a 0.5\n1 2 b 0.5\n2 0.0\n", abc)
        assert w.start == 3

    def test_final_line_without_weight_means_one(self, abc):
        w = parse_wfsa("0 1 a 1.0\n1\n", abc)
        assert w.final_weight(1) == 0.0

    def test_arc_without_weight_means_one(self, abc):
        w = parse_wfsa("0 1 a\n1 0.0\n", abc)
        assert w.arcs_from(0)[0].weight == 0.0

    def test_comments_and_blank_lines_skipped(self, abc):
        text = "# header\n\n0 1 a 0.5\n# middle\n1 0.25\n"
        w = parse_wfsa(text, abc)
        assert w.num_arcs == 1
        assert w.final_weight(1) == 0.25

    def test_error_carries_line_number(self, abc):
        with pytest.raises(LatticeFormatError, match="line 2"):
            parse_wfsa("0 1 a 0.5\n1 2 b 0.5 extra junk\n", abc)

    def test_unknown_symbol_rejected_when_closed(self, abc):
        abc.close()
        with pytest.raises(UnknownSymbolError, match="zzz"):
            parse_wfsa("0 1 zzz 0.5\n1\n", abc)

    def test_bad_weight_rejected(self, abc):
        for bad in ("nan", "-inf", "abc"):
            with pytest.raises(LatticeFormatError):
                parse_wfsa(f"0 1 a {bad}\n1\n", abc)

    def test_no_final_state_rejected(self, abc):
        with pytest.raises(LatticeFormatError, match="final"):
            parse_wfsa("0 1 a 0.5\n", abc)

    def test_empty_text_rejected(self, abc):
        with pytest.raises(LatticeFormatError):
            parse_wfsa("", abc)

    def test_negative_weights_allowed(self, abc):
        w = parse_wfsa("0 1 a -2.5\n1 -0.1\n", abc)
        assert w.arcs_from(0)[0].weight == -2.5
        assert w.final_weight(1) == -0.1

    def test_comment_mid_line_and_blank_lines(self, abc):
        text = ("\n0 1 a 0.5 # arc note\n#only a comment\n   \n"
                "1 2 b#glued\n\t\n2 0.25 # final\n")
        w = parse_wfsa(text, abc)
        assert [(a.label, a.weight, a.dst) for a in w.arcs_from(0)] == [(1, 0.5, 1)]
        assert [(a.label, a.weight, a.dst) for a in w.arcs_from(1)] == [(2, 0.0, 2)]
        assert w.finals == {2: 0.25}
        with pytest.raises(LatticeFormatError, match="line 3"):
            parse_wfsa("0 1 a 0.5\n# c\n1 2 b 0.5 x # c\n2\n", abc)

    def test_unknown_symbol_reports_its_line_when_closed(self, abc):
        abc.close()
        with pytest.raises(UnknownSymbolError, match=r"line 3: unknown symbol 'zzz'") as exc:
            parse_wfsa("0 1 a 0.5\n\n1 2 zzz 0.5\n2\n", abc)
        assert exc.value.line == 3

    def test_open_table_grows_while_parsing(self, abc):
        w = parse_wfsa("0 1 d 0.5\n1 2 a\n2 3 e 1.0\n3 4 d\n4\n", abc)
        assert abc.id_of("d") == 4 and abc.id_of("e") == 5
        assert [w.arcs_from(q)[0].label for q in range(4)] == [4, 1, 5, 4]
        assert len(abc) == 6 and not abc.closed

    def test_states_out_of_order_and_finals_first(self, abc):
        w = parse_wfsa("5 0.5\n2 5 a 1.0\n7\n0 2 b 0.5\n", abc)
        assert w.start == 5
        assert w.num_states == 8
        assert w.finals == {5: 0.5, 7: 0.0}
        assert [(a.label, a.dst) for a in w.arcs_from(2)] == [(1, 5)]
        assert [(a.label, a.dst) for a in w.arcs_from(0)] == [(2, 2)]
        assert all(not w.arcs_from(q) for q in (1, 3, 4, 5, 6, 7))


# every line end str.splitlines() knows of that the tests use, blank and
# comment lines, a line far longer than a small piece and no final newline
MIXED_ENDS = ("# a comment line\n0 1 a 0.5\r\n\n1 2 b 0.25\r2 3 c\x0b"
              "   # " + "x" * 50 + "\n3 4 a 1.0\x85\r\n4 5 b\u2028\n5 0.5\n"
              "2 0.125\r\n4")


def fields_of(w: Wfsa):
    return w.start, w.finals, w.arcs


class TestParsePieces:
    """parse_wfsa splits its text into pieces cut after a newline; the
    lines and their numbers must be those of the whole text."""

    @pytest.mark.parametrize("piece", [1, 2, 3, 5, 8, 13])
    def test_small_pieces_parse_as_the_default_size(self, abc, monkeypatch, piece):
        want = fields_of(parse_wfsa(MIXED_ENDS, abc))
        pieces_seen = []
        monkeypatch.setattr(wfsa, "_PIECE", piece)
        real = wfsa._pieces
        monkeypatch.setattr(wfsa, "_pieces",
                            lambda text: (pieces_seen.append(p) or p for p in real(text)))
        assert fields_of(parse_wfsa(MIXED_ENDS, abc)) == want
        assert len(pieces_seen) > 3
        assert "".join(pieces_seen) == MIXED_ENDS
        lines = [line for p in pieces_seen for line in p.splitlines()]
        assert lines == MIXED_ENDS.splitlines()

    def test_default_size_reads_the_whole_lattice(self, abc):
        w = parse_wfsa(MIXED_ENDS, abc)
        assert w.start == 0
        assert w.finals == {5: 0.5, 2: 0.125, 4: 0.0}
        assert [(src, arc) for src, arc in iter_arcs(w)] == [
            (0, (1, 0.5, 1)), (1, (2, 0.25, 2)), (2, (3, 0.0, 3)),
            (3, (1, 1.0, 4)), (4, (2, 0.0, 5))]

    @pytest.mark.parametrize("piece", [1, 4, 1 << 16])
    def test_error_past_the_first_piece_keeps_its_line_number(self, abc, monkeypatch, piece):
        monkeypatch.setattr(wfsa, "_PIECE", piece)
        text = "0 1 a\r\n1 2 b\n\n# c\u2028" + "2 3 c\n" * 20 + "3 4 a 0.5 x\n4\n"
        with pytest.raises(LatticeFormatError, match="expected 1, 2, 3 or 4") as exc:
            parse_wfsa(text, abc)
        assert exc.value.line == text.splitlines().index("3 4 a 0.5 x") + 1 == 25

    def test_arcs_into_a_state_share_one_int(self, abc):
        w = parse_wfsa("0 300 a\n0 1 b\n1 300 c\n300\n", abc)
        assert w.arcs[0][0].dst is w.arcs[1][0].dst


class TestSerializeWfsa:
    def test_round_trip_four_state(self, abc):
        w = parse_wfsa(FOUR_STATE, abc)
        back = parse_wfsa(serialize_wfsa(w, abc), abc)
        assert back.start == w.start
        assert back.finals == w.finals
        def arcset(x):
            return sorted((src, a.label, a.weight, a.dst)
                          for src, a in iter_arcs(x))
        assert arcset(back) == arcset(w)

    def test_serialization_is_fixed_point(self, abc):
        rng = random.Random(5)
        for _ in range(25):
            w = random_acyclic_wfsa(rng, n_labels=3, label_base=1)
            text = serialize_wfsa(w, abc)
            again = serialize_wfsa(parse_wfsa(text, abc), abc)
            assert text == again

    def test_pushed_demo_lattice_is_fixed_point(self):
        demo = build_demo(seed=13, n_sentences=8)
        for raw in demo.lattices:
            text = serialize_wfsa(prepare(raw).inner, demo.symbols)
            back = parse_wfsa(text, demo.symbols, semiring.LOG)
            assert serialize_wfsa(back, demo.symbols) == text
            PosteriorLattice(back)

    def test_start_final_only_lattice(self, abc):
        w = Wfsa()
        w.ensure_state(0)
        w.set_final(0, 0.5)
        back = parse_wfsa(serialize_wfsa(w, abc), abc)
        assert back.start == 0
        assert back.final_weight(0) == 0.5

    @pytest.mark.parametrize("start_arcs", [True, False])
    def test_initial_state_leads(self, abc, start_arcs):
        # arcs out of the start come first; a start with none leads
        # with its final line
        w = Wfsa()
        w.add_arc(0, 1, 0.5, 1)
        w.set_final(1)
        w.set_final(2, 0.25)
        w.start = 2
        if start_arcs:
            w.add_arc(2, 2, 1.5, 0)
            want = "2 0 b 1.5\n0 1 a 0.5\n1 0\n2 0.25\n"
        else:
            want = "2 0.25\n0 1 a 0.5\n1 0\n"
        assert serialize_wfsa(w, abc) == want

    def test_weights_keep_12_significant_digits(self, abc):
        w = Wfsa()
        w.add_arc(0, 1, 0.123456789012345, 1)
        w.set_final(1, math.pi)
        back = parse_wfsa(serialize_wfsa(w, abc), abc)
        assert back.arcs_from(0)[0].weight == pytest.approx(0.123456789012345,
                                                            rel=1e-11)
        assert back.final_weight(1) == pytest.approx(math.pi, rel=1e-11)


class TestStructure:
    def test_topological_order_on_dag(self, abc):
        w = parse_wfsa(FOUR_STATE, abc)
        order = topological_order(w)
        pos = {q: i for i, q in enumerate(order)}
        for src, arc in iter_arcs(w):
            assert pos[src] < pos[arc.dst]

    def test_topological_order_none_on_cycle(self):
        w = Wfsa()
        w.add_arc(0, 1, 0.0, 1)
        w.add_arc(1, 1, 0.0, 0)
        w.set_final(1, 0.0)
        assert topological_order(w) is None

    def test_is_deterministic(self, abc):
        w = parse_wfsa(FOUR_STATE, abc)
        assert w.is_deterministic()
        w.add_arc(1, abc.id_of("b"), 0.1, 3)
        assert not w.is_deterministic()

    def test_has_epsilon(self, abc):
        w = parse_wfsa(FOUR_STATE, abc)
        assert not w.has_epsilon()
        w.add_arc(0, EPS, 0.0, 1)
        assert w.has_epsilon()

    def test_validate_four_state(self, abc):
        report = validate(parse_wfsa(FOUR_STATE, abc))
        assert report.is_acyclic
        assert report.n_accessible == 4
        assert report.n_coaccessible == 4
        assert report.is_deterministic
        assert not report.has_epsilon
        assert not report.is_empty
        assert report.arcs_per_state == pytest.approx(0.75)

    def test_validate_counts_around_dropped_cycles(self):
        # dead cycle 0 <-> 1 at the start; unreachable cycle 2 <-> 3
        # into the final state 4
        w = Wfsa()
        w.add_arc(0, 1, 0.0, 1)
        w.add_arc(1, 1, 0.0, 0)
        w.add_arc(2, 1, 0.0, 3)
        w.add_arc(3, 1, 0.0, 2)
        w.add_arc(3, 2, 0.0, 4)
        w.set_final(4)
        report = validate(w)
        assert (report.n_accessible, report.n_coaccessible) == (2, 3)
        assert report.is_empty and not report.is_acyclic
        # a live cycle 0 -> 1 -> 0 and an arc on to 2 make it non-empty
        w.add_arc(1, 2, 0.0, 4)
        report = validate(w)
        assert (report.n_accessible, report.n_coaccessible) == (3, 5)
        assert not report.is_empty

    def test_validate_flags_dead_state(self, abc):
        w = parse_wfsa(FOUR_STATE, abc)
        w.add_arc(0, abc.id_of("c"), 1.0, w.add_state())
        report = validate(w)
        assert report.n_coaccessible == 4
        assert report.n_states == 5
