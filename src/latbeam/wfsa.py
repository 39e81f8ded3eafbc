"""Weighted acceptor container and its text serialization.

Lattice text format, one record per line, UTF-8, '#' starts a comment:

    src dst token [weight]     arc; weight defaults to 0.0
    state [weight]             final state; weight defaults to 0.0

The source state of the first record is the initial state. States are
non-negative integers and are stored densely (missing ids become isolated
states). Token strings carry no whitespace; they are resolved through a
symbol table whose entry 0 is always the epsilon symbol ``<eps>``.

Symbol table format: one ``token id`` pair per line, same comment rules.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain
from typing import NamedTuple

from . import semiring
from .errors import ConfigError, LatticeFormatError, UnknownSymbolError

EPS = 0
EPS_SYM = "<eps>"


class SymbolTable:
    """Bijection between token strings and dense integer ids.

    A closed table refuses new symbols, which turns typos in lattice files
    into parse errors instead of silently growing the vocabulary.
    """

    def __init__(self, closed: bool = False):
        self._by_sym: dict[str, int] = {EPS_SYM: EPS}
        self._by_id: dict[int, str] = {EPS: EPS_SYM}
        self._next_id = EPS + 1
        self.closed = closed

    def __len__(self) -> int:
        return len(self._by_sym)

    def __contains__(self, sym: str) -> bool:
        return sym in self._by_sym

    def add(self, sym: str) -> int:
        if sym in self._by_sym:
            return self._by_sym[sym]
        if self.closed:
            raise UnknownSymbolError(f"unknown symbol {sym!r} in closed table")
        new_id = self._next_id
        self._next_id += 1
        self._by_sym[sym] = new_id
        self._by_id[new_id] = sym
        return new_id

    def id_of(self, sym: str) -> int:
        try:
            return self._by_sym[sym]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {sym!r}") from None

    def sym_of(self, ident: int) -> str:
        try:
            return self._by_id[ident]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol id {ident}") from None

    def spell(self, ids) -> list[str]:
        """The symbols of a sequence of ids, one dict lookup each."""
        try:
            return list(map(self._by_id.__getitem__, ids))
        except KeyError as exc:
            raise UnknownSymbolError(f"unknown symbol id {exc.args[0]}") from None

    def ids_of(self, syms) -> list[int]:
        """The ids of a sequence of symbols, one dict lookup each: the
        mirror of spell. It adds no symbol, even to an open table; an
        unknown one raises UnknownSymbolError as id_of does."""
        try:
            return list(map(self._by_sym.__getitem__, syms))
        except KeyError as exc:
            raise UnknownSymbolError(f"unknown symbol {exc.args[0]!r}") from None

    def ids(self):
        """All non-epsilon ids, ascending."""
        return sorted(i for i in self._by_id if i != EPS)

    def close(self) -> None:
        self.closed = True


def parse_symbols(text: str) -> SymbolTable:
    """Parse a symbol table file. The result is closed."""
    by_sym: dict[str, int] = {}
    by_id: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise LatticeFormatError("expected 'token id'", line=lineno)
        sym, id_text = fields
        try:
            ident = int(id_text)
        except ValueError:
            raise LatticeFormatError(f"bad symbol id {id_text!r}", line=lineno) from None
        if ident < 0:
            raise LatticeFormatError(f"negative symbol id {ident}", line=lineno)
        if sym in by_sym or ident in by_id:
            raise LatticeFormatError(f"duplicate symbol entry {sym!r}/{ident}", line=lineno)
        by_sym[sym] = ident
        by_id[ident] = sym
    if by_sym.get(EPS_SYM) != EPS:
        raise LatticeFormatError(f"symbol table must map {EPS_SYM!r} to {EPS}")
    table = SymbolTable()
    table._by_sym = by_sym
    table._by_id = by_id
    table._next_id = max(by_id) + 1
    table.closed = True
    return table


def format_symbols(table: SymbolTable) -> str:
    lines = [f"{table.sym_of(i)} {i}" for i in sorted(table._by_id)]
    return "\n".join(lines) + "\n"


class Arc(NamedTuple):
    """One weighted arc; unpacks as (label, weight, dst)."""

    label: int
    weight: float
    dst: int


# _new(Arc, (label, weight, dst)) builds an arc at about half the cost of
# Arc(label, weight, dst), whose generated __new__ handles keywords; every
# bulk construction in latbeam uses it
_new = tuple.__new__


class Wfsa:
    """Acceptor over a tropical or log cost semiring.

    Built by mutation (add_arc / set_final). No public algorithm in
    latbeam.ops changes its argument; each returns a fresh automaton,
    which may share the argument's (immutable) Arc objects.
    """

    __slots__ = ("semiring", "start", "arcs", "finals")

    def __init__(self, semiring_tag: str = semiring.TROPICAL):
        if semiring_tag not in (semiring.TROPICAL, semiring.LOG):
            raise ConfigError(f"unknown semiring {semiring_tag!r}")
        self.semiring = semiring_tag
        self.start = 0
        self.arcs: list[list[Arc]] = []
        self.finals: dict[int, float] = {}

    @property
    def num_states(self) -> int:
        return len(self.arcs)

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self.arcs)

    def ensure_state(self, state: int) -> int:
        while len(self.arcs) <= state:
            self.arcs.append([])
        return state

    def add_state(self) -> int:
        self.arcs.append([])
        return len(self.arcs) - 1

    def add_arc(self, src: int, label: int, weight: float, dst: int) -> None:
        top = src if src > dst else dst
        if top >= len(self.arcs):
            self.ensure_state(top)
        self.arcs[src].append(_new(Arc, (label, weight, dst)))

    def set_final(self, state: int, weight: float = 0.0) -> None:
        self.ensure_state(state)
        self.finals[state] = weight

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, semiring.INF)

    def arcs_from(self, state: int) -> list[Arc]:
        return self.arcs[state]

    def has_epsilon(self) -> bool:
        return any(label == EPS for arcs in self.arcs for label, _, _ in arcs)

    def is_deterministic(self) -> bool:
        """No epsilon arcs and at most one arc per label out of each state."""
        for arcs in self.arcs:
            seen = set()
            for label, _, _ in arcs:
                if label == EPS or label in seen:
                    return False
                seen.add(label)
        return True

    def copy(self) -> "Wfsa":
        return self.retagged(self.semiring)

    def retagged(self, semiring_tag: str) -> "Wfsa":
        """A copy read in another semiring; the constructor checks the tag."""
        out = Wfsa(semiring_tag)
        out.start = self.start
        out.arcs = [list(arcs) for arcs in self.arcs]
        out.finals = dict(self.finals)
        return out


def _parse_weight(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise LatticeFormatError(f"bad weight {text!r}", line=lineno) from None
    if math.isnan(value) or value == -semiring.INF:
        raise LatticeFormatError(f"weight {text!r} out of range", line=lineno)
    return value


def _parse_state(text: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise LatticeFormatError(f"bad state id {text!r}", line=lineno) from None
    if value < 0:
        raise LatticeFormatError(f"negative state id {value}", line=lineno)
    return value


# parse_wfsa splits its text a piece at a time, each cut just after a
# newline, so it never holds the lines of the whole text at once
_PIECE = 1 << 16


def _pieces(text: str):
    """text in consecutive pieces of about _PIECE characters, each but
    the last ending in a newline. A newline ends a line whatever comes
    before it, so the lines of the pieces are those of the whole text."""
    pos, n = 0, len(text)
    while pos < n:
        end = text.find("\n", pos + _PIECE) + 1 or n
        yield text[pos:end]
        pos = end


def parse_wfsa(text: str, symbols: SymbolTable,
               semiring_tag: str = semiring.TROPICAL) -> Wfsa:
    """Parse lattice text. See the module docstring for the format.

    Raises LatticeFormatError with a line number on malformed records, and
    UnknownSymbolError when the symbol table is closed and a token is new.
    A lattice with no final state is rejected.
    Repeated final lines for one state keep the last weight.
    """
    w = Wfsa(semiring_tag)
    arcs = w.arcs
    # ids[q] is q, so every arc into q holds one int object. ids grows
    # only with the arc lists (final states are added once, at the end),
    # and then by an eighth plus 64, so a short lattice extends it once.
    ids: list[int] = []
    # a closed table is a plain dict lookup; an open one grows as we go
    closed_ids = symbols._by_sym if symbols.closed else None
    saw_record = False
    lineno = 0
    for piece in _pieces(text):
        for lineno, line in enumerate(piece.splitlines(), start=lineno + 1):
            if "#" in line:
                line = line.split("#", 1)[0]
            fields = line.split()
            if not fields:
                continue
            n_fields = len(fields)
            if n_fields <= 2:
                state = _parse_state(fields[0], lineno)
                weight = _parse_weight(fields[1], lineno) if n_fields == 2 else 0.0
                w.finals[state] = weight
            elif n_fields <= 4:
                src = _parse_state(fields[0], lineno)
                dst = _parse_state(fields[1], lineno)
                if closed_ids is None:
                    label = symbols.add(fields[2])
                else:
                    label = closed_ids.get(fields[2])
                    if label is None:
                        raise UnknownSymbolError(
                            f"unknown symbol {fields[2]!r}", line=lineno)
                weight = _parse_weight(fields[3], lineno) if n_fields == 4 else 0.0
                top = src if src > dst else dst
                if top >= len(arcs):
                    w.ensure_state(top)
                    if top >= len(ids):
                        ids.extend(range(len(ids), top + 64 + (top >> 3)))
                arcs[src].append(_new(Arc, (label, weight, ids[dst])))
            else:
                raise LatticeFormatError("expected 1, 2, 3 or 4 fields", line=lineno)
            if not saw_record:
                w.start = _parse_state(fields[0], lineno)
                saw_record = True
    if not saw_record:
        raise LatticeFormatError("no records in lattice text")
    if not w.finals:
        raise LatticeFormatError("no final state")
    w.ensure_state(max(w.finals))
    return w


def _format_weight(value: float) -> str:
    # 12 significant digits: enough to survive a round trip at 1e-12 while
    # staying a fixed point of parse-then-serialize.
    return f"{value:.12g}"


def serialize_wfsa(w: Wfsa, symbols: SymbolTable) -> str:
    """Render a lattice in the text format, initial state first.

    Arc blocks come out grouped by source state with the initial state's
    block first; final lines follow in state order. An initial state
    with no arcs leads with its final line instead. Serializing the same
    automaton twice yields identical bytes.
    """
    return "".join(_text_lines(w, symbols))


def _text_lines(w: Wfsa, symbols: SymbolTable):
    """The lines of serialize_wfsa's text, each with its newline, one at
    a time, so a writer need not hold the whole text."""
    sym_of, start, finals, n = symbols.sym_of, w.start, w.finals, w.num_states
    lead = start in finals and not w.arcs[start]
    if lead:
        yield f"{start} {_format_weight(finals[start])}\n"
    for state in chain((start,), range(start), range(start + 1, n)) if n else ():
        for label, weight, dst in w.arcs[state]:
            yield f"{state} {dst} {sym_of(label)} {_format_weight(weight)}\n"
    for state in sorted(finals):
        if not (lead and state == start):
            yield f"{state} {_format_weight(finals[state])}\n"


def _accessible(w: Wfsa) -> bytearray:
    """Marks, one byte per state: 1 for the states the start reaches."""
    seen = bytearray(w.num_states)
    if not w.num_states:
        return seen
    seen[w.start] = 1
    stack = [w.start]
    while stack:
        for _, _, dst in w.arcs[stack.pop()]:
            if not seen[dst]:
                seen[dst] = 1
                stack.append(dst)
    return seen


def _coaccessible(w: Wfsa) -> bytearray:
    """Marks, one byte per state: 1 for the states that reach a final
    state. The walk follows reverse arcs, so cycles are fine. They are
    kept in two flat arrays: the sources of the arcs into q are
    sources[first[q]:first[q + 1]]."""
    n = w.num_states
    counts = [0] * (n + 1)
    for arcs in w.arcs:
        for _, _, dst in arcs:
            counts[dst] += 1
    first = array("l", accumulate(counts))     # for now, where q's sources end
    del counts
    sources = array("l", [0]) * first[n]
    # filled back to front, so first[q] comes down to where they begin
    for src in range(n - 1, -1, -1):
        for _, _, dst in w.arcs[src]:
            at = first[dst] - 1
            first[dst] = at
            sources[at] = src
    seen = bytearray(n)
    for q in w.finals:
        seen[q] = 1
    stack = list(w.finals)
    while stack:
        q = stack.pop()
        for src in sources[first[q]:first[q + 1]]:
            if not seen[src]:
                seen[src] = 1
                stack.append(src)
    return seen


def topological_order(w: Wfsa) -> list[int] | None:
    """States in topological order, or None when the graph has a cycle."""
    n = w.num_states
    indegree = [0] * n
    for arcs in w.arcs:
        for _, _, dst in arcs:
            indegree[dst] += 1
    ready = [q for q in range(n) if indegree[q] == 0]
    order: list[int] = []
    while ready:
        state = ready.pop()
        order.append(state)
        for _, _, dst in w.arcs[state]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    if len(order) != n:
        return None
    return order


class ValidationReport(NamedTuple):
    n_states: int
    n_arcs: int
    n_finals: int
    n_accessible: int
    n_coaccessible: int
    is_acyclic: bool
    has_epsilon: bool
    is_deterministic: bool
    is_empty: bool
    arcs_per_state: float


def validate(w: Wfsa) -> ValidationReport:
    """Structural summary: sizes, acyclicity, accessibility, determinism.

    is_empty means no final state is reachable from the initial state,
    i.e. the automaton accepts nothing.
    """
    accessible = _accessible(w)
    coaccessible = _coaccessible(w)
    n_states = w.num_states
    n_arcs = w.num_arcs
    return ValidationReport(
        n_states=n_states,
        n_arcs=n_arcs,
        n_finals=len(w.finals),
        n_accessible=accessible.count(1),
        n_coaccessible=coaccessible.count(1),
        is_acyclic=topological_order(w) is not None,
        has_epsilon=w.has_epsilon(),
        is_deterministic=w.is_deterministic(),
        is_empty=not any(accessible[q] for q in w.finals),
        arcs_per_state=(n_arcs / n_states) if n_states else 0.0,
    )
