"""Mealy machines, finite transducers and homomorphisms.

Machines are validated eagerly on construction (totality of the
transition table, declared states and symbols) and are immutable
afterwards; runs are pure functions of machine and input.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, product
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import AlphabetError, BudgetError, FormatError
from .sources import InfiniteWordSource
from .words import (
    Alphabet, EmissionTable, FiniteWord, _encode, _gather, _lookup, _not_in, render_symbols
)

INFINITE_EVIDENT = "infinite-evident"
FINITE_SO_FAR = "finite-so-far"
UNKNOWN = "unknown"

MAX_DELAY_STATES = 1 << 16


@dataclass(frozen=True, eq=False)
class RunTrace:
    """States visited (starting at the initial state), output, symbols read.

    ``state_index`` holds the states visited as indices into
    ``state_labels``; ``states``, the tuple of their labels, is built on
    first access.  The output is the machine's emissions on each step,
    concatenated; ``step_lengths[i]`` is the number of output symbols
    emitted by step i, in the narrowest unsigned dtype that holds the
    longest emission (a read-only broadcast of one value when every
    emission has the same length, as in a Mealy machine).  Two traces are
    equal when their states, outputs and symbol counts are.
    """

    state_labels: tuple[str, ...] = field(repr=False)
    state_index: np.ndarray = field(repr=False)
    output: FiniteWord
    consumed: int
    step_lengths: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.state_index.flags.writeable = False

    @cached_property
    def states(self) -> tuple[str, ...]:
        return tuple(np.array(self.state_labels, object)[self.state_index].tolist())

    def _key(self):
        return self.states, self.output, self.consumed

    def __eq__(self, other):
        if not isinstance(other, RunTrace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _emissions(words, alphabet: Alphabet) -> EmissionTable:
    """The table of ``words``, each a FiniteWord over ``alphabet`` (one over
    another alphabet raises AlphabetError) or a sequence of labels.  Each
    FiniteWord is read as its labels, and the labels of all the words are
    encoded in one ``_lookup`` pass, not one per word, whose fixed cost a
    dict of many short emissions would pay each time; the first symbol
    ``alphabet`` lacks raises AlphabetError naming it and its position in
    its word."""
    labels = alphabet.labels
    spelled = []
    for w in words:
        if isinstance(w, FiniteWord):
            if w.alphabet != alphabet:
                raise AlphabetError(f"emission {w!r} over wrong alphabet")
            w = [labels[i] for i in w.data.tolist()]
        spelled.append(w)
    codes = _lookup(alphabet, list(chain.from_iterable(spelled)))
    if (codes < 0).any():
        for w in spelled:
            _encode(alphabet, w)
    lengths = np.fromiter(map(len, spelled), np.int64, len(spelled))
    return EmissionTable.from_cells(lengths, codes.astype(np.uint8))


def _one_symbol_table(codes: np.ndarray) -> EmissionTable:
    """The table of one-symbol words, symbol ``codes[k]`` under key k: the
    emissions of a Mealy machine."""
    return EmissionTable.from_cells(np.ones(codes.shape[0], np.int64), codes)


def _state_index(states, line=None) -> dict[str, int]:
    """Each state label's index; a label given twice raises FormatError
    naming the first one repeated (and ``line``, where the states are
    declared)."""
    index = dict(zip(states, range(len(states))))
    if len(index) < len(states):
        seen = set()
        repeated = next(q for q in states if q in seen or seen.add(q))
        raise FormatError(f"duplicate state label {repeated!r}", line=line)
    return index


def _read_transitions(input_alphabet, state_idx, transitions):
    """The next-state table (a flat list in key order) and the emissions
    (as given, in key order) of ``transitions``, an iterable of
    ``(line, state, input symbol, next state, emission)`` over the states
    indexed by ``state_idx``.  A fault raises FormatError carrying its
    line (None when there is none)."""
    na = len(input_alphabet)
    next_state = [-1] * (len(state_idx) * na)
    emissions = [None] * (len(state_idx) * na)
    for no, q, a, q2, out in transitions:
        if q not in state_idx:
            raise FormatError(f"transition from undeclared state {q!r}", line=no)
        if q2 not in state_idx:
            raise FormatError(f"transition to undeclared state {q2!r}", line=no)
        key = state_idx[q] * na + input_alphabet.index(a)
        if emissions[key] is not None:
            raise FormatError(f"duplicate transition for ({q!r}, {a!r})", line=no)
        next_state[key] = state_idx[q2]
        emissions[key] = out
    missing = [divmod(k, na) for k, q2 in enumerate(next_state) if q2 < 0]
    if missing:
        states = tuple(state_idx)
        missing = [(states[q], input_alphabet.label(a)) for q, a in missing[:5]]
        raise FormatError(f"transition table not total; missing {missing}")
    return next_state, emissions


class Transducer:
    """Finite automaton that emits a word (possibly empty) on each step.

    The emissions live in one :class:`EmissionTable` under the key
    ``state index * |input alphabet| + input symbol``.
    """

    def __init__(self, input_alphabet, output_alphabet, states, initial, transitions):
        """``transitions`` maps (state label, input label) to
        (next state label, output FiniteWord-or-label-list).  The dict is
        read into tables, and the machine takes the attributes that
        ``_from_tables`` gives the machine of those tables."""
        state_idx = _state_index(tuple(states))
        if initial not in state_idx:
            raise FormatError(f"initial state {initial!r} not declared")
        items = ((None, q, a, q2, out) for (q, a), (q2, out) in transitions.items())
        next_state, emissions = _read_transitions(input_alphabet, state_idx, items)
        emit = _emissions(emissions, output_alphabet)
        tables = (state_idx, state_idx[initial], next_state, emit)
        vars(self).update(vars(self._from_tables(input_alphabet, output_alphabet, *tables)))

    @classmethod
    def _from_tables(cls, input_alphabet, output_alphabet, states, initial_idx, next_state, emit):
        """The machine whose states are the keys of ``states``, a
        ``_state_index`` (each label's index, in index order), that starts in
        state ``initial_idx`` and that, in state q on input symbol a, moves
        to ``next_state[q, a]`` (a ``(|Q|, |A|)`` table of state indices, or
        its rows concatenated) and emits ``emit[q * |A| + a]``.  The tables
        are trusted."""
        machine = object.__new__(cls)
        machine.input_alphabet = input_alphabet
        machine.output_alphabet = output_alphabet
        machine.states = tuple(states)
        machine._state_idx = states
        machine.initial = machine.states[initial_idx]
        machine._initial_idx = initial_idx
        machine._next = np.asarray(next_state, np.int32).reshape(-1, len(input_alphabet))
        machine._emit = emit
        return machine

    def transition(self, state: str, symbol: str) -> tuple[str, FiniteWord]:
        qi = self._state_idx[state]
        ai = self.input_alphabet.index(symbol)
        emitted = self._emit[qi * len(self.input_alphabet) + ai]
        return self.states[self._next[qi, ai]], FiniteWord(self.output_alphabet, emitted)


class MealyMachine(Transducer):
    """Transducer emitting exactly one output symbol per input symbol."""

    def __init__(self, input_alphabet, output_alphabet, states, initial, transitions):
        """``transitions`` maps (state label, input label) to
        (next state label, output label): the transducer of one-label
        emissions."""
        words = {key: (q2, (label,)) for key, (q2, label) in transitions.items()}
        super().__init__(input_alphabet, output_alphabet, states, initial, words)

    def transition(self, state: str, symbol: str) -> tuple[str, str]:
        q2, out = super().transition(state, symbol)
        return q2, out[0]


class Homomorphism:
    """A word map determined by per-symbol images: h(uv) = h(u)h(v)."""

    def __init__(self, source: Alphabet, target: Alphabet, images):
        """``images`` maps every source label to a FiniteWord or label list."""
        for s in source:
            if s not in images:
                raise FormatError(f"no image for symbol {s!r}")
        table = _emissions([images[s] for s in source], target)
        vars(self).update(vars(self._from_table(source, target, table)))

    @classmethod
    def _from_table(cls, source: Alphabet, target: Alphabet, images: EmissionTable):
        """The homomorphism whose image of source symbol i is ``images[i]``."""
        h = object.__new__(cls)
        h.source, h.target, h._images = source, target, images
        return h

    def image(self, label: str) -> FiniteWord:
        return FiniteWord(self.target, self._images[self.source.index(label)])

    def image_lengths(self) -> np.ndarray:
        return self._images.lengths

    def __call__(self, w: FiniteWord) -> FiniteWord:
        return apply_homomorphism(self, w)


def apply_homomorphism(h: Homomorphism, w: FiniteWord) -> FiniteWord:
    if w.alphabet != h.source:
        raise AlphabetError("word is not over the homomorphism's source alphabet")
    return FiniteWord._wrap(h.target, h._images.expand(w.data))


def _run(machine: Transducer, data: np.ndarray, source: InfiniteWordSource | None = None):
    """States visited, step keys and output of ``machine`` on the input
    symbols ``data``, the prefix of ``source`` relabeled into the machine's
    input alphabet when a source is given.  The source's blocks
    (``InfiniteWordSource._blocks``), relabeled likewise, are sized to
    about n / ``_kernels._LIFT_SHARE`` cells of lift, as raw input's chunks
    are; a source without blocks, or with a letter the machine cannot read,
    is run as raw input.  Input whose first or last symbol differs from the
    source's raises ValueError (a check of the pairing at its ends: a full
    one would cost a pass over the input)."""
    n, nq = data.shape[0], machine._next.shape[0]
    blocks = None if source is None else source._blocks(n, n // (_kernels._LIFT_SHARE * nq))
    if blocks is not None:
        codes = _lookup(machine.input_alphabet, source.alphabet.labels)
        if not np.array_equal(codes[source.prefix_array(n)[[0, -1]]], data[[0, -1]]):
            raise ValueError("the input is not the prefix of its source")
        base, images, segments = blocks
        blocks = None if (codes < 0).any() else (codes[base].astype(np.uint8), images, segments)
    return _kernels.mealy_run(machine._next, machine._emit, machine._initial_idx, data, blocks)


def run_transducer(machine: Transducer, word: FiniteWord, *, _source=None) -> RunTrace:
    """The run of ``machine`` on ``word``.  ``_source``, private to the
    CLI, is a source whose prefix ``word`` is, relabeled into the machine's
    input alphabet; the run then reads the word as its blocks (``_run``,
    which checks the pairing at the word's ends)."""
    if word.alphabet != machine.input_alphabet:
        raise AlphabetError("input word is not over the machine's input alphabet")
    states, keys, out = _run(machine, word.data, _source)
    lengths = machine._emit.lengths
    if np.ptp(lengths):
        step_lengths = _gather(lengths.astype(np.min_scalar_type(lengths.max())), keys)
    else:
        step_lengths = np.broadcast_to(lengths[0], keys.shape)
    return RunTrace(
        state_labels=machine.states,
        state_index=states,
        output=FiniteWord._wrap(machine.output_alphabet, out),
        consumed=len(word),
        step_lengths=step_lengths,
    )


# A Mealy machine is a transducer whose emissions all have length 1.
run_mealy = run_transducer


class MealyStreamSource(InfiniteWordSource):
    """Lazy automaton image of an infinite input word."""

    def __init__(self, machine: MealyMachine, inp: InfiniteWordSource):
        # One output symbol per input symbol keeps the output prefix of
        # length n the image of the input prefix of length n.
        if not isinstance(machine, MealyMachine):
            raise ValueError("a machine stream needs a Mealy machine")
        if inp.alphabet != machine.input_alphabet:
            raise AlphabetError("input source is not over the machine's input alphabet")
        super().__init__(machine.output_alphabet, budget=inp.budget)
        self.machine = machine
        self.input = inp

    def _prefix(self, n: int) -> np.ndarray:
        return _run(self.machine, self.input.prefix_array(n), self.input)[2]


def run_mealy_stream(machine: MealyMachine, inp: InfiniteWordSource) -> MealyStreamSource:
    return MealyStreamSource(machine, inp)


def delay_prepend_automaton(a: FiniteWord) -> MealyMachine:
    """Machine that buffers the last |a| inputs, so its output is a
    followed by the input stream (delayed by |a|).  Its sigma^L states
    (L = |a|) are not built past ``MAX_DELAY_STATES``: BudgetError.

    The machine is a base-sigma shift register: the state of value v (its
    buffer as a base-sigma number, oldest symbol first) moves on input a
    to (v * sigma + a) mod sigma^L and emits v // sigma^(L-1).  States are
    numbered in breadth-first order from a's value s: the states reached
    in exactly j steps are (s * sigma^j mod sigma^L) + t for t < sigma^j,
    in that order, and the order is their concatenation over j = 0..L with
    first occurrences kept.  A state's label is its buffer's labels, run
    together over one-character ASCII labels and joined by "," otherwise;
    when a label holds ",", each is first escaped ("\\" as "\\\\", "," as
    "\\,"), so that no two buffers share a label.
    """
    if len(a) == 0:
        raise ValueError("delay word must be nonempty")
    alph = a.alphabet
    sigma, length = len(alph), len(a)
    # sigma >= 2 passes the bound by L = 17; a unary word has one state.
    if sigma ** min(length, 17) > MAX_DELAY_STATES:
        raise BudgetError(
            f"the delay machine of {length} symbols over {sigma} letters has "
            f"sigma^L = {sigma}^{length} states, over the bound {MAX_DELAY_STATES}"
        )
    n = sigma**length
    powers = sigma ** np.arange(length - 1, -1, -1)
    start = int((a.data * powers).sum())
    seen = np.zeros(n, bool)
    levels = []
    # Levels past j = n only repeat states (n = 1 for a unary word, whose L
    # is not bounded).
    for j in range(min(length, n) + 1):
        level = start * sigma**j % n + np.arange(sigma**j)
        levels.append(level[~seen[level]])
        seen[level] = True
    order = np.concatenate(levels)
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    next_state = rank[(order[:, None] * sigma + np.arange(sigma)) % n]
    emit = _one_symbol_table(np.repeat(order // powers[0], sigma).astype(np.uint8))
    digits = order[:, None] // powers % sigma
    text = render_symbols(alph, digits.ravel())
    if alph.single_char:
        labels = [text[i : i + length] for i in range(0, n * length, length)]
    else:
        tokens = text.split(" ")
        if any("," in label for label in alph):
            # Escaped, so that no two buffers join into one label.
            tokens = [t.replace("\\", "\\\\").replace(",", "\\,") for t in tokens]
        labels = [",".join(tokens[i : i + length]) for i in range(0, n * length, length)]
    return MealyMachine._from_tables(alph, alph, _state_index(labels), 0, next_state, emit)


def _reachable(machine) -> list[int]:
    """Indices of the states reachable from the initial state, in BFS order."""
    rows = machine._next.tolist()
    order = [machine._initial_idx]
    seen = set(order)
    for q in order:
        for q2 in rows[q]:
            if q2 not in seen:
                seen.add(q2)
                order.append(q2)
    return order


def decompose_transducer(transducer: Transducer) -> tuple[MealyMachine, Homomorphism]:
    """Split a transducer into a Mealy machine over the pair alphabet
    (state, input symbol) and a homomorphism mapping each pair to the
    word the transducer emits on that transition.

    The automaton's states are the reachable ones; it emits pair
    ``i * |A| + a`` in the i-th of them on input a.

    For every input w: h(run_mealy(F, w).output) == run_transducer(T, w).output.
    """
    reach = np.array(_reachable(transducer))
    states = [transducer.states[q] for q in reach.tolist()]
    inputs = transducer.input_alphabet
    pairs = Alphabet(f"{q},{a}" for q in states for a in inputs)
    rank = np.empty(len(transducer.states), np.int64)
    rank[reach] = np.arange(len(reach))
    keys = (reach[:, None] * len(inputs) + np.arange(len(inputs))).ravel()
    next_state = rank[transducer._next[reach]]
    emit = _one_symbol_table(np.arange(len(pairs), dtype=np.uint8))
    automaton = MealyMachine._from_tables(inputs, pairs, _state_index(states), 0, next_state, emit)
    table = transducer._emit
    images = EmissionTable.from_cells(table.lengths[keys], table.expand(keys))
    return automaton, Homomorphism._from_table(pairs, transducer.output_alphabet, images)


def output_infinite_check(h: Homomorphism, source: InfiniteWordSource, budget: int) -> str:
    """Heuristic tri-state check whether h applied to the source yields an
    infinite word.  Only the length-`budget` prefix is scanned; the answer
    never claims more than that prefix can witness.

    Call a symbol emitting when its image is nonempty, and the prefix's
    second half its symbols from index ``budget // 2`` on.  The answer is
    INFINITE_EVIDENT when every symbol is emitting (no scan) or when an
    emitting symbol occurs at least twice, once in the second half;
    FINITE_SO_FAR when no emitting symbol occurs in the second half; and
    UNKNOWN otherwise.  Two bincounts of the prefix, its symbol counts and
    its second half's, give all three."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if source.alphabet != h.source:
        raise AlphabetError("source is not over the homomorphism's source alphabet")
    emitting = h.image_lengths() > 0
    if emitting.all():
        return INFINITE_EVIDENT
    data = source.prefix_array(budget)
    late = emitting & (np.bincount(data[budget // 2 :], minlength=emitting.size) > 0)
    if (late & (np.bincount(data, minlength=emitting.size) >= 2)).any():
        return INFINITE_EVIDENT
    return UNKNOWN if late.any() else FINITE_SO_FAR


# ---------------------------------------------------------------------------
# definition file formats


def _split_emission(token: str, alphabet: Alphabet, empty: str | None, line=None) -> list[str]:
    """The labels of ``alphabet`` that emission ``token`` on line ``line``
    spells, matched longest first; ``empty`` is the token for the empty
    word (None for no such token).  A character that starts no label
    raises FormatError naming it and its position among the labels."""
    if token == empty:
        return []
    lengths = sorted({len(label) for label in alphabet}, reverse=True)
    out = []
    pos = 0
    while pos < len(token):
        label = next((t for k in lengths if (t := token[pos : pos + k]) in alphabet), None)
        if label is None:
            raise FormatError(_not_in(alphabet, token[pos], len(out)), line=line)
        out.append(label)
        pos += len(label)
    return out


def _header(lines, lineno, key):
    if lineno >= len(lines):
        raise FormatError(f"missing {key!r} header line", line=lineno + 1)
    no, text = lines[lineno]
    if not text.startswith(key + ":"):
        raise FormatError(f"expected {key!r} header, got {text!r}", line=no)
    return no, text.split(":", 1)[1].split()


def _header_alphabet(lines, lineno, key) -> Alphabet:
    """The alphabet a header line declares; a fault carries that line."""
    no, labels = _header(lines, lineno, key)
    try:
        return Alphabet(labels)
    except AlphabetError as e:
        raise FormatError(str(e), line=no) from e


def _read(path) -> str:
    """The whole text of the UTF-8 file at ``path``: every file the
    program reads comes through here."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _content_lines(text: str):
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((no, stripped))
    return out


def parse_machine(text: str):
    """Parse a machine definition file; returns a MealyMachine when every
    emission is a single output symbol, otherwise a Transducer."""
    lines = _content_lines(text)
    input_alphabet = _header_alphabet(lines, 0, "input")
    output_alphabet = _header_alphabet(lines, 1, "output")
    no, state_labels = _header(lines, 2, "states")
    state_idx = _state_index(state_labels, no)
    no, initial = _header(lines, 3, "initial")
    if len(initial) != 1:
        raise FormatError("initial header must name exactly one state", line=no)
    if initial[0] not in state_idx:
        raise FormatError(f"initial state {initial[0]!r} not declared", line=no)

    def transitions():
        for no, line in lines[4:]:
            tokens = line.split()
            if len(tokens) != 5 or tokens[2] != "->":
                raise FormatError(
                    f"expected '<state> <sym> -> <state> <emission>', got {line!r}",
                    line=no,
                )
            q, a, _, q2, emission = tokens
            if a not in input_alphabet:
                raise FormatError(f"undeclared input symbol {a!r}", line=no)
            yield no, q, a, q2, _split_emission(emission, output_alphabet, "-", no)

    next_state, emissions = _read_transitions(input_alphabet, state_idx, transitions())
    emit = _emissions(emissions, output_alphabet)
    kind = MealyMachine if (emit.lengths == 1).all() else Transducer
    return kind._from_tables(
        input_alphabet, output_alphabet, state_idx, state_idx[initial[0]], next_state, emit
    )


def _header_line(key: str, labels) -> str:
    """The ``key:`` header line of a definition file listing ``labels``.  A
    label that would not read back as itself raises FormatError: one
    holding ``#``, which starts a comment, or a state label that is empty
    or holds whitespace, which separates labels."""
    for label in labels:
        if "#" in label or label.split() != [label]:
            raise FormatError(
                f"{key} label {label!r} cannot be written: a label must be nonempty, "
                "without '#' or whitespace"
            )
    return f"{key}: " + " ".join(labels)


def _emission_token(emitted: np.ndarray, alphabet: Alphabet, where: str) -> str:
    """The token a definition file spells the word ``emitted`` (symbol
    indices over ``alphabet``) with: its labels run together, or ``-`` for
    the empty word.  A token that the reader (``_split_emission``) would
    not split back into these labels raises FormatError naming ``where``."""
    labels = [alphabet.label(i) for i in emitted.tolist()]
    token = "".join(labels) or "-"
    with suppress(FormatError):
        if _split_emission(token, alphabet, "-") == labels:
            return token
    raise FormatError(
        f"{where}: emission {' '.join(labels)!r} is written {token!r}, "
        "which reads back as other symbols"
    )


def format_machine(machine) -> str:
    lines = [
        _header_line("input", machine.input_alphabet.labels),
        _header_line("output", machine.output_alphabet.labels),
        _header_line("states", machine.states),
        "initial: " + machine.initial,
    ]
    # Transition k = q * |A| + a is cell k of the next-state table.
    for k, (q, a) in enumerate(product(machine.states, machine.input_alphabet)):
        where = f"state {q!r}, symbol {a!r}"
        token = _emission_token(machine._emit[k], machine.output_alphabet, where)
        lines.append(f"{q} {a} -> {machine.states[machine._next.flat[k]]} {token}")
    return "\n".join(lines) + "\n"


def _image_lines(lines) -> list[tuple[int, str, str]]:
    """``(line number, symbol, image token)`` of each ``sym -> image`` line
    of a homomorphism or rules file; a symbol may have one line only."""
    rules = {}
    for no, line in lines:
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "->":
            raise FormatError(f"expected '<symbol> -> <image>', got {line!r}", line=no)
        sym, _, image = tokens
        if sym in rules:
            raise FormatError(f"duplicate image for {sym!r}", line=no)
        rules[sym] = (no, sym, image)
    return list(rules.values())


def parse_homomorphism(text: str) -> Homomorphism:
    lines = _content_lines(text)
    source = _header_alphabet(lines, 0, "source")
    target = _header_alphabet(lines, 1, "target")
    images = {}
    for no, sym, image in _image_lines(lines[2:]):
        if sym not in source:
            raise FormatError(f"image for {sym!r}, which is not a source symbol", line=no)
        images[sym] = _split_emission(image, target, "-", no)
    return Homomorphism(source, target, images)


def format_homomorphism(h: Homomorphism) -> str:
    lines = [_header_line("source", h.source.labels), _header_line("target", h.target.labels)]
    for i, s in enumerate(h.source):
        token = _emission_token(h._images[i], h.target, f"symbol {s!r}")
        lines.append(f"{s} -> {token}")
    return "\n".join(lines) + "\n"
