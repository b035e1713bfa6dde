"""Alphabets, finite words, segments and occurrence scanning.

Symbols are stored as small integer indices into an :class:`Alphabet`;
textual labels appear only at I/O boundaries.  Words are immutable and
freely shareable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import (
    AlphabetError,
    BoundsError,
    EmptyPatternError,
    FormatError,
)

MAX_ALPHABET = 256


class EmissionTable:
    """Words looked up by integer key: the emission store shared by
    transducers, homomorphisms, morphic sources and the rendering of
    labels that are not computed by arithmetic (internal).

    The words are kept as rows of a zero-padded ``(keys, width)`` uint8
    table, ``width`` the longest word's length, plus a mask of the valid
    cells.  Each row, and each row of the mask, is also viewed as one
    fixed-width item, so that ``expand`` gathers whole rows.  Rows of 1, 2,
    4 or 8 bytes are viewed as native unsigned integers, which numpy
    gathers several times faster than ``np.void`` items: a table with
    padding pads its rows to the next of those widths, up to 8.  A uniform
    table, whose words all have one length (Mealy machines, uniform
    morphisms such as Thue–Morse), has no padding and gathers its rows
    straight into the output; a table of empty words expands to nothing.
    """

    __slots__ = ("lengths", "_padded", "_rows", "_cells")

    # Cells gathered per block of keys: bounds a block's temporaries so that
    # they stay in cache (its rows and mask, 64 KB each; its intp keys and
    # np.compress's 8-byte index of the kept cells, up to 0.5 MB each).
    # Swept over 2^14..2^20 with 300k int32 keys (2 vCPU, numpy 2.4.6):
    # 2^14 was up to 20% slower, 2^16..2^20 within 10% of each other at
    # widths 1-40.
    BLOCK_CELLS = 1 << 16

    def __init__(self, words):
        words = [np.asarray(w, np.uint8).reshape(-1) for w in words]
        self._fill(np.array([w.shape[0] for w in words], np.int64), np.concatenate(words))

    @classmethod
    def from_cells(cls, lengths, cells) -> EmissionTable:
        """The table of the words whose lengths are ``lengths`` and whose
        concatenation, in key order, is ``cells``."""
        table = cls.__new__(cls)
        table._fill(np.asarray(lengths, np.int64), cells)
        return table

    def _fill(self, lengths, cells):
        longest = int(lengths.max())
        uniform = bool((lengths == longest).all())
        width = longest if uniform or longest > 8 else 1 << (longest - 1).bit_length()
        mask = np.arange(width) < lengths[:, None]
        padded = np.zeros((lengths.shape[0], width), np.uint8)
        padded[mask] = cells
        for arr in (lengths, mask, padded):
            arr.flags.writeable = False
        self.lengths = lengths
        self._padded = padded
        # A width-0 item keeps the (keys, 0) shape: no items to gather.
        item = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}.get(
            width, np.dtype((np.void, width))
        )
        self._rows = padded.view(item).ravel() if width else None
        self._cells = None if uniform else mask.view(item).ravel()

    def __getitem__(self, key: int) -> np.ndarray:
        """The word stored under ``key`` (a read-only view)."""
        return self._padded[key, : self.lengths[key]]

    def expand(self, keys: np.ndarray) -> np.ndarray:
        """Concatenation of the words stored under ``keys``, in order.

        One loop over blocks of ``BLOCK_CELLS`` cells: each block's keys
        are cast to intp (numpy gathers by narrower keys through a buffered
        cast), its rows and mask rows are gathered with ``take``, and
        ``np.compress`` keeps its valid cells (its intp index of the kept
        cells stays within the block).  A uniform table writes its rows
        straight into the output (``_gather``).  Keys are not checked: like
        ``_gather``, each ``take`` clips, and every caller's keys index the
        table.
        """
        if self._rows is None:
            return np.empty(0, np.uint8)
        keys = np.asarray(keys)
        if self._cells is None:
            return _gather(self._rows, keys).view(np.uint8)
        rows, cells = self._rows, self._cells
        step = max(1, self.BLOCK_CELLS // rows.itemsize)
        parts = []
        # No keys still make one (empty) block.
        for a in range(0, keys.shape[0] or 1, step):
            idx = keys[a : a + step].astype(np.intp, copy=False)
            out = rows.take(idx, mode="clip").view(np.uint8)
            valid = cells.take(idx, mode="clip").view(bool)
            parts.append(np.compress(valid, out))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _gather(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``table[keys]`` for a 1-D ``table``, gathered one block of
    ``EmissionTable.BLOCK_CELLS`` bytes of output at a time.

    numpy gathers by keys narrower than intp through a slow buffered cast,
    and an unblocked ``take`` first copies every key to 8 bytes.  So each
    block's keys are cast on their own and gathered straight into the
    output.  Keys that are intp already, or that fit in one block, take one
    unblocked gather: it needs no output buffer and no per-block calls,
    which saves about 1.2 µs a call (a uniform ``expand`` by uint8 or int32
    keys, widths 1-40, 1.24-1.46 times faster at 10^3 keys, 1.02-1.07 at
    1.6·10^4 to 6·10^4; 2 vCPU, numpy 2.4.6).

    Every gather here clips instead of checking bounds, whatever the keys'
    count or type, since a checked ``take`` into ``out`` copies the output
    block twice; every caller's keys index ``table`` by construction.
    """
    n = keys.shape[0]
    if n * table.itemsize <= EmissionTable.BLOCK_CELLS or keys.dtype == np.intp:
        return table.take(keys, mode="clip")
    step = max(1, EmissionTable.BLOCK_CELLS // table.itemsize)
    out = np.empty(n, table.dtype)
    for a in range(0, n, step):
        idx = keys[a : a + step].astype(np.intp)
        table.take(idx, out=out[a : a + step], mode="clip")
    return out


def token_table(labels: Iterable[str], sep: str = " ") -> EmissionTable:
    """Token table of ``labels`` as UTF-8, each followed by the ASCII
    separator ``sep`` ("" or " ").

    Lone surrogates (undecodable command-line bytes) pass through, so
    ``render_tokens`` gives exactly the labels joined by ``sep``.
    """
    return EmissionTable(
        np.frombuffer(f"{s}{sep}".encode("utf-8", "surrogatepass"), np.uint8) for s in labels
    )


def render_tokens(tokens: EmissionTable, keys: np.ndarray, sep: str = " ") -> str:
    """The labels of a ``token_table(labels, sep)`` under ``keys``, joined
    by ``sep``."""
    out = tokens.expand(keys)
    return str(memoryview(out[: out.shape[0] - len(sep)]), "utf-8", "surrogatepass")


class Alphabet:
    """An ordered list of distinct symbol labels."""

    __slots__ = ("_labels", "_index", "_single_char", "_step", "_render")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(s) for s in labels)
        if not labels:
            raise AlphabetError("alphabet needs at least one symbol")
        if len(labels) > MAX_ALPHABET:
            raise AlphabetError(f"alphabet too large ({len(labels)} > {MAX_ALPHABET})")
        if len(set(labels)) != len(labels):
            raise AlphabetError(f"duplicate symbol labels in {labels!r}")
        if any(s == "" or any(c.isspace() for c in s) for s in labels):
            raise AlphabetError("symbol labels must be nonempty and whitespace-free")
        self._labels = labels
        self._index = {s: i for i, s in enumerate(labels)}
        self._single_char = all(len(s) == 1 and ord(s) < 128 for s in labels)
        # Text rendering (``render_symbols``): 1-char ASCII labels are
        # concatenated, others separated by single spaces.  When the 1-char
        # labels' code points are c0 + d·i (every alphabet of one or two
        # labels, runs such as 0…9 or a…z), ``_step`` is (d mod 256, c0) and
        # a symbol's byte is computed in uint8; every other alphabet renders
        # through its token table ``_render``, built only then.
        self._step = self._render = None
        points = [ord(s) for s in labels] if self._single_char else []
        d = points[1] - points[0] if len(points) > 1 else 1
        if points and points == list(range(points[0], points[0] + d * len(points), d)):
            self._step = (d % 256, points[0])
        else:
            self._render = token_table(labels, "" if self._single_char else " ")

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def single_char(self) -> bool:
        return self._single_char

    def __len__(self):
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, label):
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise AlphabetError(f"symbol {label!r} not in alphabet {self._labels}") from None

    def label(self, i: int) -> str:
        return self._labels[i]

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self._labels == other._labels

    def __hash__(self):
        return hash(self._labels)

    def __repr__(self):
        return f"Alphabet({self._labels!r})"

    def word(self, text: str = "") -> FiniteWord:
        return FiniteWord.from_text(self, text)


BINARY = Alphabet(("0", "1"))


class FiniteWord:
    """A finite word: an alphabet plus a read-only index array."""

    __slots__ = ("_alphabet", "_data")

    def __init__(self, alphabet: Alphabet, data):
        arr = _indices(alphabet, data, copy=True)
        arr.flags.writeable = False
        self._alphabet = alphabet
        self._data = arr

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> FiniteWord:
        """Parse a word from labels: concatenated chars for 1-char alphabets
        (or tokens, as rendered, when not all ASCII), whitespace-separated
        tokens otherwise.  A symbol outside the alphabet raises
        AlphabetError naming it and its position."""
        return cls._wrap(alphabet, _encode(alphabet, _text_symbols(alphabet, text)))

    @classmethod
    def _wrap(cls, alphabet: Alphabet, arr: np.ndarray) -> FiniteWord:
        # Internal: adopt a trusted uint8 array without copying.
        w = object.__new__(cls)
        arr.flags.writeable = False
        w._alphabet = alphabet
        w._data = arr
        return w

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def data(self) -> np.ndarray:
        return self._data

    def __len__(self):
        return self._data.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteWord)
            and self._alphabet == other._alphabet
            and self._data.shape == other._data.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self._alphabet, self._data.tobytes()))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return FiniteWord(self._alphabet, self._data[key])
        return self._alphabet.label(int(self._data[key]))

    def __add__(self, other):
        return concat(self, other)

    def __repr__(self):
        text = self.to_text()
        if len(text) > 40:
            text = text[:37] + "..."
        return f"FiniteWord({text!r})"

    def to_text(self) -> str:
        return render_symbols(self._alphabet, self._data)


def _text_symbols(alphabet: Alphabet, text: str) -> str | list[str]:
    """The symbols ``FiniteWord.from_text`` reads in ``text`` over
    ``alphabet``: its characters, or its whitespace-separated tokens."""
    tokens = text.strip() if alphabet.single_char else text.split()
    if len(tokens) == 1 and max(map(len, alphabet.labels)) == 1:
        tokens = tokens[0]  # one unspaced run of 1-char labels
    return tokens


def _lookup(alphabet: Alphabet, tokens: str | Sequence[str]) -> np.ndarray:
    """Indices of ``tokens`` in ``alphabet`` (int16, -1 for a symbol it
    lacks).  ``tokens`` is a string, one symbol per character, or a
    sequence of labels; a string over a 1-char ASCII alphabet is one
    gather of its code points through a table whose last slot stands for
    all other code points."""
    if isinstance(tokens, str) and alphabet.single_char:
        table = np.full(129, -1, np.int16)
        table[[ord(s) for s in alphabet.labels]] = np.arange(len(alphabet))
        points = np.frombuffer(tokens.encode("utf-32-le", "surrogatepass"), np.uint32)
        return table[np.minimum(points, 128)]
    return np.fromiter(
        map(alphabet._index.get, tokens, itertools.repeat(-1)), np.int16, len(tokens)
    )


def _encode(alphabet: Alphabet, symbols, codes: np.ndarray | None = None) -> np.ndarray:
    """The label encoder: indices of ``symbols`` in ``alphabet`` as uint8.

    ``codes``, each symbol's index or -1, defaults to ``_lookup(alphabet,
    symbols)``; a caller that gathers them from a table passes them.  The
    first symbol that ``alphabet`` lacks raises AlphabetError naming it
    and its position.
    """
    if codes is None:
        codes = _lookup(alphabet, symbols)
    missing = np.flatnonzero(codes < 0)
    if missing.size:
        pos = int(missing[0])
        raise AlphabetError(_not_in(alphabet, symbols[pos], pos))
    return codes.astype(np.uint8)


def _not_in(alphabet: Alphabet, symbol, pos: int) -> str:
    """The text of the fault of a word whose symbol at ``pos`` is
    ``symbol``, which ``alphabet`` lacks."""
    return f"symbol {symbol!r} at position {pos} is not in alphabet {' '.join(alphabet.labels)}"


def _indices(alphabet: Alphabet, data, copy: bool = False) -> np.ndarray:
    """``data`` as uint8 symbol indices of ``alphabet``, checked before the
    cast: ValueError unless it is one-dimensional integers or bools (or
    empty), AlphabetError for a value outside 0..|A|-1.  Unsigned data
    takes one max-reduce, signed data a min-reduce as well."""
    arr = np.asarray(data)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "biu"):
        raise ValueError("word data must be one-dimensional integers")
    low = int(np.minimum.reduce(arr)) if arr.size and arr.dtype.kind == "i" else 0
    if arr.size and (low < 0 or int(np.maximum.reduce(arr)) >= len(alphabet)):
        raise AlphabetError("symbol index out of range for alphabet")
    return arr.astype(np.uint8, copy=copy)


def render_symbols(alphabet: Alphabet, data: np.ndarray) -> str:
    """Render an index array as label text (see FiniteWord.from_text).

    The indices are checked and cast to uint8 (``_indices``).  One-character
    labels whose code points form a progression (``Alphabet._step``) are
    one uint8 multiply-add into a new array (an add when d = 1), decoded in
    place.  Every other alphabet expands through its token table
    (``render_tokens``): unseparated one-character ASCII labels, the rest
    joined by single spaces.  On 10^7 binary symbols the add path takes
    2.9-3.7 ms in 2^20-symbol slices and 11-13 ms in one call (2 vCPU, numpy
    2.4); on a 12-symbol word it costs about 3 µs, so callers that render
    many short words render them at once (``render_each``).
    """
    codes = _indices(alphabet, data)
    if alphabet._step is None:
        return render_tokens(alphabet._render, codes, "" if alphabet.single_char else " ")
    d, c0 = alphabet._step
    if d == 1:
        buf = codes + c0
    else:
        buf = codes * d
        buf += c0
    return str(memoryview(buf), "ascii")


def render_each(words: Sequence[FiniteWord]) -> list[str]:
    """``[w.to_text() for w in words]`` for words over one alphabet, cut
    from one ``render_symbols`` call over their concatenation."""
    if not words:
        return []
    alphabet = words[0].alphabet
    data = np.concatenate([w.data for w in words])
    text = render_symbols(alphabet, data)
    # A symbol takes its label's characters, plus one space when spaced.
    sep = 0 if alphabet.single_char else 1
    widths = np.array([len(s) + sep for s in alphabet.labels], np.int64)
    ends = np.concatenate(([0], np.cumsum(widths[data])))
    cuts = ends[np.cumsum([0, *map(len, words)])].tolist()
    return [text[a : b - sep] if b > a else "" for a, b in zip(cuts, cuts[1:])]


def _quads() -> np.ndarray:
    """"0000" to "9999" as 4 ASCII bytes each, one uint32 per number."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    quads.flags.writeable = False
    return quads


_QUADS = _quads()


def render_starts(starts: np.ndarray) -> str:
    """Ascending non-negative integers as decimal text joined by single
    spaces, equal to ``" ".join(map(str, starts.tolist()))``.

    Each value is split into g groups of four digits (g from the largest
    value's digit count), and each group's 4 bytes are gathered from
    ``_QUADS``.  The values with d digits form one run of the ascending
    array; each run's last d digit columns and a space column are copied
    into the output as one ``(count, d + 1)`` block.
    """
    starts = np.asarray(starts)
    n = starts.shape[0]
    if n == 0:
        return ""
    top = int(starts[-1])
    width = len(str(top))
    groups = -(-width // 4)
    x = starts.astype(np.uint32 if top < 1 << 32 else np.uint64)
    quads = np.empty((n, groups), np.uint32)
    for j in range(groups - 1, 0, -1):
        x, low = np.divmod(x, 10**4)
        quads[:, j] = _QUADS[low]
    quads[:, 0] = _QUADS[x]
    digits = quads.view(np.uint8)
    # runs[d - 1] = (lo, hi): the values with d digits are starts[lo:hi].
    edges = np.searchsorted(starts, [10**d for d in range(1, width)]).tolist()
    runs = list(zip([0, *edges], [*edges, n]))
    out = np.empty(sum((hi - lo) * (d + 1) for d, (lo, hi) in enumerate(runs, 1)), np.uint8)
    pos = 0
    for d, (lo, hi) in enumerate(runs, 1):
        block = out[pos : pos + (hi - lo) * (d + 1)].reshape(hi - lo, d + 1)
        # One column at a time: a (count, d) copy runs an inner loop per row.
        for k in range(d if hi > lo else 0):
            block[:, k] = digits[lo:hi, 4 * groups - d + k]
        block[:, d] = ord(" ")
        pos += block.size
    return str(memoryview(out[:-1]), "ascii")


@dataclass(frozen=True)
class Segment:
    """A closed index range [start, end] of length end - start + 1."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise BoundsError(f"invalid segment [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def bar(w: FiniteWord) -> FiniteWord:
    """Symbol-wise complement of a word over a 2-symbol alphabet."""
    if len(w.alphabet) != 2:
        raise AlphabetError(
            f"complement needs a binary alphabet, got {len(w.alphabet)} symbols"
        )
    return FiniteWord._wrap(w.alphabet, (1 - w.data).astype(np.uint8))


def concat(u: FiniteWord, v: FiniteWord) -> FiniteWord:
    if u.alphabet != v.alphabet:
        raise AlphabetError("cannot concatenate words over different alphabets")
    return FiniteWord._wrap(u.alphabet, np.concatenate([u.data, v.data]))


def segment(w, s: Segment) -> FiniteWord:
    """w[s.start .. s.end] for a FiniteWord or an infinite word source."""
    if isinstance(w, FiniteWord):
        if s.end >= len(w):
            raise BoundsError(f"segment end {s.end} out of range for |w|={len(w)}")
        return FiniteWord._wrap(w.alphabet, w.data[s.start : s.end + 1].copy())
    return w.segment(s)


def _check_pattern(x: FiniteWord, w: FiniteWord) -> None:
    """Raise unless x is a nonempty pattern over w's alphabet: the checks of
    every scan of x in w, whether it lists the starts or folds them."""
    if len(x) == 0:
        raise EmptyPatternError("occurrences of the empty word are not defined")
    if x.alphabet != w.alphabet:
        raise AlphabetError("pattern and word are over different alphabets")


def occurrences(x: FiniteWord, w: FiniteWord) -> np.ndarray:
    """All start positions of x in w, strictly increasing, overlaps included."""
    _check_pattern(x, w)
    return _kernels.find_occurrences(w.data, x.data)


def format_word(w: FiniteWord) -> str:
    """Serialize a word: an 'alphabet:' header line plus one word line.  A
    word line starting with '#' would read back as a comment, so a word
    whose first label starts with '#' raises FormatError."""
    text = w.to_text()
    if text.startswith("#"):
        raise FormatError(
            f"word label {w[0]!r} cannot be written first: a word line starting "
            "with '#' reads back as a comment"
        )
    return f"alphabet: {' '.join(w.alphabet.labels)}\n{text}\n"


def parse_word(text: str) -> FiniteWord:
    """Parse serialized word text.

    An ``alphabet: ...`` header line declares the alphabet; without one the
    alphabet is inferred from the sorted distinct symbols of the word line.
    """
    numbered = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    numbered = [(no, ln) for no, ln in numbered if ln and not ln.startswith("#")]
    if not numbered:
        raise FormatError("empty word input")
    alphabet = None
    if numbered[0][1].startswith("alphabet:"):
        no, header = numbered.pop(0)
        try:
            alphabet = Alphabet(header.split(":", 1)[1].split())
        except AlphabetError as e:
            raise FormatError(str(e), line=no) from e
    # A word may be wrapped over several lines; the lines are concatenated.
    lines = [ln for _, ln in numbered]
    spaced = any(" " in ln for ln in lines)
    body = " ".join(lines) if spaced else "".join(lines)
    try:
        if alphabet is None:
            alphabet = Alphabet(sorted(set(body.split() if spaced else body)))
        return FiniteWord.from_text(alphabet, body)
    except AlphabetError as e:
        raise FormatError(str(e)) from e
