"""Generators for infinite words: the AP-but-not-EAP counterexample
family, periodic words and morphic fixed points.

The counterexample family is built from the block recurrence

    a_0 = "1",   a_{n+1} = a_n . bar(a_n) . bar(a_n) . a_n . a_n

with block n of the infinite word consisting of a_n repeated tau(n)
times (tau(n) in {9, 10}; constant 10 by default).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import AlphabetError, BudgetError, FormatError
from .machines import Homomorphism, _content_lines, _image_lines, _read, _split_emission
from .sources import DEFAULT_BUDGET, InfiniteWordSource, MorphicSource, PeriodicSource
from .words import BINARY, Alphabet, FiniteWord

MAX_LEVEL = 16
ALLOWED_REPEATS = (9, 10)


class CounterexampleFamily:
    """Caches the blocks a_n and block-start indices l_n for a given tau."""

    def __init__(
        self,
        tau: Callable[[int], int] | None = None,
        budget: int = DEFAULT_BUDGET,
    ):
        self.alphabet = BINARY
        self._tau = tau
        self.budget = int(budget)
        self._a_cache: list[np.ndarray] = [np.array([1], np.uint8)]
        self._tau_cache: list[int] = []

    def tau(self, n: int) -> int:
        """Repetition count for block n; validated to lie in {9, 10}."""
        while len(self._tau_cache) <= n:
            k = len(self._tau_cache)
            value = 10 if self._tau is None else int(self._tau(k))
            if value not in ALLOWED_REPEATS:
                raise ValueError(
                    f"tau({k}) = {value}; repetition counts must be in {ALLOWED_REPEATS}"
                )
            self._tau_cache.append(value)
        return self._tau_cache[n]

    def _check_level(self, n: int) -> None:
        if n < 0:
            raise ValueError("level must be a natural number")
        if n > MAX_LEVEL:
            raise BudgetError(f"level {n} exceeds the level bound {MAX_LEVEL}")
        if 5**n > self.budget:
            raise BudgetError(
                f"|a_{n}| = 5^{n} exceeds materialization budget {self.budget}"
            )

    def a_array(self, n: int) -> np.ndarray:
        self._check_level(n)
        while len(self._a_cache) <= n:
            prev = self._a_cache[-1]
            comp = (1 - prev).astype(np.uint8)
            self._a_cache.append(np.concatenate([prev, comp, comp, prev, prev]))
        return self._a_cache[n]

    def a(self, n: int) -> FiniteWord:
        """The block word a_n (length 5^n)."""
        return FiniteWord._wrap(self.alphabet, self.a_array(n).copy())

    def c(self, n: int) -> FiniteWord:
        """a_n repeated tau(n) times (length tau(n) * 5^n)."""
        base = self.a_array(n)
        return FiniteWord._wrap(self.alphabet, np.tile(base, self.tau(n)))

    def l_index(self, n: int) -> int:
        """Start index of block n: sum of tau(k) * 5^k for k < n."""
        if n < 0:
            raise ValueError("block index must be a natural number")
        if n > MAX_LEVEL + 1:
            raise BudgetError(f"block index {n} exceeds the level bound {MAX_LEVEL}")
        return sum(self.tau(k) * 5**k for k in range(n))

    def prefix_array(self, length: int) -> np.ndarray:
        """First `length` symbols of c_0 c_1 c_2 ...

        Block n is copied in one repetition at a time (at most tau(n)
        copies) of a_m, the shortest block with 5^m >= min(take, 5^n) for
        the take symbols needed from it.  The prefix-nesting property
        a_k = a_{k+1}[0 .. 5^k - 1] makes a_m a prefix of a_n, so a block
        entered only partially never builds the full a_n and the working
        set stays proportional to the requested length.
        """
        length = int(length)
        if length < 0:
            raise ValueError("length must be a natural number")
        if length > self.budget:
            raise BudgetError(
                f"prefix length {length} exceeds materialization budget {self.budget}"
            )
        out = np.empty(length, np.uint8)
        pos = 0
        n = 0
        while pos < length:
            if n > MAX_LEVEL:
                raise BudgetError(
                    f"prefix of length {length} needs blocks beyond level {MAX_LEVEL}"
                )
            unit = 5**n
            take = min(self.tau(n) * unit, length - pos)
            m = 0
            while 5**m < min(take, unit):
                m += 1
            a = self.a_array(m)
            for r in range(0, take, a.size):
                out[pos + r : pos + min(take, r + a.size)] = a[: take - r]
            pos += take
            n += 1
        return out

    def prefix(self, length: int) -> FiniteWord:
        return FiniteWord._wrap(self.alphabet, self.prefix_array(length))

    def source(self) -> "OmegaSource":
        return OmegaSource(self)


class OmegaSource(InfiniteWordSource):
    """Memoizing source over a counterexample family's infinite word."""

    def __init__(self, family: CounterexampleFamily):
        super().__init__(family.alphabet, budget=family.budget)
        self.family = family

    def _prefix(self, n: int) -> np.ndarray:
        return self.family.prefix_array(n)


def periodic_source(period: FiniteWord, budget: int = DEFAULT_BUDGET) -> PeriodicSource:
    return PeriodicSource(period, budget)


def morphic_source(
    rules: Homomorphism, seed: str, budget: int = DEFAULT_BUDGET
) -> MorphicSource:
    """Fixed point of the morphism, iterated from `seed`.

    The rules must map an alphabet into itself and the seed's image must
    start with the seed and have length at least 2.
    """
    if rules.source != rules.target:
        raise ValueError(
            "a fixed point needs rules mapping an alphabet into itself"
        )
    alphabet = rules.source
    return MorphicSource(alphabet, rules._images, alphabet.index(seed), budget)


def thue_morse_source(budget: int = DEFAULT_BUDGET) -> MorphicSource:
    """Fixed point of 0 -> 01, 1 -> 10 starting from 0."""
    rules = Homomorphism(BINARY, BINARY, {"0": "01", "1": "10"})
    return morphic_source(rules, "0", budget)


def tau_from_table(rows: Sequence[int]) -> Callable[[int], int]:
    """Total tau from an explicit finite table; indices beyond the table
    are 10."""
    table = [int(r) for r in rows]
    return lambda n: table[n] if n < len(table) else 10


def load_tau_table(path) -> Callable[[int], int]:
    """Read a tau table file: one repetition count (9 or 10) per line, '#'
    comments."""
    rows = []
    for no, text in _content_lines(_read(path)):
        try:
            rows.append(int(text))
        except ValueError:
            raise FormatError(f"bad repetition count {text!r}", line=no) from None
        if rows[-1] not in ALLOWED_REPEATS:
            raise FormatError(f"repetition count {text} not in {ALLOWED_REPEATS}", line=no)
    return tau_from_table(rows)


def load_morphism_rules(path) -> Homomorphism:
    """Read a rules file: one `<symbol> -> <image word>` line per rule,
    '#' comments.  The alphabet is the rule symbols in file order; every
    character of an image is a symbol (`-` too)."""
    rules = _image_lines(_content_lines(_read(path)))
    if not rules:
        raise FormatError("no rules in morphism file")
    try:
        alphabet = Alphabet([sym for _, sym, _ in rules])
    except AlphabetError as e:
        raise FormatError(str(e)) from e
    if not alphabet.single_char:
        raise FormatError("morphism rule files support single-character symbols only")
    images = {sym: _split_emission(image, alphabet, None, no) for no, sym, image in rules}
    return Homomorphism(alphabet, alphabet, images)
