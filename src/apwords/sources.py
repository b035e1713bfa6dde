"""Deterministic on-demand prefix providers for infinite words.

A source memoizes the longest prefix materialized so far.  Requesting the
same index twice always yields the same symbol, and extending the prefix
never changes earlier symbols.

Sharing contract: extension (``materialize_to`` and anything that calls
it) is *not* thread-safe; confine a source to one execution context while
it grows.  After ``materialize_to(n)`` returns, concurrent reads of
indices below ``n`` are safe because the buffer below ``n`` is never
rewritten.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundsError, BudgetError
from .words import Alphabet, EmissionTable, FiniteWord, Segment

DEFAULT_BUDGET = 100_000_000


def _check_index(i: int) -> None:
    if i < 0:
        raise BoundsError(f"symbol index must be >= 0, got {i}")


class InfiniteWordSource:
    """Base class; subclasses implement ``_prefix(n) -> np.ndarray``."""

    def __init__(self, alphabet: Alphabet, budget: int = DEFAULT_BUDGET):
        self.alphabet = alphabet
        self.budget = int(budget)
        self._buf = np.empty(0, np.uint8)
        self._n = 0

    # -- subclass hook -------------------------------------------------

    def _prefix(self, n: int) -> np.ndarray:
        """Compute the length-n prefix from scratch (deterministic)."""
        raise NotImplementedError

    # -- public surface ------------------------------------------------

    @property
    def materialized(self) -> int:
        return self._n

    def materialize_to(self, n: int) -> None:
        """Ensure symbols 0..n-1 are materialized."""
        n = int(n)
        if n <= self._n:
            return
        if n > self.budget:
            raise BudgetError(
                f"prefix length {n} exceeds materialization budget {self.budget}"
            )
        # Geometric over-allocation keeps repeated small extensions cheap.
        target = min(max(n, 2 * self._n, 1024), self.budget)
        self._buf = np.asarray(self._prefix(target), dtype=np.uint8)
        self._n = target

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        self.materialize_to(n)
        view = self._buf[:n]
        view.flags.writeable = False
        return view

    def prefix(self, n: int) -> FiniteWord:
        # No copy: materialize_to replaces _buf and never writes into it,
        # so the read-only view keeps its symbols.
        return FiniteWord._wrap(self.alphabet, self.prefix_array(n))

    def symbol_at(self, i: int) -> str:
        """Label of the symbol at index i (64-bit indices accepted)."""
        _check_index(i)
        self.materialize_to(i + 1)
        return self.alphabet.label(int(self._buf[i]))

    def segment(self, s: Segment) -> FiniteWord:
        self.materialize_to(s.end + 1)
        return FiniteWord._wrap(self.alphabet, self._buf[s.start : s.end + 1].copy())


class PeriodicSource(InfiniteWordSource):
    """The periodic word p p p ...; symbol lookup is O(1) at any index."""

    def __init__(self, period: FiniteWord, budget: int = DEFAULT_BUDGET):
        if len(period) == 0:
            raise ValueError("period must be nonempty")
        super().__init__(period.alphabet, budget)
        self.period = period

    def _prefix(self, n: int) -> np.ndarray:
        reps = -(-n // len(self.period))
        return np.tile(self.period.data, reps)[:n]

    def symbol_at(self, i: int) -> str:
        _check_index(i)
        return self.period[int(i) % len(self.period)]


class MorphicSource(InfiniteWordSource):
    """Fixed point of a morphism, iterated from a prolongable seed symbol.

    ``images`` is an :class:`EmissionTable` holding each symbol's image,
    a nonempty word over the same alphabet, under the symbol's index; the
    seed's image must start with the seed and have length at least 2.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        images: EmissionTable,
        seed: int,
        budget: int = DEFAULT_BUDGET,
    ):
        super().__init__(alphabet, budget)
        empty = np.flatnonzero(images.lengths == 0)
        if empty.size:
            raise ValueError(f"empty image for symbol {alphabet.label(int(empty[0]))!r}")
        self._images = images
        seed_img = images[seed]
        if int(seed_img[0]) != seed or seed_img.size < 2:
            raise ValueError(
                f"seed {alphabet.label(seed)!r} is not prolongable: its image "
                "must start with the seed and have length >= 2"
            )
        self.seed = seed

    def _prefix(self, n: int) -> np.ndarray:
        w = np.array([self.seed], np.uint8)
        while w.size < n:
            w = self._images.expand(w)
        # A view would keep the whole last expansion, up to |longest image|
        # times n symbols, alive as long as the prefix.
        return w[:n].copy() if w.size > n else w
