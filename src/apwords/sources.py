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


# A period is lifted when the prefix holds it at least _PERIOD_SHARE times.
# Level 0 of its lift costs about 4 us a period symbol, the chunk lift's run
# 5-18 ns an input symbol.  On periods of 5 to 65536 random binary symbols
# at 10^5, 10^6 and 10^7 symbols through 2, 16 and 64 states (2 vCPU, numpy
# 2.4), the two broke even at n / p between about 330 (64 states) and 900
# (2 states); below that the lift lost, by up to 4.8 times.
_PERIOD_SHARE = 1024


def _levels(cells: int, width: int, size: int) -> int | None:
    """The most levels J >= 1 with width * size^J <= cells, or None when
    there is none: the levels of a lift of ``width`` cells per state at
    level 0 that grows by a factor ``size`` a level."""
    levels = 0
    while width * size ** (levels + 1) <= cells:
        levels += 1
    return levels or None


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

    def _blocks(self, n: int, cells: int):
        """The length-n prefix as blocks, for a machine run whose lift may
        hold about ``cells`` cells per state (``_kernels._run_states``):
        ``(base, images, segments)``, where the prefix is, over the segments
        ``(j, top)`` in order, base(phi^j(top)) cut to n symbols, with
        ``base[s]`` the symbols of letter s and ``images[s]`` its image
        under the uniform morphism phi.  None for a source that offers no
        blocks, whose prefix is run as raw input.  Called after the prefix
        is materialized."""
        return None

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

    def _blocks(self, n: int, cells: int):
        """One letter whose image is the period repeated 2^J times, built
        by doubling.  Level 0 reads the period one numpy call per symbol,
        so a period over n / ``_PERIOD_SHARE`` symbols is run as raw
        input."""
        period = self.period.data
        levels = _levels(cells, period.shape[0], 2)
        if levels is None or period.shape[0] * _PERIOD_SHARE > n:
            return None
        top = np.zeros(-(-n // (period.shape[0] << levels)), np.uint8)
        return period[None, :], np.zeros((1, 2), np.uint8), [(levels, top)]


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

    def _blocks(self, n: int, cells: int):
        """phi^J(u), u the source's own prefix of n / |phi|^J symbols; a
        morphism whose images differ in length offers no blocks."""
        lengths = self._images.lengths
        size = int(lengths[0])
        levels = None if np.ptp(lengths) else _levels(cells, lengths.shape[0], size)
        if levels is None:
            return None
        base = np.arange(lengths.shape[0], dtype=np.uint8)[:, None]
        return base, self._images._padded, [(levels, self.prefix_array(-(-n // size**levels)))]

    def _prefix(self, n: int) -> np.ndarray:
        w = np.array([self.seed], np.uint8)
        while w.size < n:
            w = self._images.expand(w)
        # A view would keep the whole last expansion, up to |longest image|
        # times n symbols, alive as long as the prefix.
        return w[:n].copy() if w.size > n else w
