"""Empirical almost-periodicity analysis over finite prefixes.

All predicates here see only a finite prefix, so results are evidence
qualified by the prefix length: pass / fail-with-witness / insufficient
data, never a claim about the whole infinite word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import AlphabetError, BudgetError, EmptyPatternError, InsufficientDataError
from .generators import CounterexampleFamily
from .words import FiniteWord, _check_pattern

MAX_FACTOR_LENGTH = 64
MAX_VERIFY_LEVEL = 4


@dataclass(frozen=True)
class RegulatorReport:
    """Empirical recurrence data for one pattern over one prefix."""

    pattern: FiniteWord
    prefix_length: int
    occurrence_count: int
    min_window: int | None
    rightmost_start: int | None


@dataclass(frozen=True)
class StabilityEntry:
    factor: FiniteWord
    occurrence_count: int
    min_window_half: int | None
    min_window_full: int | None

    @property
    def stable(self) -> bool:
        return (
            self.min_window_half is not None
            and self.min_window_half == self.min_window_full
        )


@dataclass(frozen=True)
class StabilityReport:
    factor_length_bound: int
    half_length: int
    full_length: int
    entries: tuple[StabilityEntry, ...]

    @property
    def all_stable(self) -> bool:
        return all(e.stable for e in self.entries)

    def unstable(self) -> tuple[StabilityEntry, ...]:
        return tuple(e for e in self.entries if not e.stable)

    def to_tsv(self) -> str:
        def cell(v):
            return "absent" if v is None else str(v)

        rows = ["factor\tcount\tmin_window_half\tmin_window_full\tstable"]
        for e in self.entries:
            rows.append(
                "\t".join(
                    (
                        e.factor.to_text(),
                        str(e.occurrence_count),
                        cell(e.min_window_half),
                        cell(e.min_window_full),
                        "yes" if e.stable else "no",
                    )
                )
            )
        return "\n".join(rows) + "\n"


def _window(fold, text_length: int, pattern_length: int):
    """Closed form of the minimal certifying window length, from the
    (count, first, last, largest gap) of the occurrence starts (``_fold``).

    Over occurrence starts p_0 < ... < p_m the answer is
    max(p_0 + |x|, max_k (p_{k+1} - p_k) + |x| - 1, |w| - p_m), floored
    at |x|; the head and tail terms come from the windows pinned to the
    prefix boundaries.  None when there is no start.
    """
    count, first, last, gap = fold
    if not count:
        return None
    m = pattern_length
    return max(m, first + m, text_length - last, gap + m - 1)


def min_window_from_starts(starts: np.ndarray, text_length: int, pattern_length: int):
    """The minimal certifying window length (``_window``) over ascending
    occurrence starts; None when there are none."""
    if starts.size == 0:
        return None
    gap = int((starts[1:] - starts[:-1]).max()) if starts.size > 1 else 0
    fold = (starts.size, int(starts[0]), int(starts[-1]), gap)
    return _window(fold, text_length, pattern_length)


def _fold(text: np.ndarray, pattern: np.ndarray, packed=None):
    """(count, first start, last start, largest gap between consecutive
    starts) of ``pattern`` in ``text``, folded over the scan's stretches
    (``_kernels._stretches``, which takes the same arguments), so that no
    array of all the starts is built: a stretch's starts are dropped once
    folded.  (0, None, None, 0) when there is no start; the gap is 0 for
    one start."""
    count, first, last, gap = 0, None, None, 0
    for starts in _kernels._stretches(text, pattern, packed):
        if starts.size == 0:
            continue
        if first is None:
            first = int(starts[0])
        else:
            gap = max(gap, int(starts[0]) - last)
        if starts.size > 1:
            gap = max(gap, int((starts[1:] - starts[:-1]).max()))
        count += starts.size
        last = int(starts[-1])
    return count, first, last, gap


def min_window(x: FiniteWord, w: FiniteWord) -> int | None:
    """Smallest l such that every length-l window of w fully contains an
    occurrence of x; None when x does not occur in w.

    The starts are folded stretch by stretch (``_fold``): the scan holds
    one stretch's starts at a time, never all of them."""
    _check_pattern(x, w)
    return _window(_fold(w.data, x.data), len(w), len(x))


def check_window(x: FiniteWord, w: FiniteWord, window_length: int) -> int | None:
    """None when every length-`window_length` window of w contains x;
    otherwise the smallest violating window start.

    The scan runs stretch by stretch (``_kernels._stretches``) and stops at
    the first stretch that shows a violation, so a word that fails early
    is not scanned to its end."""
    if window_length < 1:
        raise ValueError(f"window length must be >= 1, got {window_length}")
    if window_length > len(w):
        raise InsufficientDataError(
            f"window length {window_length} exceeds the available prefix ({len(w)})",
            required=window_length,
        )
    if window_length < len(x):
        return 0
    _check_pattern(x, w)
    # Window [i, i+l-1] contains x iff some start p satisfies i <= p <= i+l-|x|.
    # The windows from prev+1 on (prev the previous start, -1 before the
    # first) are covered by the next start p only while i >= p - span, so
    # the first uncovered one is prev+1 for the first gap p - prev > span+1,
    # and past the last start it is prev+1 when a window fits after it.
    span = window_length - len(x)
    prev = -1
    for starts in _kernels._stretches(w.data, x.data):
        if starts.size == 0:
            continue
        if starts[0] - prev > span + 1:
            return prev + 1
        wide = starts[1:] - starts[:-1] > span + 1
        if wide.any():
            return int(starts[wide.argmax()]) + 1
        prev = int(starts[-1])
    if prev < len(w) - window_length:
        return prev + 1
    return None


def rightmost_occurrence(x: FiniteWord, w: FiniteWord) -> int | None:
    _check_pattern(x, w)
    return _fold(w.data, x.data)[2]


def regulator_report(x: FiniteWord, w: FiniteWord) -> RegulatorReport:
    _check_pattern(x, w)
    fold = _fold(w.data, x.data)
    return RegulatorReport(
        pattern=x,
        prefix_length=len(w),
        occurrence_count=fold[0],
        min_window=_window(fold, len(w), len(x)),
        rightmost_start=fold[2],
    )


# ---------------------------------------------------------------------------
# counterexample-family verification


def _letter_pairs(fam: CounterexampleFamily, n: int):
    a = fam.a_array(n)
    comp = (1 - a).astype(np.uint8)
    return {
        "aa": np.concatenate([a, a]),
        "ab": np.concatenate([a, comp]),
        "ba": np.concatenate([comp, a]),
        "bb": np.concatenate([comp, comp]),
    }


@dataclass(frozen=True)
class PairContainmentResult:
    ok: bool
    witnesses: dict[str, int | None]

    def __bool__(self):
        return self.ok

    def missing(self):
        return tuple(k for k, v in self.witnesses.items() if v is None)


def verify_pair_containment(fam: CounterexampleFamily, n: int) -> PairContainmentResult:
    """Check that the level-(n+1) block contains all four two-letter words
    over the letters a_n and bar(a_n); returns one witness position each."""
    if len(fam.alphabet) != 2:
        raise AlphabetError("pair containment is defined over a binary family")
    target = fam.a_array(n + 1)
    witnesses = {}
    for name, pair in _letter_pairs(fam, n).items():
        starts = _kernels.find_occurrences(target, pair)
        witnesses[name] = int(starts[0]) if starts.size else None
    return PairContainmentResult(
        ok=all(v is not None for v in witnesses.values()), witnesses=witnesses
    )


def verify_alignment_lemma(fam: CounterexampleFamily, m: int) -> bool:
    """Check that a_m occurs in each two-letter word over {a_m, bar(a_m)}
    only at position 0 or position |a_m|."""
    if m < 1:
        raise ValueError("alignment lemma needs m >= 1")
    a = fam.a_array(m)
    allowed = {0, a.shape[0]}
    for pair in _letter_pairs(fam, m).values():
        starts = _kernels.find_occurrences(pair, a)
        if not set(int(p) for p in starts) <= allowed:
            return False
    return True


def _c_absent(fam: CounterexampleFamily, n: int, prefix: np.ndarray, codes=None) -> bool:
    """Whether c_n occurs in ``prefix`` only before block n+1 (``codes``: its packed codes)."""
    count, _, last, _ = _fold(prefix, fam.c(n).data, codes)
    return count == 0 or last < fam.l_index(n + 1)


def verify_cn_absent(fam: CounterexampleFamily, n: int, horizon: int) -> bool:
    """Check that block n's repeated word has no occurrence starting at or
    after the start of block n+1, within the given prefix horizon.

    A finite horizon gives one-sided evidence only.
    """
    if n < 1:
        raise ValueError("the absence claim needs n >= 1")
    required = fam.l_index(n + 1) + 2 * len(fam.c(n))
    if horizon < required:
        raise InsufficientDataError(
            f"horizon {horizon} too small; need at least {required}",
            required=required,
        )
    return _c_absent(fam, n, fam.prefix_array(horizon))


class LemmaCheck(NamedTuple):
    """One check of ``verify_theorem1``: the lemma, the level n it was
    checked at, and whether it held."""

    name: str
    level: int
    ok: bool


def verify_theorem1(
    fam: CounterexampleFamily, max_n: int, horizon: int
) -> tuple[LemmaCheck, ...]:
    """The lemma suite behind Theorem 1 for levels up to ``max_n``, over the
    length-``horizon`` prefix: ``block-layout`` for n = 0..max_n (block n of
    the prefix is c_n), then for each n = 1..max_n ``pair-containment``,
    ``alignment`` and ``c-absent`` (as ``verify_pair_containment``,
    ``verify_alignment_lemma`` and ``verify_cn_absent``) and
    ``window-bound``: the minimal windows of a_n and bar(a_n) are at most
    min(5(5^(n+2) - 1)/2 + 2 * 5^(n+2), horizon).

    The prefix is built and packed once; its scans read those codes.  The
    horizon must be at least 4 * l_(max_n+2), which covers each c-absent
    check, since tau >= 9 gives l_(n+2) >= l_(n+1) + 2|c_n|; a shorter one
    raises ``InsufficientDataError`` carrying that length.  A level past
    ``MAX_VERIFY_LEVEL`` raises ``BudgetError``.
    """
    if max_n > MAX_VERIFY_LEVEL:
        raise BudgetError(f"level {max_n} exceeds the verification budget {MAX_VERIFY_LEVEL}")
    if max_n < 1:
        raise ValueError(f"the lemma suite needs max_n >= 1, got {max_n}")
    required = 4 * fam.l_index(max_n + 2)
    if horizon < required:
        raise InsufficientDataError(
            f"horizon {horizon} too small; need at least {required}", required=required
        )
    prefix = fam.prefix_array(horizon)
    codes = _kernels.pack(prefix)
    checks = []
    for n in range(max_n + 1):
        c, start = fam.c(n).data, fam.l_index(n)
        checks.append(
            LemmaCheck("block-layout", n, np.array_equal(prefix[start : start + c.size], c))
        )
    for n in range(1, max_n + 1):
        a = fam.a_array(n)
        bound = min(5 * (5 ** (n + 2) - 1) // 2 + 2 * 5 ** (n + 2), horizon)
        windows = [_window(_fold(prefix, x, codes), horizon, a.size) for x in (a, 1 - a)]
        checks += [
            LemmaCheck("pair-containment", n, verify_pair_containment(fam, n).ok),
            LemmaCheck("alignment", n, verify_alignment_lemma(fam, n)),
            LemmaCheck("c-absent", n, _c_absent(fam, n, prefix, codes)),
            LemmaCheck("window-bound", n, all(w is not None and w <= bound for w in windows)),
        ]
    return tuple(checks)


# ---------------------------------------------------------------------------
# stability reports


def _stability_entry(alphabet, pat: np.ndarray, starts: np.ndarray, half: int, n: int):
    """The entry of factor `pat`, with ascending `starts` in a word of length n."""
    m = pat.shape[0]
    in_half = starts[: int(np.searchsorted(starts, half - m, "right"))]
    return StabilityEntry(
        factor=FiniteWord._wrap(alphabet, pat),
        occurrence_count=int(starts.size),
        min_window_half=min_window_from_starts(in_half, half, m),
        min_window_full=min_window_from_starts(starts, n, m),
    )


def _packed_shift(half: int, sigma: int) -> int:
    """Bits that hold a window start in the int64 sort values
    ``key << shift | start`` of ``recurrence_stability``.

    A key is its window's base-|A| value until the next length's values
    could pass 2^63; the keys are then re-ranked densely from 0, and the
    next length's keys are below half * |A| (ranks count from 0, and the
    first half has at most half windows).  So the values fit int64 at
    every length when they fit for keys below half * |A|, the bound
    checked here.  A start is below 2^shift with shift =
    half.bit_length() <= ceil(log2(half + 1)), so such a value is below
    half * |A| * 2^shift <= 2 * half^2 * |A|.  With |A| <= 256 that fits
    int64 for words below about 2.6 * 10^8 symbols, above the
    materialization budget; a ``--word-file`` is not budgeted, so a word
    past the bound is rejected here.
    """
    shift = half.bit_length()
    if (half * sigma) << shift > 1 << 63:
        raise ValueError(
            f"stability keys of a word of {2 * half} symbols over {sigma} labels "
            "overflow int64 (the limit is about 2.6e8 symbols)"
        )
    return shift


def recurrence_stability(
    w: FiniteWord, k: int, required: Iterable[FiniteWord] = ()
) -> StabilityReport:
    """Compare each short factor's minimal window over the first half of w
    with its minimal window over all of w.

    Candidate factors are the distinct factors of length <= k occurring in
    the first half (factors first appearing late have no meaningful gap
    statistics), plus any explicitly `required` factors, which are reported
    even when absent; an absent required factor is unstable by definition.

    The factors are listed by one sort of window keys per length L over
    the first half, the refinement step of Karp, Miller and Rosenberg
    (STOC 1972).  A window's key is its base-|A| value, one multiply-add
    from its key at length L - 1; only when the next length's keys could
    overflow int64 are they replaced by their dense ranks in sorted order
    (a binary word of 10^5 symbols first needs that after L = 47).  Each
    run of equal keys in sorted order is one factor and
    holds that factor's first-half starts in ascending order, so the sort
    gives every factor's first-half count and minimal window.  The other
    starts come from one scan per factor of the second half only, the text
    from half - L + 1 on.  A required factor that the listing does not
    produce is scanned once over all of w.  The word is packed once
    (``_kernels.pack``), and every scan reads those codes, sliced where its
    text starts.
    """
    if len(w) < 2:
        raise ValueError("stability needs a word of length >= 2")
    if not 1 <= k <= MAX_FACTOR_LENGTH:
        raise ValueError(f"factor length bound must be in 1..{MAX_FACTOR_LENGTH}")
    n, half, data, alphabet = len(w), len(w) // 2, w.data, w.alphabet
    unlisted = {}
    for r in required:
        if r.alphabet != alphabet:
            raise AlphabetError("required factor over a different alphabet")
        if len(r) == 0:
            raise EmptyPatternError("required factor must be nonempty")
        unlisted.setdefault(r.data.tobytes(), r.data)
    sigma = len(alphabet)
    shift = _packed_shift(half, sigma)
    # The key of the window at i is the base-|A| value of its symbols,
    # below top = |A|^L, so equal keys mean equal windows and the keys sort
    # as the windows do.  Sorting key << shift | i orders equal keys by
    # start.  When the next length's values could pass 2^63, this length's
    # keys become their dense ranks (from 0) in sorted order and top the
    # number of ranks; the next symbols then extend the ranks in base |A|.
    key = np.zeros(half, np.int64)
    top = 1
    index = np.arange(half, dtype=np.int64)
    packed, starts, gaps = (np.empty(half, np.int64) for _ in range(3))
    head = np.empty(half, bool)
    codes = _kernels.pack(data)
    entries = []
    for length in range(1, min(k, half) + 1):
        m = half - length + 1
        p, s, g, h = packed[:m], starts[:m], gaps[:m], head[:m]
        key[:m] *= sigma
        key[:m] += data[length - 1 : half]
        top *= sigma
        np.left_shift(key[:m], shift, out=p)
        p |= index[:m]
        p.sort()
        np.right_shift(p, shift, out=g)
        h[0] = True
        np.not_equal(g[1:], g[:-1], out=h[1:])
        np.bitwise_and(p, (1 << shift) - 1, out=s)
        # Per run: first and last start, and the largest gap between
        # consecutive starts (0 for one start), the gaps across runs zeroed.
        runs = np.flatnonzero(h)
        ends = np.append(runs[1:], m)
        np.subtract(s[1:], s[:-1], out=g[1:])
        np.copyto(g, 0, where=h)
        first, last, gap = s[runs], s[ends - 1], np.maximum.reduceat(g, runs)
        in_half = np.maximum(np.maximum(first + length, half - last), gap + length - 1)
        if (top * sigma) << shift > 1 << 63:
            h[0] = False
            np.cumsum(h, out=g)
            key[s] = g
            top = runs.size
        offset = half - length + 1
        text, text_codes = data[offset:], codes[offset:]
        for start, last_i, gap_i, count, window in zip(
            first.tolist(),
            last.tolist(),
            gap.tolist(),
            (ends - runs).tolist(),
            in_half.tolist(),
        ):
            pat = data[start : start + length]
            if unlisted:
                unlisted.pop(pat.tobytes(), None)
            later = _kernels.find_occurrences(text, pat, packed=text_codes)
            if later.size:
                gap_i = max(gap_i, int(later[0]) + offset - last_i)
                if later.size > 1:
                    gap_i = max(gap_i, int((later[1:] - later[:-1]).max()))
                last_i = int(later[-1]) + offset
            entries.append(
                StabilityEntry(
                    factor=FiniteWord._wrap(alphabet, pat),
                    occurrence_count=count + int(later.size),
                    min_window_half=window,
                    min_window_full=max(start + length, n - last_i, gap_i + length - 1),
                )
            )
    entries += [
        _stability_entry(
            alphabet, pat, _kernels.find_occurrences(data, pat, packed=codes), half, n
        )
        for pat in unlisted.values()
    ]
    entries.sort(key=lambda e: (len(e.factor), e.factor.data.tobytes()))
    return StabilityReport(
        factor_length_bound=k,
        half_length=half,
        full_length=n,
        entries=tuple(entries),
    )


def eap_cut_search(
    w: FiniteWord,
    k: int,
    cuts: Sequence[int],
    required: Iterable[FiniteWord] = (),
) -> int | None:
    """Smallest listed cut whose suffix has a fully stable report; None if
    none qualifies.  A positive result is evidence the word becomes
    uniformly recurrent after the cut; absence is evidence (not proof)
    against.  An empty cut list is a ValueError, like an unsorted one."""
    cuts = [int(c) for c in cuts]
    if not cuts:
        raise ValueError("the cut list is empty")
    if sorted(cuts) != cuts:
        raise ValueError("cuts must be sorted ascending")
    for c in cuts:
        if not 0 <= c < len(w) / 2:
            raise ValueError(f"cut {c} must satisfy 0 <= cut < |w|/2")
    required = tuple(required)
    for c in cuts:
        report = recurrence_stability(w[c:], k, required=required)
        if report.all_stable:
            return c
    return None
