import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    AlphabetError,
    BudgetError,
    CounterexampleFamily,
    EmptyPatternError,
    FiniteWord,
    InsufficientDataError,
    LemmaCheck,
    bar,
    check_window,
    eap_cut_search,
    min_window,
    occurrences,
    recurrence_stability,
    regulator_report,
    rightmost_occurrence,
    tau_from_table,
    thue_morse_source,
    verify_alignment_lemma,
    verify_cn_absent,
    verify_pair_containment,
    verify_theorem1,
)
from apwords import _kernels, cli
from apwords.analysis import MAX_VERIFY_LEVEL, _packed_shift
from conftest import bword, naive_cut_search, naive_occurrences, naive_stability, phi_power

# Stretch lengths patched into ``_kernels._CHUNK``, so that scans of these
# short words cross stretch edges (a pattern of m symbols makes stretches
# of max(_CHUNK, m) starts).
CHUNKS = st.sampled_from([1, 3, 8])


def _chunked(chunk):
    return mock.patch.object(_kernels, "_CHUNK", chunk)


def oracle_min_window(x, w):
    """Exhaustive search over all window lengths (independent of the
    closed form under test)."""
    starts = set(int(p) for p in occurrences(x, w))
    if not starts:
        return None
    n, m = len(w), len(x)
    for l in range(m, n + 1):
        if all(
            any(p in starts for p in range(i, i + l - m + 1))
            for i in range(n - l + 1)
        ):
            return l
    return n


def oracle_first_violation(x, w, l):
    """Smallest start of a length-l window of w without an occurrence of x,
    by substring search over every window; None when there is none."""
    xs, ws = x.to_text(), w.to_text()
    return next((i for i in range(len(ws) - l + 1) if xs not in ws[i : i + l]), None)


class TestMinWindow:
    def test_pattern_everywhere(self):
        assert min_window(bword("1"), bword("1111")) == 1

    def test_single_symbol_gap(self):
        # Computed by the exhaustive oracle: windows of length 3 all
        # contain "1"; length 2 admits the window "00".
        assert oracle_min_window(bword("1"), bword("10011")) == 3
        assert min_window(bword("1"), bword("10011")) == 3

    def test_absent(self, ab):
        z = Alphabet("abz")
        assert min_window(z.word("ab"), z.word("zzz")) is None

    def test_empty_pattern(self):
        with pytest.raises(EmptyPatternError):
            min_window(bword(""), bword("1"))

    @given(
        st.text(alphabet="01", min_size=1, max_size=24),
        st.text(alphabet="01", min_size=1, max_size=5),
        CHUNKS,
    )
    @example("0" * 5 + "1" + "0" * 5 + "1" * 5, "1", 8)  # a gap across the edge at 8
    @example("0001100", "011", 3)  # the occurrence at 2 straddles the edge at 3
    @example("0000100000", "1", 3)  # a single occurrence
    @example("000000000", "11", 1)  # no occurrence
    @settings(max_examples=300)
    def test_matches_oracle(self, wtext, xtext, chunk):
        w, x = bword(wtext), bword(xtext)
        with _chunked(chunk):
            got = min_window(x, w)
        assert got == oracle_min_window(x, w)

    def test_holds_one_stretch_of_starts_at_a_time(self):
        # 01 starts at every other position of (01)^(4C): 2C starts in 8
        # stretches of C = _CHUNK starts.  Folded stretch by stretch, the
        # peak stays below two stretches' worth of starts (8 bytes each),
        # where a list of all the starts is 16C bytes.
        chunk = _kernels._CHUNK
        w = FiniteWord(BINARY, np.tile(np.array([0, 1], np.uint8), 4 * chunk))
        x = bword("01")
        tracemalloc.start()
        try:
            got = min_window(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 3
        assert peak < 2 * 8 * chunk

    def test_monotone_in_prefix_length(self):
        w = CounterexampleFamily().prefix(5000)
        x = bword("10011")
        for cut in (100, 500, 2000):
            assert min_window(x, w[:cut]) <= min_window(x, w)


class TestCheckWindow:
    def test_paper_bound_small_prefix(self):
        w = CounterexampleFamily().prefix(100_000)
        assert check_window(bword("10011"), w, 560) is None

    def test_violation_witness(self):
        assert check_window(bword("1"), bword("10011"), 2) == 1
        assert check_window(bword("1"), bword("10011"), 3) is None

    def test_window_longer_than_prefix(self):
        with pytest.raises(InsufficientDataError):
            check_window(bword("1"), bword("10011"), 6)

    @pytest.mark.parametrize("window_length", [2, 3])
    def test_foreign_pattern_rejected_at_any_window(self, window_length):
        # Shorter or not than the pattern, the window never hides the alphabet error.
        with pytest.raises(AlphabetError):
            check_window(Alphabet("xy").word("xyx"), Alphabet("ab").word("abab"), window_length)

    @given(
        st.text(alphabet="01", min_size=2, max_size=24),
        st.text(alphabet="01", min_size=1, max_size=4),
        st.integers(min_value=1, max_value=24),
        CHUNKS,
    )
    @settings(max_examples=300)
    def test_equivalent_to_min_window(self, wtext, xtext, l, chunk):
        w, x = bword(wtext), bword(xtext)
        if l > len(w):
            return
        with _chunked(chunk):
            mw = min_window(x, w)
            result = check_window(x, w, l)
        if mw is not None and l >= mw:
            assert result is None
        else:
            assert result is not None
            # the returned window really lacks the pattern
            window = w[result : result + l]
            assert len(occurrences(x, window)) == 0 if len(x) <= l else True

    @given(
        wtext=st.text(alphabet="01", min_size=1, max_size=40),
        xtext=st.text(alphabet="01", min_size=1, max_size=5),
        l=st.integers(min_value=1, max_value=40),
        chunk=CHUNKS,
    )
    @example(wtext="0" * 9 + "1" + "0" * 9, xtext="00", l=3, chunk=8)  # unary runs: 8
    @example(wtext="0" * 20, xtext="000", l=3, chunk=8)  # unary, no violation
    @example(wtext="0110" * 6, xtext="0110", l=6, chunk=3)  # periodic: 1
    @example(wtext="0110" * 6, xtext="0110", l=7, chunk=3)  # periodic, no violation
    @example(wtext="0110" * 6 + "1111", xtext="0110", l=7, chunk=8)  # periodic, tail: 21
    @example(wtext="0101", xtext="11", l=2, chunk=1)  # x absent
    # Stretch edges (stretches of max(chunk, |x|) starts): the first
    # violation is the edge at 8, found from the gap across it; an
    # occurrence at 2 straddles the edge at 3; a single occurrence; none.
    @example(wtext="1" * 8 + "00" + "1" * 4, xtext="1", l=2, chunk=8)
    @example(wtext="0001100", xtext="011", l=4, chunk=3)
    @example(wtext="0000100000", xtext="1", l=3, chunk=3)
    @example(wtext="000000000", xtext="11", l=2, chunk=1)
    @settings(max_examples=500)
    def test_smallest_violating_start(self, wtext, xtext, l, chunk):
        w, x = bword(wtext), bword(xtext)
        assume(l <= len(w))
        with _chunked(chunk):
            got = check_window(x, w, l)
        assert got == oracle_first_violation(x, w, l)

    def test_stops_at_the_first_violating_stretch(self):
        # The window at 3 misses x: the first of the 8 stretches shows it,
        # and the scan stops there.
        w = bword("111" + "00" + "1" * 59)
        with _chunked(8), mock.patch.object(
            _kernels, "_stretch_starts", wraps=_kernels._stretch_starts
        ) as spy:
            assert check_window(bword("1"), w, 2) == 3
        assert spy.call_count == 1


class TestRightmost:
    def test_examples(self):
        assert rightmost_occurrence(bword("10011"), bword("1001110011")) == 5
        z = Alphabet("abcz")
        assert rightmost_occurrence(z.word("z"), z.word("abc")) is None
        a = Alphabet("ab")
        assert rightmost_occurrence(a.word("aa"), a.word("aaaa")) == 2

    @given(
        st.text(alphabet="01", min_size=1, max_size=24),
        st.text(alphabet="01", min_size=1, max_size=5),
        CHUNKS,
    )
    @example("0001100", "011", 3)  # the occurrence at 2 straddles the edge at 3
    @example("000000000", "11", 1)  # no occurrence
    @settings(max_examples=200)
    def test_matches_oracle(self, wtext, xtext, chunk):
        w, x = bword(wtext), bword(xtext)
        starts = naive_occurrences(x, w)
        with _chunked(chunk):
            got = rightmost_occurrence(x, w)
        assert got == (starts[-1] if starts else None)


class TestRegulatorReport:
    def test_invariants(self):
        w = CounterexampleFamily().prefix(1000)
        for pattern in ("1", "10011", "00"):
            r = regulator_report(bword(pattern), w)
            assert r.prefix_length == 1000
            assert (r.min_window is None) == (r.occurrence_count == 0)
            if r.min_window is not None:
                assert r.min_window >= len(r.pattern)
                assert r.rightmost_start + len(r.pattern) <= r.prefix_length

    def test_absent_pattern(self):
        r = regulator_report(bword("11111111"), bword("00100100"))
        assert r.occurrence_count == 0
        assert r.min_window is None
        assert r.rightmost_start is None

    @given(
        st.text(alphabet="01", min_size=1, max_size=24),
        st.text(alphabet="01", min_size=1, max_size=5),
        CHUNKS,
    )
    @example("0" * 5 + "1" + "0" * 5 + "1" * 5, "1", 8)  # a gap across the edge at 8
    @example("0000100000", "1", 3)  # a single occurrence
    @settings(max_examples=200)
    def test_matches_oracle(self, wtext, xtext, chunk):
        w, x = bword(wtext), bword(xtext)
        starts = naive_occurrences(x, w)
        with _chunked(chunk):
            r = regulator_report(x, w)
        assert r.occurrence_count == len(starts)
        assert r.min_window == oracle_min_window(x, w)
        assert r.rightmost_start == (starts[-1] if starts else None)


class TestLemmaChecks:
    def test_pair_containment_level0(self, family):
        result = verify_pair_containment(family, 0)
        assert result.ok
        # a_1 = 10011 contains 11, 10, 01, 00
        for pair in ("11", "10", "01", "00"):
            assert pair in family.a(1).to_text()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_pair_containment(self, family, n):
        result = verify_pair_containment(family, n)
        assert result.ok
        assert result.missing() == ()
        for pos in result.witnesses.values():
            assert 0 <= pos <= 5 ** (n + 1)

    @pytest.mark.parametrize("n", [MAX_VERIFY_LEVEL + 1, MAX_VERIFY_LEVEL + 2])
    def test_pair_containment_past_verify_budget(self, family, n):
        # a_(n+1) = phi^n(10011), and 10011 holds 10, 00, 01 and 11 at 0..3,
        # so phi^n of each pair starts at j * 5^n: the lemma holds by
        # construction at every level.
        target = phi_power([1, 0, 0, 1, 1], n)
        assert np.array_equal(family.a_array(n + 1), target)
        for j, pair in enumerate(([1, 0], [0, 0], [0, 1], [1, 1])):
            at = target[j * 5**n : (j + 2) * 5**n]
            assert np.array_equal(at, phi_power(pair, n))
        assert verify_pair_containment(family, n).ok

    def test_pair_containment_requires_binary(self, family):
        family.alphabet = Alphabet("abc")
        with pytest.raises(AlphabetError):
            verify_pair_containment(family, 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_alignment(self, family, m):
        assert verify_alignment_lemma(family, m)

    def test_alignment_explicit_level1(self, family):
        # occurrences of 10011 in the four two-letter words are in {0, 5}
        a = family.a(1)
        from apwords import bar, concat

        for pair in (
            concat(a, a),
            concat(a, bar(a)),
            concat(bar(a), a),
            concat(bar(a), bar(a)),
        ):
            assert set(occurrences(a, pair).tolist()) <= {0, 5}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cn_absent(self, family, n):
        horizon = max(100_000, family.l_index(n + 2))
        assert verify_cn_absent(family, n, horizon)

    def test_c1_occurs_before_boundary(self, family):
        prefix = family.prefix(100_000)
        starts = occurrences(family.c(1), prefix)
        assert starts[0] == 10

    def test_insufficient_horizon(self, family):
        with pytest.raises(InsufficientDataError) as err:
            verify_cn_absent(family, 1, 100)
        assert err.value.required == family.l_index(2) + 2 * 50


def oracle_theorem1(fam, max_n, horizon):
    """The lemma suite check by check from the single checks: the block
    layout by word equality, c-absent by ``verify_cn_absent`` and each
    window bound by ``check_window`` (oracle for verify_theorem1)."""
    prefix = fam.prefix(horizon)
    rows = []
    for n in range(max_n + 1):
        c, start = fam.c(n), fam.l_index(n)
        rows.append(("block-layout", n, prefix[start : start + len(c)] == c))
    for n in range(1, max_n + 1):
        window = min(5 * (5 ** (n + 2) - 1) // 2 + 2 * 5 ** (n + 2), horizon)
        rows += [
            ("pair-containment", n, bool(verify_pair_containment(fam, n))),
            ("alignment", n, verify_alignment_lemma(fam, n)),
            ("c-absent", n, verify_cn_absent(fam, n, horizon)),
            (
                "window-bound",
                n,
                all(check_window(x, prefix, window) is None for x in (fam.a(n), bar(fam.a(n)))),
            ),
        ]
    return rows


class _PatchedFamily(CounterexampleFamily):
    """Writes ``patch`` over every prefix from position ``at``."""

    def __init__(self, at, patch, **kwargs):
        super().__init__(**kwargs)
        self.at, self.patch = at, np.asarray(patch, np.uint8)

    def prefix_array(self, length):
        arr = super().prefix_array(length)
        piece = self.patch[: max(length - self.at, 0)]
        arr[self.at : self.at + piece.size] = piece
        return arr


TAU_9_10_9 = tau_from_table([9, 10, 9])


class TestVerifyTheorem1:
    @pytest.mark.parametrize(
        "tau, max_n", [(None, 3), (None, 4), (TAU_9_10_9, 4), (TAU_9_10_9, 1)]
    )
    def test_all_hold_in_cli_order(self, tau, max_n):
        fam = CounterexampleFamily(tau=tau)
        horizon = 4 * fam.l_index(max_n + 2)
        checks = verify_theorem1(fam, max_n, horizon)
        assert all(isinstance(c, LemmaCheck) and c.ok is True for c in checks)
        names = [f"{c.name} n={c.level}" for c in checks]
        expected = [f"block-layout n={n}" for n in range(max_n + 1)]
        for n in range(1, max_n + 1):
            expected += [
                f"{lemma} n={n}"
                for lemma in ("pair-containment", "alignment", "c-absent", "window-bound")
            ]
        assert names == expected

    @given(st.booleans(), st.integers(0, 31239), st.integers(1, 3))
    @example(False, 777, 3)
    @example(False, 3000, 3)
    @example(False, 5, 2)
    @settings(max_examples=40, deadline=None)
    def test_tampered_matches_oracle(self, with_tau, index, max_n):
        fam = cli._TamperedFamily(index, tau=TAU_9_10_9 if with_tau else None)
        horizon = max(4 * fam.l_index(max_n + 2), index + 1)
        assert list(verify_theorem1(fam, max_n, horizon)) == oracle_theorem1(
            fam, max_n, horizon
        )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_patched_matches_oracle(self, data):
        # Overwrites that the single flips rarely make: a copy of c_n past
        # block n + 1, a run of a_n without bar(a_n), or of zeros, longer
        # than a window bound.
        base = CounterexampleFamily()
        horizon = 4 * base.l_index(5)
        n = data.draw(st.integers(1, 2))
        patch = data.draw(
            st.sampled_from(
                [base.c(n).data, np.tile(base.a_array(n), 150), np.zeros(700 * n)]
            )
        )
        at = data.draw(st.integers(0, horizon - 1))
        fam = _PatchedFamily(at, patch)
        checks = verify_theorem1(fam, 3, horizon)
        assert list(checks) == oracle_theorem1(fam, 3, horizon)

    @pytest.mark.parametrize(
        "at, patch, failed",
        [
            # longer than a_1's window bound
            (2000, np.zeros(700), [("window-bound", 1)]),
            (1000, CounterexampleFamily().c(1).data, [("c-absent", 1)]),
            # holds a_1 but not bar(a_1), and holds c_1
            (2000, np.tile(CounterexampleFamily().a_array(1), 150),
             [("c-absent", 1), ("window-bound", 1)]),
        ],
    )
    def test_failures_reported(self, family, at, patch, failed):
        checks = verify_theorem1(_PatchedFamily(at, patch), 2, 4 * family.l_index(4))
        assert [(c.name, c.level) for c in checks if not c.ok] == failed

    @given(st.lists(st.sampled_from([9, 10]), max_size=6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_required_horizon(self, table, max_n):
        fam = CounterexampleFamily(tau=tau_from_table(table))
        # Term by term: the horizon each c-absent check needs, and 4 l_(n+2).
        longest = max(
            max(fam.l_index(n + 1) + 2 * len(fam.c(n)), 4 * fam.l_index(n + 2))
            for n in range(1, max_n + 1)
        )
        with pytest.raises(InsufficientDataError) as err:
            verify_theorem1(fam, max_n, longest - 1)
        assert err.value.required == longest
        assert len(verify_theorem1(fam, max_n, longest)) == 5 * max_n + 1

    def test_required_horizon_is_the_cli_figure(self, family, capsys):
        with pytest.raises(InsufficientDataError) as err:
            verify_theorem1(family, 3, 1000)
        assert cli.main(["verify-thm1", "--max-n", "3", "--horizon", "1000"]) == 3
        out = capsys.readouterr().out
        assert out == f"horizon 1000 insufficient; need at least {err.value.required}\n"

    def test_level_bounds(self, family):
        with pytest.raises(BudgetError):
            verify_theorem1(family, 5, 10**6)
        with pytest.raises(ValueError):
            verify_theorem1(family, 0, 10**6)

    def test_builds_and_packs_the_prefix_once(self, family):
        horizon = 4 * family.l_index(5) + 17
        with mock.patch.object(
            family, "prefix_array", wraps=family.prefix_array
        ) as build, mock.patch.object(_kernels, "pack", wraps=_kernels.pack) as pack:
            verify_theorem1(family, 3, horizon)
        assert build.call_args_list == [mock.call(horizon)]
        # The pair and alignment checks pack their own short words only.
        sizes = [len(call.args[0]) for call in pack.call_args_list]
        assert sizes.count(horizon) == 1
        assert max(size for size in sizes if size != horizon) <= 5**4


class TestStability:
    def test_periodic_word_is_stable(self, ab):
        report = recurrence_stability(ab.word("abababab"), 2)
        factors = {e.factor.to_text() for e in report.entries}
        assert factors == {"a", "b", "ab", "ba"}
        assert report.all_stable

    def test_unstable_tail(self, ab):
        report = recurrence_stability(ab.word("aaab"), 1)
        (entry,) = report.entries
        assert entry.factor.to_text() == "a"
        assert entry.min_window_half == 1
        assert entry.min_window_full == 2
        assert not entry.stable

    def test_thue_morse_stable(self):
        w = thue_morse_source().prefix(2**16)
        report = recurrence_stability(w, 6)
        assert report.all_stable
        assert len(report.entries) == sum((2, 4, 6, 10, 12, 16))

    def test_required_factor_absent_is_unstable(self, ab):
        report = recurrence_stability(
            ab.word("abababab"), 2, required=[ab.word("bb")]
        )
        by_factor = {e.factor.to_text(): e for e in report.entries}
        assert not by_factor["bb"].stable
        assert by_factor["bb"].min_window_full is None

    def test_tsv(self, ab):
        text = recurrence_stability(ab.word("aaab"), 1).to_tsv()
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == [
            "factor",
            "count",
            "min_window_half",
            "min_window_full",
            "stable",
        ]
        assert lines[1].split("\t") == ["a", "3", "1", "2", "no"]


def _periodic(labels):
    """Words over `labels` that are periodic after a short foreign prefix."""
    return st.tuples(
        st.text(labels, max_size=3), st.text(labels, min_size=1, max_size=4), st.integers(2, 40)
    ).map(lambda t: (labels, (t[0] + t[1] * t[2])[: t[2]]))


def _random(labels):
    return st.text(labels, min_size=2, max_size=40).map(lambda t: (labels, t))


# The 5- and 17-letter words pack at 4 and 8 bits per symbol when they hold
# their alphabet's last letter, at fewer bits when they do not.
FIVE, SEVENTEEN = "abcde", "abcdefghijklmnopq"
WORD_CASES = st.one_of(
    st.integers(2, 40).map(lambda n: ("a", "a" * n)),
    _periodic("ab"),
    st.integers(2, 40).map(lambda n: ("01", thue_morse_source().prefix(n).to_text())),
    _random("abc"),
    _periodic(FIVE),
    _random(FIVE),
    _periodic(SEVENTEEN),
    _random(SEVENTEEN),
)


def base_digits(value, base, length):
    """The `length` base-`base` digits of value, most significant first."""
    return [value // base**i % base for i in reversed(range(length))]


@st.composite
def stability_cases(draw):
    """(labels, word, required factors, cuts): unary, periodic (after a
    short foreign prefix), Thue-Morse, and random 3-, 5- and 17-letter
    words; periodic 5- and 17-letter words."""
    labels, text = draw(WORD_CASES)
    required = draw(st.lists(st.text(labels, min_size=1, max_size=len(text) + 3), max_size=3))
    cuts = sorted(draw(st.sets(st.integers(0, (len(text) - 1) // 2), min_size=1, max_size=3)))
    return labels, text, required, cuts


class TestStabilityOracle:
    @given(case=stability_cases(), k=st.integers(1, 13))
    @example(case=("ab", "abababab", ["bb"], [0]), k=2)  # required factor absent
    @example(case=("01", "0110100110010110", ["0110100"], [0, 3]), k=3)  # longer than k
    @example(case=("ab", "abab", ["ababab"], [0, 1]), k=2)  # longer than the word
    @example(case=("ab", "abab", ["abab", "bab"], [0, 1]), k=1)  # longer than the half
    @example(case=("ab", "aabab", ["ab", "ab", "b"], [0, 1]), k=2)  # duplicated, listed
    @example(case=("a", "a" * 9, ["a" * 10, "aa"], [0, 4]), k=13)  # unary, k > half
    @example(case=("abc", "cabcabcab", [], [0, 1, 2]), k=4)  # periodic after a cut
    @example(case=(FIVE, "eabcdeabcde", ["e", "ea"], [0, 1]), k=3)  # 4 bits
    @example(case=(SEVENTEEN, "qaqbqaqbqaq", ["qa", "c"], [0, 2]), k=3)  # 8 bits
    @example(case=(SEVENTEEN, "abababab", ["q", "abq"], [0, 1]), k=2)  # wider required
    @example(  # re-ranked after length 14; unranked, the key 2^59 << 5 would wrap to 0
        case=(
            SEVENTEEN,
            "".join(SEVENTEEN[d] for d in base_digits(2**59, 17, 15)) + "a" * 45,
            ["ma"],
            [0, 1, 6],
        ),
        k=20,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_definition(self, case, k):
        labels, text, required, cuts = case
        alphabet = Alphabet(labels)
        w = alphabet.word(text)
        req = [alphabet.word(r) for r in required]
        report = recurrence_stability(w, k, required=req)
        rows = [
            (e.factor.to_text(), e.occurrence_count, e.min_window_half, e.min_window_full)
            for e in report.entries
        ]
        assert rows == naive_stability(w, k, req)
        assert eap_cut_search(w, k, cuts, required=req) == naive_cut_search(w, k, cuts, req)

    @given(case=stability_cases(), k=st.integers(1, 13), chunk=CHUNKS)
    @settings(max_examples=150, deadline=None)
    def test_matches_definition_across_stretch_edges(self, case, k, chunk):
        # Short stretches make the folded scans, the first-half scan of a
        # required factor and every later scan, cross stretch edges.
        labels, text, required, cuts = case
        alphabet = Alphabet(labels)
        w = alphabet.word(text)
        req = [alphabet.word(r) for r in required]
        with _chunked(chunk):
            rows = report_rows(w, k, req)
            cut = eap_cut_search(w, k, cuts, required=req)
        assert rows == naive_stability(w, k, req)
        assert cut == naive_cut_search(w, k, cuts, req)


# Label sets a stability case is rendered with, by the index of each
# drawn label: as drawn (code points in progression), scrambled
# (token table), multi-character and non-ASCII (spaced).
SCRAMBLED = "xqz0~a!Q9m#Kb?^w("
RELABELS = {
    "drawn": lambda labels: list(labels),
    "scrambled": lambda labels: list(SCRAMBLED[: len(labels)]),
    "multi-character": lambda labels: [c * (i % 3 + 1) for i, c in enumerate(labels)],
    "non-ASCII": lambda labels: [chr(0xE0 + i) for i in range(len(labels))],
}


def tsv_rows(report):
    """``report.to_tsv()`` written row by row, each factor's labels joined
    one by one (oracle for the one-render factor column)."""

    def cell(v):
        return "absent" if v is None else str(v)

    lines = ["factor\tcount\tmin_window_half\tmin_window_full\tstable"]
    for e in report.entries:
        alphabet = e.factor.alphabet
        sep = "" if alphabet.single_char else " "
        text = sep.join(alphabet.label(i) for i in e.factor.data.tolist())
        figures = (e.occurrence_count, cell(e.min_window_half), cell(e.min_window_full))
        lines.append("\t".join((text, *map(str, figures), "yes" if e.stable else "no")))
    return "\n".join(lines) + "\n"


class TestStabilityTsv:
    @given(case=stability_cases(), k=st.integers(1, 13), relabel=st.sampled_from(list(RELABELS)))
    @example(case=("ab", "abababab", ["bb"], [0]), k=2, relabel="multi-character")  # absent
    @example(case=("abc", "cabcabcab", ["ca", "cc"], [0]), k=3, relabel="scrambled")
    @example(case=(FIVE, "eabcdeabcde", ["ee"], [0]), k=3, relabel="non-ASCII")
    @example(case=("a", "a" * 9, ["a" * 10], [0]), k=13, relabel="drawn")  # longer than w
    @settings(max_examples=150, deadline=None)
    def test_matches_rows(self, case, k, relabel):
        labels, text, required, _ = case
        drawn = Alphabet(labels)
        alphabet = Alphabet(RELABELS[relabel](labels))
        w = FiniteWord(alphabet, drawn.word(text).data)
        req = [FiniteWord(alphabet, drawn.word(r).data) for r in required]
        report = recurrence_stability(w, k, required=req)
        assert report.to_tsv() == tsv_rows(report)


def report_rows(w, k, required=()):
    report = recurrence_stability(w, k, required=required)
    return [
        (e.factor.to_text(), e.occurrence_count, e.min_window_half, e.min_window_full)
        for e in report.entries
    ]


def shift_edge_words():
    """(kind, word) with half length 2^j - 1, 2^j and 2^j + 1, j = 6..9, and
    both parities of the whole length: the first-half starts fill exactly
    the low bits of the packed sort values, or spill into one more."""
    tm = thue_morse_source()
    for j in range(6, 10):
        for half in (2**j - 1, 2**j, 2**j + 1):
            for n in (2 * half, 2 * half + 1):
                yield "unary", Alphabet("a").word("a" * n)
                yield "periodic", Alphabet("abc").word(("aabcb" * n)[:n])
                yield "thue-morse", tm.prefix(n)


class TestStabilityFromSort:
    """recurrence_stability against naive_stability where the first-half
    statistics come from the sort and the rest from second-half scans."""

    @pytest.mark.parametrize(
        "kind, w", shift_edge_words(), ids=lambda v: v if isinstance(v, str) else len(v)
    )
    def test_shift_edges(self, kind, w):
        # At half lengths 63-65 the keys of two-letter words are re-ranked
        # after length 56 or 57, of "abc" words after 35; unary ones never.
        for k in (5, 64) if len(w) // 2 <= 65 else (5,):
            assert report_rows(w, k) == naive_stability(w, k)

    @pytest.mark.parametrize("k", [25, 26, 27, 55, 56, 57, 58])
    @pytest.mark.parametrize("text", ["a" * 128, "b" + "a" * 127], ids=["unary", "b-unary"])
    def test_rerank_boundary(self, text, k):
        # Half 64, shift 7: the values of keys below 2^L fit uint32 while
        # L + 7 <= 32, so the keys turn int64 at length 26; left uint32
        # there, the value 2^25 << 7 of "b" "a"^25 would wrap to 0, the
        # value of "a"^26.  They fit int64 at length L + 1 while
        # L + 1 + 7 <= 63, so they are re-ranked after length 56; unranked,
        # the key 2^57 of "b" "a"^57 would wrap to 0, the key of "a"^58.
        w = Alphabet("ab").word(text)
        assert report_rows(w, k) == naive_stability(w, k)

    def test_int64_values_past_a_rerank(self):
        # Half 2^16 + 1, shift 17, 256 labels: the values pass 2^32 from
        # L = 2 on, so they are int64.  After L = 5 the next length's values
        # could pass 2^63 (2^48 << 17), so the keys are re-ranked, and the
        # values of L = 6, built from the 200 ranks, still pass 2^32
        # (200 * 256 << 17): L = 6 reads int64 values built from ranks.
        alphabet = Alphabet([f"s{i}" for i in range(256)])
        n, k = 2**17 + 2, 6
        half = n // 2
        w = FiniteWord(alphabet, [56 + i % 200 for i in range(n)])
        report = recurrence_stability(w, k)
        head = w.data[:half].tolist()
        windows = {
            tuple(head[i : i + m]) for m in range(1, k + 1) for i in range(half - m + 1)
        }
        listed = [tuple(e.factor.data.tolist()) for e in report.entries]
        assert listed == sorted(windows, key=lambda f: (len(f), f))
        first_half = w[:half]
        for e in report.entries:
            full = regulator_report(e.factor, w)
            assert (e.occurrence_count, e.min_window_half, e.min_window_full) == (
                full.occurrence_count,
                min_window(e.factor, first_half),
                full.min_window,
            )

    @given(
        data=st.lists(st.integers(0, 119), min_size=2, max_size=160),
        k=st.integers(1, 12),
    )
    @example(data=[7, 110, 119, 0] * 20, k=4)
    @example(data=base_digits(2**59, 120, 9) + [0] * 41, k=12)  # 2^59 << 5 wraps to 0
    @settings(max_examples=40, deadline=None)
    def test_alphabet_of_120_labels(self, data, k):
        alphabet = Alphabet([f"s{i}" for i in range(120)])
        w = FiniteWord(alphabet, data)
        required = [FiniteWord(alphabet, data[-2:])]
        assert report_rows(w, k, required) == naive_stability(w, k, required)

    def test_factor_absent_from_second_half(self, ab):
        # "b" and "ba" occur only in the first half.
        w = ab.word("abaaaaaaaa")
        rows = report_rows(w, 3)
        assert rows == naive_stability(w, 3)
        assert ("b", 1, 4, 9) in rows and ("ba", 1, 4, 9) in rows

    def test_factor_once_in_first_half(self, ab):
        # "b" starts at 2 in the first half, then at 5 and 7.
        w = ab.word("aabaabab")
        rows = report_rows(w, 2)
        assert rows == naive_stability(w, 2)
        assert ("b", 3, 3, 3) in rows

    def test_factor_starting_where_the_halves_meet(self, ab):
        # "ab" at 0 in the first half and at 3 = half - 2 + 1, the first
        # start of the second-half text.
        w = ab.word("abaabbbb")
        rows = report_rows(w, 2)
        assert rows == naive_stability(w, 2)
        assert ("ab", 2, 4, 5) in rows

    def test_packed_values_fit_int64(self):
        # A 256-label word of 2^28 symbols is the longest that fits; past
        # it the word is rejected (the CLI exits 2 on ValueError).
        assert _packed_shift(2**27, 256) == 28
        with pytest.raises(ValueError, match="overflow int64"):
            _packed_shift(2**27 + 1, 256)

    def test_required_factor_listed_at_length_k(self, ab):
        w = ab.word("abbaabab")
        required = [ab.word("ab"), ab.word("bab")]
        rows = report_rows(w, 2, required)
        assert rows == naive_stability(w, 2, required)
        assert [r[0] for r in rows].count("ab") == 1


class TestCutSearch:
    def test_foreign_prefix(self, ab):
        z = Alphabet("abz")
        w = z.word("z" + "ab" * 40)
        assert eap_cut_search(w, 2, [0, 1]) == 1

    def test_thue_morse_needs_no_cut(self):
        w = thue_morse_source().prefix(2**14)
        assert eap_cut_search(w, 4, [0]) == 0

    def test_counterexample_has_no_cut(self, family):
        w = family.prefix(100_000)
        cuts = [0, family.l_index(1), family.l_index(2), family.l_index(3)]
        assert eap_cut_search(w, 50, cuts, required=[family.c(1)]) is None

    def test_rejects_bad_cuts(self, ab):
        w = ab.word("ab" * 10)
        with pytest.raises(ValueError):
            eap_cut_search(w, 2, [5, 0])
        with pytest.raises(ValueError):
            eap_cut_search(w, 2, [15])

    def test_rejects_empty_cut_list(self, ab):
        with pytest.raises(ValueError, match="cut list is empty"):
            eap_cut_search(ab.word("ab" * 10), 2, [])
