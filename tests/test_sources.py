import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    BoundsError,
    BudgetError,
    CounterexampleFamily,
    FiniteWord,
    Homomorphism,
    Segment,
    morphic_source,
    periodic_source,
    thue_morse_source,
)
from conftest import bword


class TestPeriodic:
    def test_prefixes(self, ab):
        assert periodic_source(ab.word("ab")).prefix(5).to_text() == "ababa"
        assert periodic_source(Alphabet("1").word("1")).prefix(3).to_text() == "111"

    def test_far_symbol_is_constant_time(self):
        src = periodic_source(bword("011"))
        # (10^9 mod 3) == 1, so the symbol is the period's index-1 symbol.
        assert src.symbol_at(10**9) == "1"
        assert src.materialized == 0

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            periodic_source(BINARY.word(""))


class TestMorphic:
    def test_thue_morse(self):
        assert thue_morse_source().prefix(8).to_text() == "01101001"

    def test_fibonacci(self, ab):
        rules = Homomorphism(ab, ab, {"a": "ab", "b": "a"})
        assert morphic_source(rules, "a").prefix(8).to_text() == "abaababa"

    def test_constant(self):
        one = Alphabet("0")
        rules = Homomorphism(one, one, {"0": "00"})
        assert morphic_source(rules, "0").prefix(4).to_text() == "0000"

    def test_non_prolongable_seed(self, ab):
        rules = Homomorphism(ab, ab, {"a": "ba", "b": "a"})
        with pytest.raises(ValueError):
            morphic_source(rules, "a")
        short = Homomorphism(ab, ab, {"a": "a", "b": "a"})
        with pytest.raises(ValueError):
            morphic_source(short, "a")

    def test_empty_image_rejected(self, ab):
        rules = Homomorphism(ab, ab, {"a": "ab", "b": ""})
        with pytest.raises(ValueError):
            morphic_source(rules, "a")

    def test_mismatched_alphabets_rejected(self, ab):
        rules = Homomorphism(ab, BINARY, {"a": "01", "b": "0"})
        with pytest.raises(ValueError):
            morphic_source(rules, "a")

    def test_prefix_retains_only_its_symbols(self):
        # Thue-Morse doubles its word per expansion, so 2^20 + 1 symbols
        # come from an expansion of 2^21; the source keeps the 2^20 + 1.
        n = 2**20 + 1
        tracemalloc.start()
        try:
            src = thue_morse_source()
            word = src.prefix(n)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert src.materialized == n == len(word)
        assert retained < 1.25 * n
        # Symbol i of Thue-Morse is the parity of i's binary digits.
        assert word.data[-9:].tolist() == [bin(i).count("1") % 2 for i in range(n - 9, n)]


class TestMemoization:
    def test_determinism_of_independent_sources(self):
        s1 = CounterexampleFamily().source()
        s2 = CounterexampleFamily().source()
        assert np.array_equal(s1.prefix_array(1_000_000), s2.prefix_array(1_000_000))

    def test_monotone_extension(self):
        src = thue_morse_source()
        early = src.prefix_array(100).copy()
        src.materialize_to(100_000)
        assert np.array_equal(src.prefix_array(100), early)

    def test_repeated_reads_identical(self):
        src = CounterexampleFamily().source()
        assert src.symbol_at(12345) == src.symbol_at(12345)

    def test_segment_forces_materialization(self):
        src = thue_morse_source()
        seg = src.segment(Segment(5, 9))
        assert src.materialized >= 10
        assert seg.to_text() == "00110"  # thue-morse symbols 5..9

    def test_budget(self):
        src = periodic_source(bword("01"), budget=1000)
        with pytest.raises(BudgetError):
            src.materialize_to(1001)
        src.materialize_to(1000)

    def test_prefix_is_a_view_that_outlives_growth(self):
        # A prefix shares the source's buffer, read-only; growing the
        # source replaces that buffer, so the prefix keeps its symbols.
        src = thue_morse_source()
        word = src.prefix(1000)
        assert not word.data.flags.writeable
        assert np.shares_memory(word.data, src.prefix_array(1000))
        before = word.data.tolist()
        src.materialize_to(100_000)
        assert src.materialized >= 100_000
        assert word.data.tolist() == before
        assert word == src.prefix(1000)
        # The public constructor still copies what it is given.
        data = np.array([0, 1, 1, 0], np.uint8)
        copied = FiniteWord(BINARY, data)
        assert not np.shares_memory(copied.data, data)
        data[0] = 1
        assert copied.to_text() == "0110"

    def test_large_prefix_matches_recomputation(self):
        fam = CounterexampleFamily()
        src = fam.source()
        # grow in steps, then compare against a from-scratch computation
        for n in (10, 10_000, 2_000_000, 10_000_000):
            src.materialize_to(n)
        fresh = CounterexampleFamily().prefix_array(10_000_000)
        assert np.array_equal(src.prefix_array(10_000_000), fresh)


class TestNegativeArguments:
    @pytest.mark.parametrize(
        "make",
        [lambda: CounterexampleFamily().source(), thue_morse_source,
         lambda: periodic_source(bword("011"))],
        ids=["paper", "thue-morse", "periodic"],
    )
    def test_rejected_before_and_after_growth(self, make):
        src = make()
        for _ in range(2):
            with pytest.raises(ValueError):
                src.prefix(-5)
            with pytest.raises(ValueError):
                src.prefix_array(-1)
            with pytest.raises(BoundsError):
                src.symbol_at(-1)
            src.prefix(100)
        assert src.prefix(0).to_text() == ""


READ_SOURCES = {
    "periodic": lambda: periodic_source(bword("01101")),
    "paper": lambda: CounterexampleFamily().source(),
    "thue-morse": thue_morse_source,
    "fibonacci": lambda: morphic_source(
        Homomorphism(Alphabet("ab"), Alphabet("ab"), {"a": "ab", "b": "a"}), "a"
    ),
}
READ_HORIZON = 5000

# (kind, index or length, segment length - 1); reads stay below READ_HORIZON.
READS = st.one_of(
    st.tuples(st.sampled_from(["prefix", "prefix_array"]), st.integers(0, READ_HORIZON)),
    st.tuples(st.just("symbol_at"), st.integers(0, READ_HORIZON - 1)),
    st.tuples(st.just("segment"), st.integers(0, READ_HORIZON - 1), st.integers(0, 300)),
)


class TestReadOrder:
    @given(source=st.sampled_from(sorted(READ_SOURCES)), reads=st.lists(READS, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_reads_agree_with_one_prefix(self, source, reads):
        """Any mix of reads, in any order, returns the symbols of one large
        prefix of a fresh source, and an earlier result never changes."""
        reference = READ_SOURCES[source]().prefix(READ_HORIZON)
        src = READ_SOURCES[source]()
        results = []
        for kind, i, *rest in reads:
            if kind == "prefix":
                got, want = src.prefix(i).data, reference.data[:i]
            elif kind == "prefix_array":
                got, want = src.prefix_array(i), reference.data[:i]
            elif kind == "symbol_at":
                got, want = src.symbol_at(i), reference[i]
            else:
                end = min(i + rest[0], READ_HORIZON - 1)
                got, want = src.segment(Segment(i, end)).data, reference.data[i : end + 1]
            assert np.array_equal(got, want)
            results.append((got, want))
        for got, want in results:
            assert np.array_equal(got, want)
