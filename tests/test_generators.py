import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apwords import (
    BudgetError,
    CounterexampleFamily,
    FormatError,
    Segment,
    bar,
    concat,
    load_morphism_rules,
    load_tau_table,
    morphic_source,
    segment,
    tau_from_table,
)
from conftest import family_word, phi_power

A2 = "1001101100011001001110011"


class TestBlockWords:
    def test_explicit_levels(self, family):
        assert family.a(0).to_text() == "1"
        assert family.a(1).to_text() == "10011"
        assert family.a(2).to_text() == A2

    def test_recurrence_and_lengths(self, family):
        for n in range(6):
            a = family.a(n)
            expected = concat(
                concat(concat(concat(a, bar(a)), bar(a)), a), a
            )
            assert family.a(n + 1) == expected
            assert len(a) == 5**n

    @given(st.integers(0, 7))
    def test_blocks_are_phi_powers(self, n):
        assert np.array_equal(CounterexampleFamily().a_array(n), phi_power([1], n))

    def test_prefix_nesting(self, family):
        for n in range(6):
            outer = family.a(n + 1)
            assert outer[: 5**n] == family.a(n)

    def test_level_budget(self, family):
        with pytest.raises(BudgetError):
            family.a(17)
        with pytest.raises(BudgetError):
            family.a(12)  # 5^12 > default materialization budget


class TestRepeatedBlocks:
    def test_c0_default(self, family):
        assert family.c(0).to_text() == "1111111111"

    def test_c2_length(self, family):
        assert len(family.c(2)) == 250

    def test_c0_with_nine_repeats(self):
        fam = CounterexampleFamily(tau=tau_from_table([9]))
        assert fam.c(0).to_text() == "111111111"

    def test_tau_outside_family_rejected(self):
        fam = CounterexampleFamily(tau=lambda n: 8)
        with pytest.raises(ValueError):
            fam.c(0)


class TestBlockIndices:
    def test_examples(self, family):
        assert family.l_index(0) == 0
        assert family.l_index(1) == 10
        assert family.l_index(2) == 60

    def test_closed_form_for_constant_tau(self, family):
        for n in range(8):
            assert family.l_index(n) == 5 * (5**n - 1) // 2

    def test_increments(self, family):
        for n in range(6):
            assert family.l_index(n + 1) - family.l_index(n) == family.tau(n) * 5**n


class TestOmega:
    def test_starts_with_c0(self, family):
        assert family.source().prefix(10).to_text() == "1111111111"

    def test_block_segments(self, family):
        src = family.source()
        for n in range(6):
            lo = family.l_index(n)
            hi = family.l_index(n + 1) - 1
            assert segment(src, Segment(lo, hi)) == family.c(n)

    def test_block_segments_under_varying_tau(self):
        fam = CounterexampleFamily(tau=tau_from_table([9, 10, 9, 10, 9]))
        src = fam.source()
        for n in range(5):
            lo = fam.l_index(n)
            assert segment(src, Segment(lo, lo + len(fam.c(n)) - 1)) == fam.c(n)

    def test_tau_variants_first_difference(self):
        # Block lengths diverge at index 9, but both words carry "1" there
        # (block 1 starts with the same symbol block 0 repeats); the first
        # differing symbol is at index 10.
        p10 = CounterexampleFamily().prefix_array(30)
        p9 = CounterexampleFamily(tau=tau_from_table([9])).prefix_array(30)
        diff = np.nonzero(p10 != p9)[0]
        assert diff[0] == 10

    @given(st.lists(st.sampled_from([9, 10]), max_size=12), st.integers(0, 4 * 10**5 - 1))
    def test_prefix_matches_morphism_oracle(self, rows, n):
        tau = tau_from_table(rows)
        assert np.array_equal(CounterexampleFamily(tau=tau).prefix_array(n), family_word(tau, n))

    def test_partial_block_materialization_is_cheap(self):
        # A short prefix reaching into a late block must not build the full
        # block word.
        fam = CounterexampleFamily(budget=100_000)
        assert len(fam.prefix_array(100_000)) == 100_000
        assert max(len(a) for a in fam._a_cache) <= 5**7


class TestDefinitionFiles:
    def test_tau_table(self, tmp_path):
        path = tmp_path / "tau.txt"
        path.write_text("9\n10\n9\n# comment\n")
        tau = load_tau_table(path)
        assert [tau(n) for n in range(5)] == [9, 10, 9, 10, 10]

    def test_tau_table_bad_row(self, tmp_path):
        path = tmp_path / "tau.txt"
        path.write_text("9\nx\n")
        with pytest.raises(FormatError) as err:
            load_tau_table(path)
        assert err.value.line == 2

    def test_morphism_rules(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# thue-morse\n0 -> 01\n1 -> 10\n")
        rules = load_morphism_rules(path)
        assert morphic_source(rules, "0").prefix(8).to_text() == "01101001"

    def test_morphism_rules_bad_line(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("0 -> 01\n1 10\n")
        with pytest.raises(FormatError) as err:
            load_morphism_rules(path)
        assert err.value.line == 2

    def test_morphism_rules_duplicate_symbol(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("0 -> 01\n0 -> 10\n")
        with pytest.raises(FormatError) as err:
            load_morphism_rules(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, bad, line",
        [
            ("0 -> 02\n1 -> 10\n", "'2' at position 1", 1),
            # Every image character is a symbol: "-" is not the empty image.
            ("0 -> 01\n1 -> -\n", "'-' at position 0", 2),
        ],
    )
    def test_morphism_rules_image_outside_alphabet(self, tmp_path, text, bad, line):
        path = tmp_path / "rules.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=bad) as err:
            load_morphism_rules(path)
        assert err.value.line == line

    def test_tau_table_count_outside_family(self, tmp_path):
        path = tmp_path / "tau.txt"
        path.write_text("9\n# comment\n8\n")
        with pytest.raises(FormatError) as err:
            load_tau_table(path)
        assert err.value.line == 3
