import contextlib
import io
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apwords import (
    ApwordsError,
    BoundsError,
    CounterexampleFamily,
    FiniteWord,
    FormatError,
    delay_prepend_automaton,
    parse_homomorphism,
    parse_machine,
    parse_word,
    periodic_source,
    run_transducer,
)
from apwords import cli
from apwords.cli import main
from conftest import bword
from test_machines import MACHINE_TEXT, TRANSDUCER_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_paper_block0(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "paper", "--length", "10")
        assert code == 0
        assert out == "1111111111\n"

    def test_paper_crosses_block_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "paper", "--length", "15")
        assert code == 0
        assert out == "111111111110011\n"

    def test_periodic(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--family", "periodic", "--word", "ab", "--length", "4"
        )
        assert code == 0
        assert out == "abab\n"

    def test_morphic(self, capsys, tmp_path):
        rules = tmp_path / "tm.rules"
        rules.write_text("0 -> 01\n1 -> 10\n")
        code, out, _ = run_cli(
            capsys,
            "gen", "--family", "morphic", "--rules", str(rules),
            "--seed", "0", "--length", "8",
        )
        assert code == 0
        assert out == "01101001\n"

    def test_rules_path_with_colon(self, capsys, tmp_path):
        folder = tmp_path / "a:b"
        folder.mkdir()
        rules = folder / "tm.rules"
        rules.write_text("0 -> 01\n1 -> 10\n")
        code, out, _ = run_cli(
            capsys,
            "gen", "--family", "morphic", "--rules", str(rules),
            "--seed", "0", "--length", "8",
        )
        assert (code, out) == (0, "01101001\n")
        code, out, _ = run_cli(
            capsys, "occ", "--pattern", "11", "--gen", f"morphic:{rules}:0", "--length", "16"
        )
        assert (code, out) == (0, "1 7 13\n")

    def test_tau_file(self, capsys, tmp_path):
        tau = tmp_path / "tau.txt"
        tau.write_text("9\n")
        code, out, _ = run_cli(
            capsys,
            "gen", "--family", "paper", "--tau-file", str(tau), "--length", "12",
        )
        assert code == 0
        assert out == "111111111100\n"

    @pytest.mark.parametrize("word", ["xqz", "0123456789"])  # token table, by arithmetic
    @pytest.mark.parametrize("n", [cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1])
    def test_periodic_across_slice_edge(self, capsys, word, n):
        code, out, _ = run_cli(
            capsys, "gen", "--family", "periodic", "--word", word, "--length", str(n)
        )
        assert code == 0
        assert out == "".join(itertools.islice(itertools.cycle(word), n)) + "\n"

    def test_matches_library_byte_for_byte(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "paper", "--length", "3000")
        assert code == 0
        assert out == CounterexampleFamily().prefix(3000).to_text() + "\n"

    def test_missing_periodic_word(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "gen", "--family", "periodic", "--length", "4")
        assert err.value.code == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--family", "paper", "--length", str(10**12)
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 -> 01\n0 -> 10\n", "error: duplicate image for '0' (line 2)\n"),
            (
                "0 -> 02\n1 -> 10\n",
                "error: symbol '2' at position 1 is not in alphabet 0 1 (line 1)\n",
            ),
        ],
    )
    def test_malformed_rules_are_usage_errors(self, capsys, tmp_path, text, message):
        rules = tmp_path / "bad.rules"
        rules.write_text(text)
        code, out, err = run_cli(
            capsys,
            "gen", "--family", "morphic", "--rules", str(rules),
            "--seed", "0", "--length", "8",
        )
        assert (code, out, err) == (2, "", message)


class TestScanCommands:
    def test_occ(self, capsys):
        code, out, _ = run_cli(
            capsys, "occ", "--pattern", "10011", "--word", "1001110011"
        )
        assert code == 0
        assert out.strip() == "0 5"

    def test_occ_on_generated_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys, "occ", "--pattern", "10011",
            "--gen", "paper", "--length", "100",
        )
        assert code == 0
        assert out.split()[0] == "10"

    def test_minwindow(self, capsys):
        code, out, _ = run_cli(capsys, "minwindow", "--pattern", "1", "--word", "10011")
        assert code == 0
        assert out.strip() == "3"

    def test_minwindow_absent(self, capsys):
        code, out, _ = run_cli(capsys, "minwindow", "--pattern", "00", "--word", "1011")
        assert code == 0
        assert out.strip() == "absent"

    def test_window_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "window", "--pattern", "1", "--window-length", "3",
            "--word", "10011",
        )
        assert code == 0
        assert out.strip() == "PASS"

    def test_window_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "window", "--pattern", "1", "--window-length", "2",
            "--word", "10011",
        )
        assert code == 1
        assert out.strip() == "violation at 1"

    def test_window_insufficient_data(self, capsys):
        code, _, err = run_cli(
            capsys, "window", "--pattern", "1", "--window-length", "99",
            "--word", "10011",
        )
        assert code == 3

    def test_occ_starts_span_several_slices(self, capsys):
        n = 2 * 2**16 + 5
        code, out, _ = run_cli(
            capsys, "occ", "--pattern", "0", "--gen", "periodic:0", "--length", str(n)
        )
        assert (code, out) == (0, " ".join(map(str, range(n))) + "\n")

    def test_occ_starts_span_several_chunks(self, capsys):
        # Starts written in two chunks of 2^18, passing 10^4 and 10^5.
        n = 2 * 2**18 + 5
        code, out, _ = run_cli(
            capsys, "occ", "--pattern", "0", "--gen", "periodic:0", "--length", str(n)
        )
        assert (code, out) == (0, " ".join(map(str, range(n))) + "\n")

    def test_occ_on_wrapped_word_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0101\n0101\n")
        code, out, _ = run_cli(capsys, "occ", "--pattern", "01", "--word-file", str(path))
        assert code == 0
        assert out.split() == ["0", "2", "4", "6"]

    def test_empty_pattern(self, capsys):
        code, _, err = run_cli(capsys, "occ", "--pattern", "", "--word", "10011")
        assert code == 2


# Output labels with distinct first characters, so that an emission written
# as concatenated labels parses one way.
OUTPUT_LABELS = ["0", "1", "a", "bc", "é", "日本", "x9"]
INPUT_ALPHABETS = [["0", "1"], ["0", "1", "2"], ["in0", "in1"], ["ü", "ö"]]
STATE_PREFIXES = ["q", "état", "状態", "s_"]


@st.composite
def machine_runs(draw):
    """A random Mealy machine or transducer of at most 6 states, as
    (input labels, output labels, states, transitions, input word)."""
    inputs = draw(st.sampled_from(INPUT_ALPHABETS))
    outputs = draw(
        st.lists(st.sampled_from(OUTPUT_LABELS), min_size=1, max_size=4, unique=True)
    )
    prefix = draw(st.sampled_from(STATE_PREFIXES))
    states = [f"{prefix}{i}" for i in range(draw(st.integers(1, 6)))]
    mealy = draw(st.booleans())
    emission = st.lists(
        st.sampled_from(outputs), min_size=int(mealy), max_size=1 if mealy else 3
    )
    trans = {
        (q, a): (draw(st.sampled_from(states)), draw(emission))
        for q in states
        for a in inputs
    }
    word = draw(st.lists(st.sampled_from(inputs), max_size=30))
    return inputs, outputs, states, trans, word


SILENT_TRANSDUCER = (
    ["0", "1"],
    ["a"],
    ["q0", "q1"],
    {
        ("q0", "0"): ("q1", []),
        ("q0", "1"): ("q0", []),
        ("q1", "0"): ("q0", []),
        ("q1", "1"): ("q1", []),
    },
    ["0", "1", "1", "0"],
)


class TestRun:
    def test_machine_file(self, capsys, tmp_path):
        path = tmp_path / "toggle.machine"
        path.write_text(MACHINE_TEXT)
        code, out, _ = run_cli(
            capsys, "run", "--machine", str(path), "--input", "1101"
        )
        assert code == 0
        assert out.strip() == "0100"

    def test_identity_via_delay_of_input(self, capsys, tmp_path):
        path = tmp_path / "ident.machine"
        path.write_text(
            "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\n"
            "q 0 -> q 0\nq 1 -> q 1\n"
        )
        code, out, _ = run_cli(capsys, "run", "--machine", str(path), "--input", "0110")
        assert code == 0
        assert out.strip() == "0110"

    def test_delay_prepend_with_generated_input(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--delay-prepend", "01",
            "--gen", "periodic:1", "--length", "5",
        )
        assert code == 0
        assert out.strip() == "01111"

    def test_transducer_runs(self, capsys, tmp_path):
        path = tmp_path / "t.machine"
        path.write_text(TRANSDUCER_TEXT)
        code, out, _ = run_cli(capsys, "run", "--machine", str(path), "--input", "010")
        assert code == 0
        assert out.strip() == "abab"

    def test_emit_states(self, capsys, tmp_path):
        path = tmp_path / "toggle.machine"
        path.write_text(MACHINE_TEXT)
        code, out, _ = run_cli(
            capsys, "run", "--machine", str(path), "--input", "11", "--emit-states"
        )
        assert code == 0
        assert out.strip() == "@q0 0 @q1 1"

    def test_emit_states_transducer(self, capsys, tmp_path):
        # The empty emission of input 1 shows as a bare state marker.
        path = tmp_path / "t.machine"
        path.write_text(TRANSDUCER_TEXT)
        code, out, _ = run_cli(
            capsys, "run", "--machine", str(path), "--input", "010", "--emit-states"
        )
        assert code == 0
        assert out.strip() == "@q a b @q @q a b"

    @given(machine_runs())
    @example(SILENT_TRANSDUCER)  # every emission empty
    @example((*SILENT_TRANSDUCER[:4], []))  # empty input
    @settings(max_examples=150, deadline=None)
    def test_emit_states_matches_definition(self, tmp_path_factory, run):
        inputs, outputs, states, trans, word = run
        lines = [
            "input: " + " ".join(inputs),
            "output: " + " ".join(outputs),
            "states: " + " ".join(states),
            "initial: " + states[0],
        ]
        lines += [
            f"{q} {a} -> {q2} {''.join(e) or '-'}" for (q, a), (q2, e) in trans.items()
        ]
        path = tmp_path_factory.getbasetemp() / "emit-states.machine"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        single = all(len(a) == 1 and a.isascii() for a in inputs)
        text = ("" if single else " ").join(word)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", "--machine", str(path), "--input", text, "--emit-states"])
        # From the definition: each step's "@state", then what it emitted.
        tokens, q = [], states[0]
        for a in word:
            q2, emitted = trans[(q, a)]
            tokens += ["@" + q, *emitted]
            q = q2
        assert code == 0
        assert out.getvalue() == " ".join(tokens) + "\n"

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        import io

        path = tmp_path / "toggle.machine"
        path.write_text(MACHINE_TEXT)
        monkeypatch.setattr("sys.stdin", io.StringIO("1101\n"))
        code, out, _ = run_cli(capsys, "run", "--machine", str(path))
        assert code == 0
        assert out.strip() == "0100"

    def test_alphabet_mismatch_names_position(self, capsys, tmp_path):
        path = tmp_path / "toggle.machine"
        path.write_text(MACHINE_TEXT)
        code, _, err = run_cli(
            capsys, "run", "--machine", str(path), "--input", "10x1"
        )
        assert code == 4
        assert "'x'" in err and "position 2" in err

    @pytest.mark.parametrize(
        "labels, bad", [(("0", "1"), "x"), (("0", "1"), "é"), (("zero", "one"), "two")]
    )
    @pytest.mark.parametrize("pos", [0, 3, 6])
    @pytest.mark.parametrize("source", ["--input", "--input-file"])
    def test_bad_symbol_reported_with_position(self, capsys, tmp_path, labels, bad, pos, source):
        path = tmp_path / "ident.machine"
        path.write_text(
            f"input: {' '.join(labels)}\noutput: 0 1\nstates: q\ninitial: q\n"
            f"q {labels[0]} -> q 0\nq {labels[1]} -> q 1\n",
            encoding="utf-8",
        )
        symbols = [labels[i % 2] for i in range(7)]
        symbols[pos] = bad
        text = ("" if len(labels[0]) == 1 else " ").join(symbols)
        if source == "--input-file":
            # Surrounding whitespace does not count towards positions.
            text_path = tmp_path / "input.txt"
            text_path.write_text(f"  {text}\n", encoding="utf-8")
            text = str(text_path)
        code, out, err = run_cli(capsys, "run", "--machine", str(path), source, text)
        assert code == 4 and out == ""
        assert err == (
            f"error: symbol {bad!r} at position {pos} is not in alphabet "
            f"{' '.join(labels)}\n"
        )

    def test_generated_symbol_missing_from_machine(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run", "--delay-prepend", "01",
            "--gen", "periodic:012", "--length", "7",
        )
        assert code == 4
        assert "'2'" in err and "position 2" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.machine"
        path.write_text(MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 q1 1"))
        code, _, err = run_cli(capsys, "run", "--machine", str(path), "--input", "1")
        assert code == 2
        assert "line 8" in err

    def test_delay_output_across_write_chunks(self, capsys):
        # The output is written 2^20 symbols at a time.
        n = 2**20 + 5
        code, out, _ = run_cli(
            capsys, "run", "--delay-prepend", "01", "--gen", "periodic:01", "--length", str(n)
        )
        word = periodic_source(parse_word("01")).prefix(n)
        expected = run_transducer(delay_prepend_automaton(parse_word("01")), word)
        assert code == 0
        assert out == expected.output.to_text() + "\n"

    @pytest.mark.parametrize("emit_states", [False, True])
    def test_spaced_output_across_write_chunks(self, capsys, tmp_path, emit_states):
        # Two-character labels, and state markers, are written space-separated
        # 2^20 at a time; 2^20 + 3 steps pass a slice boundary either way.
        path = tmp_path / "toggle.machine"
        path.write_text(
            "input: 0 1\noutput: lo hi\nstates: q0 q1\ninitial: q0\n"
            "q0 0 -> q0 lo\nq0 1 -> q1 lo\nq1 0 -> q1 hi\nq1 1 -> q0 hi\n"
        )
        n = 2**20 + 3
        argv = ["run", "--machine", str(path), "--gen", "periodic:1101", "--length", str(n)]
        code, out, _ = run_cli(capsys, *argv, *["--emit-states"] * emit_states)
        step = {
            ("q0", "0"): ("q0", "lo"),
            ("q0", "1"): ("q1", "lo"),
            ("q1", "0"): ("q1", "hi"),
            ("q1", "1"): ("q0", "hi"),
        }
        tokens, q = [], "q0"
        for a in itertools.islice(itertools.cycle("1101"), n):
            if emit_states:
                tokens.append("@" + q)
            q, emitted = step[q, a]
            tokens.append(emitted)
        assert code == 0
        assert out == " ".join(tokens) + "\n"

    def test_oversized_delay_machine_is_budget_error(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--delay-prepend", "01" * 8 + "0", "--input", "01"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2^17" in err

    def test_colliding_delay_state_labels(self, capsys):
        # Joined by "," as they are, the buffers "a" "a,b" "a,a" "b" and
        # "a,a" "b" "a" "a,b" (and others) would spell one label; labels
        # holding "," are escaped first, so every buffer has its own.
        argv = ["run", "--delay-prepend", "a a,b a,a b", "--input", "a a,b a"]
        assert run_cli(capsys, *argv) == (0, "a a,b a,a\n", "")
        code, out, err = run_cli(capsys, *argv, "--emit-states")
        assert (code, err) == (0, "")
        assert out == "@a,a\\,b,a\\,a,b a @a\\,b,a\\,a,b,a a,b @a\\,a,b,a,a\\,b a,a\n"


class TestDecompose:
    def test_round_trip_through_files(self, capsys, tmp_path):
        src = tmp_path / "t.machine"
        src.write_text(TRANSDUCER_TEXT)
        auto_path = tmp_path / "auto.machine"
        hom_path = tmp_path / "hom.txt"
        code, _, _ = run_cli(
            capsys,
            "decompose", "--machine", str(src),
            "--automaton-out", str(auto_path),
            "--homomorphism-out", str(hom_path),
        )
        assert code == 0
        from apwords import apply_homomorphism, run_mealy, run_transducer

        automaton = parse_machine(auto_path.read_text())
        hom = parse_homomorphism(hom_path.read_text())
        original = parse_machine(TRANSDUCER_TEXT)
        w = bword("01101")
        assert apply_homomorphism(
            hom, run_mealy(automaton, w).output
        ) == run_transducer(original, w).output

    def test_rejects_mealy(self, capsys, tmp_path):
        path = tmp_path / "m.machine"
        path.write_text(MACHINE_TEXT)
        code, _, err = run_cli(capsys, "decompose", "--machine", str(path))
        assert code == 2


class TestStability:
    def test_tsv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability", "--max-len", "1", "--word", "aaab"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "a\t3\t1\t2\tno"

    def test_require(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stability", "--max-len", "2", "--word", "abababab",
            "--require", "bb",
        )
        assert code == 0
        assert "bb\t0\tabsent\tabsent\tno" in out


class TestCutSearch:
    def test_foreign_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cut-search", "--max-len", "2", "--cuts", "0,1",
            "--word", "z" + "ab" * 40,
        )
        assert code == 0
        assert out.strip() == "cut 1"

    def test_absent(self, capsys):
        fam = CounterexampleFamily()
        cuts = ",".join(str(fam.l_index(n)) for n in range(4))
        code, out, _ = run_cli(
            capsys,
            "cut-search", "--max-len", "12", "--cuts", cuts,
            "--require", fam.c(1).to_text(),
            "--gen", "paper", "--length", "20000",
        )
        assert code == 0
        assert out.strip() == "absent"


class TestVerifyThm1:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-thm1", "--max-n", "2", "--horizon", "100000"
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 11

    def test_budget_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-thm1", "--max-n", "99")
        assert code == 3

    def test_insufficient_horizon_prints_minimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-thm1", "--max-n", "3", "--horizon", "1000"
        )
        assert code == 3
        assert "need at least" in out

    def test_tampered_generator_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-thm1", "--max-n", "2", "--horizon", "100000",
            "--tamper-index", "5",
        )
        assert code == 1
        assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--max-len", "0", "--word", "0110"],
        ["stability", "--max-len", "3", "--word", "0"],
        ["cut-search", "--max-len", "3", "--cuts", "5,1", "--word", "0110100110010110"],
        ["occ", "--pattern", "10011", "--gen", "paper", "--length", "-5"],
        ["minwindow", "--pattern", "10011", "--gen", "paper", "--length", "-5"],
        ["window", "--pattern", "10011", "--window-length", "0", "--gen", "paper",
         "--length", "1000"],
        ["window", "--pattern", "10011", "--window-length", "-4", "--gen", "paper",
         "--length", "1000"],
        # Options that would be ignored.
        ["minwindow", "--pattern", "01", "--word", "0110", "--length", "1000"],
        ["run", "--delay-prepend", "01", "--input", "0101", "--length", "2"],
        ["gen", "--family", "paper", "--word", "01", "--length", "5"],
        ["gen", "--family", "periodic", "--word", "01", "--tau-file", "tau.txt",
         "--length", "5"],
    ],
)
def test_rejected_argument_is_usage_error(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # rejected by the argument parser
        code = e.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_bounds_error_is_usage_error(capsys, monkeypatch):
    def out_of_range(args, parser):
        raise BoundsError("segment end 9 out of range for |w|=5")

    monkeypatch.setattr(cli, "cmd_occ", out_of_range)
    code, out, err = run_cli(capsys, "occ", "--pattern", "1", "--word", "10011")
    assert (code, out) == (2, "")
    assert err == "error: segment end 9 out of range for |w|=5\n"
    assert "Traceback" not in err


def test_bare_package_error_is_usage_error(capsys, monkeypatch):
    def fails(args, parser):
        raise ApwordsError("something went wrong")

    monkeypatch.setattr(cli, "cmd_occ", fails)
    code, out, err = run_cli(capsys, "occ", "--pattern", "1", "--word", "10011")
    assert (code, out, err) == (2, "", "error: something went wrong\n")


def test_tampered_prefix_flips_its_symbol_on_every_call():
    # The flip is made in place, so each call must get a fresh array.
    family = cli._TamperedFamily(7)
    clean = CounterexampleFamily().prefix_array(40)
    for _ in range(3):
        tampered = family.prefix_array(40)
        assert (tampered != clean).nonzero()[0].tolist() == [7]


@pytest.mark.parametrize(
    "verb", [["occ", "--pattern", "1"], ["run", "--delay-prepend", "01"]]
)
def test_negative_gen_length_is_parser_error(capsys, verb):
    # Every verb that takes --gen checks --length the same way.
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--gen", "periodic:1", "--length", "-3"])
    assert exc.value.code == 2
    assert "--length must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sources",
    [
        ["--input", "0000", "--input-file", "word.txt"],
        ["--input", "0000", "--gen", "paper", "--length", "6"],
        ["--input-file", "word.txt", "--gen", "paper", "--length", "6"],
    ],
)
def test_run_rejects_two_input_sources(capsys, tmp_path, monkeypatch, sources):
    # No input source is dropped in silence: run refuses more than one.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "word.txt").write_text("0101")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--delay-prepend", "01", *sources])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "give at most one of --input, --input-file, --gen" in err


MACHINE_ARGV = ["run", "--input", "01", "--machine"]
RULES_ARGV = ["gen", "--family", "morphic", "--seed", "0", "--length", "8", "--rules"]
WORD_ARGV = ["occ", "--pattern", "1", "--word-file"]


@pytest.mark.parametrize(
    "argv, text, line",
    [
        (MACHINE_ARGV, MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 q1 1"), 8),
        (MACHINE_ARGV, MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 -> q1 12"), 8),
        (MACHINE_ARGV, MACHINE_TEXT.replace("q1 0 -> q1 1", "q0 0 -> q1 1"), 8),
        (MACHINE_ARGV, MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 -> q9 1"), 8),
        (MACHINE_ARGV, MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 2 -> q1 1"), 8),
        (MACHINE_ARGV, "input: 0 1\n", 2),
        (MACHINE_ARGV, MACHINE_TEXT.replace("input: 0 1", "input: 0 0"), 2),
        (RULES_ARGV, "0 -> 01\n0 -> 10\n", 2),
        (RULES_ARGV, "0 -> 01\n1 -> 1-\n", 2),
        (RULES_ARGV, "0 -> 01\n1 10\n", 2),
        (RULES_ARGV, "# nothing but a comment\n", None),
        ("tau", "9\nten\n", 2),
        ("tau", "9\n8\n", 2),
        (WORD_ARGV, "alphabet: 0 1\n0110x\n", None),
        (WORD_ARGV, "# comment\nalphabet: 0 0\n0110\n", 2),
        (WORD_ARGV, "alphabet:\n0110\n", 1),
        (MACHINE_ARGV, MACHINE_TEXT.replace("output: 0 1", "output: x x"), 3),
        (MACHINE_ARGV, MACHINE_TEXT.replace("states: q0 q1", "states: q0 q0"), 4),
        (MACHINE_ARGV, MACHINE_TEXT.replace("initial: q0", "initial: q9"), 5),
        ("homomorphism", "source: 0 1\ntarget: a\n0 -> a\n1 -> -\n2 -> aa\n", 5),
        ("homomorphism", "source: 0 1\n# target\ntarget: a a\n0 -> a\n1 -> a\n", 3),
    ],
)
def test_malformed_definition_file_is_usage_error(capsys, tmp_path, argv, text, line):
    if argv == "homomorphism":
        # No verb reads a homomorphism file; main exits 2 on a FormatError.
        with pytest.raises(FormatError) as exc:
            parse_homomorphism(text)
        assert exc.value.line == line
        return
    path = tmp_path / "definition.txt"
    path.write_text(text, encoding="utf-8")
    if argv == "tau":
        argv = ["occ", "--pattern", "1", "--gen", f"paper:{path}", "--length", "100"]
    else:
        argv = [*argv, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if line is not None:
        assert err.endswith(f" (line {line})\n")


# Bad input to each of the nine verbs, with the exit code that README gives
# its error class: 2 usage or parse error (argparse's included), 3 budget
# exceeded or insufficient data, 4 a symbol outside the alphabet.  In the
# arguments, {bad} is a symbol outside {0, 1}; {size} a size <= 0;
# {negative} a length < 0; {huge} a size past every budget; {level} a
# verification level past its budget; {delay} a delay word whose machine has
# more than 2^16 states; {far} a cut past the half; {unsorted} two cuts out
# of order; {missing} a path that does not exist; {machine} and {rules} good
# definition files, and {bad_machine}, {bad_rules}, {bad_tau} and
# {bad_word} malformed ones.
W16 = ["--word", "0110100110010110"]
BAD_INPUTS = [
    (["occ", "--pattern", "1{bad}", *W16], 4),
    (["minwindow", "--pattern", "{bad}", "--gen", "paper", "--length", "100"], 4),
    (["window", "--window-length", "4", "--pattern", "0{bad}", *W16], 4),
    (["stability", "--max-len", "2", "--require", "{bad}", *W16], 4),
    (["cut-search", "--max-len", "2", "--cuts", "0", "--require", "1{bad}", *W16], 4),
    (["run", "--machine", "{machine}", "--input", "01{bad}"], 4),
    (["run", "--delay-prepend", "01", "--gen", "periodic:0{bad}", "--length", "9"], 4),
    (["gen", "--family", "morphic", "--rules", "{rules}", "--seed", "{bad}", "--length", "5"], 4),
    (["occ", "--pattern", "", *W16], 2),
    (["minwindow", "--pattern", "", "--gen", "paper", "--length", "100"], 2),
    (["window", "--window-length", "3", "--pattern", "", *W16], 2),
    (["stability", "--max-len", "2", "--require", "", *W16], 2),
    (["cut-search", "--max-len", "2", "--cuts", "0", "--require", "", *W16], 2),
    (["gen", "--family", "paper", "--length", "{size}"], 2),
    (["occ", "--pattern", "1", "--gen", "paper", "--length", "{negative}"], 2),
    (["window", "--window-length", "{size}", "--pattern", "1", *W16], 2),
    (["stability", "--max-len", "{size}", *W16], 2),
    (["cut-search", "--max-len", "{size}", "--cuts", "0", *W16], 2),
    (["verify-thm1", "--max-n", "{size}"], 2),
    (["run", "--delay-prepend", "01", "--gen", "paper", "--length", "{negative}"], 2),
    (["cut-search", "--max-len", "2", "--cuts", "0,{far}", *W16], 2),
    (["cut-search", "--max-len", "2", "--cuts", "{unsorted}", *W16], 2),
    (["gen", "--family", "periodic", "--word", "01", "--length", "{huge}"], 3),
    (["occ", "--pattern", "1", "--gen", "paper", "--length", "{huge}"], 3),
    (["minwindow", "--pattern", "1", "--gen", "periodic:01", "--length", "{huge}"], 3),
    (["window", "--window-length", "{huge}", "--pattern", "1", *W16], 3),
    (["stability", "--max-len", "2", "--gen", "morphic:{rules}:0", "--length", "{huge}"], 3),
    (["cut-search", "--max-len", "2", "--cuts", "0", "--gen", "paper", "--length", "{huge}"], 3),
    (["run", "--delay-prepend", "01", "--gen", "paper", "--length", "{huge}"], 3),
    (["run", "--delay-prepend", "{delay}", "--input", "01"], 3),
    (["verify-thm1", "--max-n", "{level}"], 3),
    (["run", "--machine", "{bad_machine}", "--input", "01"], 2),
    (["decompose", "--machine", "{bad_machine}"], 2),
    (["decompose", "--machine", "{machine}"], 2),  # a Mealy machine
    (["gen", "--family", "morphic", "--rules", "{bad_rules}", "--seed", "0", "--length", "5"], 2),
    (["cut-search", "--max-len", "2", "--cuts", "0", "--gen", "morphic:{bad_rules}:0",
      "--length", "50"], 2),
    (["gen", "--family", "paper", "--tau-file", "{bad_tau}", "--length", "100"], 2),
    (["occ", "--pattern", "1", "--gen", "paper:{bad_tau}", "--length", "100"], 2),
    (["verify-thm1", "--max-n", "1", "--tau-file", "{bad_tau}"], 2),
    (["minwindow", "--pattern", "1", "--word-file", "{bad_word}"], 2),
    (["occ", "--pattern", "1", "--word-file", "{missing}"], 2),
    (["run", "--machine", "{missing}", "--input", "0"], 2),
    (["run", "--machine", "{machine}", "--input-file", "{missing}"], 2),
    (["decompose", "--machine", "{missing}"], 2),
    (["gen", "--family", "paper", "--tau-file", "{missing}", "--length", "5"], 2),
    (["verify-thm1", "--tau-file", "{missing}"], 2),
    (["stability", "--max-len", "2", "--gen", "morphic:{missing}:0", "--length", "5"], 2),
    (["window", "--window-length", "3", "--pattern", "1", "--gen", "paper:{missing}",
      "--length", "50"], 2),
    (["cut-search", "--max-len", "2", "--cuts", "", *W16], 2),
    (["cut-search", "--max-len", "2", "--cuts", ",", *W16], 2),
]
BAD_MACHINES = [
    MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 q1 1"),
    MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 -> q9 1"),
    MACHINE_TEXT.replace("q1 0 -> q1 1\n", ""),
    MACHINE_TEXT.replace("initial: q0", "initial: q9"),
    MACHINE_TEXT.replace("states: q0 q1", "states: q0 q0"),
    "input: 0 1\n",
    "",
]
BAD_RULES = ["0 -> 01\n0 -> 10\n", "0 -> 01\n1 10\n", "0 -> 01\n", "0 -> 1\n1 -> 0\n", "# none\n"]
BAD_TAU = ["9\nten\n", "9\n8\n", "11\n", "10\n9.5\n"]
BAD_WORDS = ["alphabet: 0 0\n0110\n", "alphabet:\n0110\n", "alphabet: 0 1\n01x0\n", ""]


@st.composite
def bad_values(draw):
    """Values for the placeholders of ``BAD_INPUTS`` that name no file."""
    letters = draw(st.sampled_from(["01", "0123"]))
    first, second = sorted(draw(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True)))
    return {
        "bad": draw(st.sampled_from(["2", "x", "#", "é", "日"])),
        "size": str(draw(st.integers(-10**12, 0))),
        "negative": str(draw(st.integers(-10**12, -1))),
        "huge": str(draw(st.integers(10**8 + 1, 10**12))),
        "level": str(draw(st.integers(5, 10**6))),
        "delay": (letters * 12)[: draw(st.integers(17 if letters == "01" else 9, 24))],
        "far": str(draw(st.integers(8, 10**6))),
        "unsorted": f"{second},{first}",
    }


@given(
    bad_values(),
    st.fixed_dictionaries(
        {
            "bad_machine": st.sampled_from(BAD_MACHINES),
            "bad_rules": st.sampled_from(BAD_RULES),
            "bad_tau": st.sampled_from(BAD_TAU),
            "bad_word": st.sampled_from(BAD_WORDS),
        }
    ),
)
@settings(max_examples=60, deadline=None)
def test_bad_input_exits_with_its_class_code(tmp_path_factory, values, bad_files):
    folder = tmp_path_factory.mktemp("bad-input")
    paths = {"missing": str(folder / "absent" / "word.txt")}
    files = {"machine": MACHINE_TEXT, "rules": "0 -> 01\n1 -> 10\n", **bad_files}
    for name, text in files.items():
        (folder / name).write_text(text, encoding="utf-8")
        paths[name] = str(folder / name)
    for template, expected in BAD_INPUTS:
        argv = [arg.format(**values, **paths) for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
                rejected_by_parser = False
            except SystemExit as e:
                code, rejected_by_parser = e.code, True
        err = err.getvalue()
        assert (code, out.getvalue()) == (expected, ""), argv
        assert "Traceback" not in err, argv
        if rejected_by_parser:
            assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1], argv
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, argv


# A delay word of one letter is read over the input's alphabet when that
# alphabet holds the letter: the --gen source's, or the distinct symbols of
# the input text.  Otherwise the word keeps its own one-letter alphabet.
ONE_LETTER_DELAYS = [
    (["1", "--gen", "paper", "--length", "11"], 0, "11111111111\n"),
    (["1", "--gen", "paper", "--length", "12"], 0, "111111111111\n"),
    (["x", "--gen", "periodic:xqz", "--length", "5"], 0, "xxqzx\n"),
    (["0", "--input", "0110"], 0, "0011\n"),
    (["1", "--input", "0x1"], 0, "10x\n"),
    (["é", "--input", "aé"], 0, "é a\n"),
    (["1", "--input", "01", "--emit-states"], 0, "@1 1 @0 0\n"),
    (["1", "--input-file", "{word}"], 0, "110\n"),
    # Seventeen 1s over the paper's two letters: 2^17 states.
    (["1" * 17, "--gen", "paper", "--length", "10"], 3, ""),
    # The letter is not in the input's alphabet, or the input's symbols
    # make no alphabet (a space is no label): the one-letter machine.
    (["2", "--gen", "paper", "--length", "12"], 4, ""),
    (["1", "--input", "1 0"], 4, ""),
    (["1", "--input", "111"], 0, "111\n"),
]


@pytest.mark.parametrize("argv, code, out", ONE_LETTER_DELAYS)
def test_one_letter_delay_over_the_input_alphabet(capsys, tmp_path, argv, code, out):
    (tmp_path / "w.txt").write_text("100\n")
    argv = [a.format(word=tmp_path / "w.txt") for a in argv]
    got = run_cli(capsys, "run", "--delay-prepend", *argv)
    assert got[:2] == (code, out)
