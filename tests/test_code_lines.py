"""``tests/code_lines.py`` counts the lines that hold code: not blank lines,
comment-only lines or docstrings, but every line of any other string."""

import code_lines
import pytest

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function docstring,

        with a blank line."""
        text = """a string that is not a docstring,

        with a blank line"""
        return text


def g(): """One-line docstring on the def line."""
'''


def test_sample_module():
    # import os; class C:; def f(self):; the three lines of text, its blank
    # one among them; return text; def g():
    assert code_lines.code_lines(SAMPLE) == 8


def test_blank_and_comment_only_module():
    assert code_lines.code_lines("\n# only a comment\n\n") == 0


@pytest.mark.parametrize("rev", [None, "B"])
def test_against_gives_both_counts_and_the_change(monkeypatch, capsys, rev):
    # "a" loses a line, "b" is gone and "c" is new; the right-hand side is
    # the working tree, or revision B under --rev.
    sides = {
        "A": {"pkg/a.py": "x = 1\ny = 2\n", "pkg/b.py": "import os\n"},
        rev: {"pkg/a.py": "x = 1\n", "pkg/c.py": "def f():\n    return 1\n"},
    }
    monkeypatch.setattr(code_lines, "modules", sides.__getitem__)
    argv = ["--against", "A"] + (["--rev", rev] if rev else [])
    assert code_lines.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2       1      -1  pkg/a.py",
        "     1       0      -1  pkg/b.py",
        "     0       2      +2  pkg/c.py",
        "     3       3      +0  total",
    ]
