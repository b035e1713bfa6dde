"""``tests/code_lines.py`` counts the lines that hold code: not blank lines,
comment-only lines or docstrings, but every line of any other string."""

import code_lines

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
