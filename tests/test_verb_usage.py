"""A usage error found after parsing prints the usage of its verb."""

import pytest

from apwords.cli import main


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "morphic", "--rules", "", "--length", "10"],
        ["gen", "--family", "periodic", "--length", "4"],
        ["occ", "--pattern", "1", "--length", "5", "--word", "01"],
        ["run", "--input", "01"],
    ],
)
def test_usage_error_names_the_verb(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    verb = argv[0]
    assert lines[0].startswith(f"usage: apwords {verb} ")
    assert lines[-1].startswith(f"apwords {verb}: error: ")
