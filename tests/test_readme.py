"""The README's command-line examples print what the README shows.

Each ``$ ores ...`` line in a shell block of README.md that is followed
by output lines runs through ores.cli.main in a fresh directory, and its
standard output must equal those lines."""

import pathlib
import shlex

import pytest

from ores.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected lines) for each example that shows output."""
    examples = []
    fenced = sh = False
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
            sh = fenced and line == "```sh"
            current = None
        elif sh and line.startswith("$ "):
            current = (shlex.split(line[2:]), [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(argv[1:], lines) for argv, lines in examples
            if argv[0] == "ores" and lines]


EXAMPLES = _examples()


def test_the_readme_shows_ten_examples_with_output():
    assert len(EXAMPLES) == 10


@pytest.mark.parametrize("argv, lines", EXAMPLES,
                         ids=[" ".join(a[:2]) for a, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(argv, lines, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(argv)
    assert capsys.readouterr().out.splitlines() == lines
