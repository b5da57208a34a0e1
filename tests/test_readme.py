"""README's "Library quick tour" is run as a doctest, and every `$ symblocks`
sample of its CLI section is run through `cli.main`, so neither can drift."""

import doctest
from pathlib import Path

import pytest

from symblocks import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _cli_samples():
    """(argv, expected stdout) for each indented `$ symblocks ...` block of
    the CLI section; a block ends at the first line that is not indented."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    section = section[: section.index("\n## ", 1)]
    samples = []
    lines = iter(section.splitlines())
    for line in lines:
        if not line.startswith("    $ symblocks "):
            continue
        expected = []
        for out in lines:
            if not out.startswith("    "):
                break
            expected.append(out[4:] + "\n")
        samples.append((line.split()[2:], "".join(expected)))
    return samples


SAMPLES = _cli_samples()


def test_readme_has_cli_samples():
    assert len(SAMPLES) >= 2


@pytest.mark.parametrize("argv,expected", SAMPLES, ids=[" ".join(a) for a, _ in SAMPLES])
def test_readme_cli_sample(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
