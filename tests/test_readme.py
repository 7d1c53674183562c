"""Every ```python block of README.md runs cleanly, and every ``variety``
command of its ```bash blocks parses, so the quick start and the CLI
examples cannot go stale when a public name or an option is renamed or
removed."""

import re
import shlex
from pathlib import Path

import pytest

from fvariety.cli import _comma_list, build_parser
from fvariety.divergence import get_kind

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)
COMMANDS = [
    line
    for block in re.findall(r"^```bash\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            flags=re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("variety ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_shows_every_subcommand():
    assert {shlex.split(line)[1] for line in COMMANDS} == {
        "compute", "theoretical", "simulate", "analyze"
    }


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_cli_example_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    for name in _comma_list(args.divergence, "--divergence", "kind"):
        get_kind(name)
