"""Extract the `$ kodaira ...` console examples and the library example from the README."""

from __future__ import annotations

import shlex
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def readme_console_examples() -> list[tuple[list[str], str, int]]:
    """(argv, expected stdout, expected exit status) per documented example."""
    examples = []
    in_block = False
    command: list[str] | None = None
    expected: list[str] = []
    status = 0

    def flush() -> None:
        nonlocal command, expected, status
        if command is not None:
            examples.append((command, "".join(expected), status))
        command, expected, status = None, [], 0

    for line in README.read_text().splitlines():
        if line.startswith("```console"):
            in_block = True
            continue
        if in_block and line.startswith("```"):
            flush()
            in_block = False
            continue
        if not in_block:
            continue
        if line.startswith("$ "):
            flush()
            words = shlex.split(line[2:])
            assert words[0] == "kodaira"
            command = words[1:]
        elif line.startswith("[exit status "):
            status = int(line[len("[exit status ") : -1])
        else:
            expected.append(line + "\n")
    return examples


def readme_library_example() -> str:
    """The source of the README's one ```python block."""
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```")[0]
