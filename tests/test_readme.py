"""The Python blocks of the README's "Library" section run, and each
``print(...)  # output`` line in them prints the output its comment gives."""

import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def commented_outputs(code: str) -> dict[int, str]:
    """{line number: the comment} for each print line with a comment."""
    lines = enumerate(code.splitlines(), 1)
    return {n: m.group(1) for n, line in lines if (m := re.match(r"print\(.*\)\s+# (.*)$", line))}


@pytest.mark.parametrize("index, shown", [(0, 2), (1, 2)])
def test_library_block_prints_its_commented_outputs(index, shown):
    blocks = library_blocks()
    assert len(blocks) == 2
    code = blocks[index]
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(code, f"README.md Library block {index}", "exec"), {"print": record})
    want = commented_outputs(code)
    assert len(want) == shown
    assert {n: printed.get(n) for n in want} == want
