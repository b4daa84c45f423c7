"""The README's examples: python blocks run in order in one namespace, and
the ``levels`` block prints what the command prints."""

import re
import shlex
from pathlib import Path

from cflevels.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_levels_block_matches_command_output(tmp_path, capsys):
    block, = re.findall(r"^```text\n\$ cflevels (levels .*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    command, expected = block.split("\n", 1)
    # MovieLens-1M's shape: 6,040 users over 3,706 items, with a timestamp column
    path = tmp_path / "ratings.dat"
    path.write_text("".join(f"{u}::{u % 3706}::3::978300760\n" for u in range(6040)),
                    encoding="utf-8")
    argv = shlex.split(command)
    argv[argv.index("--ratings") + 1] = str(path)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
