"""The README's examples: python blocks run in order in one namespace, the
``levels`` block prints what the command prints, and the ``ini`` config block
drives the sweep it describes."""

import csv
import re
import shlex
from pathlib import Path

import _synth
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


def test_config_block_drives_its_sweep(tmp_path, capsys):
    block, = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    config = tmp_path / "sweep.cfg"
    config.write_text(block, encoding="utf-8")
    ratings = tmp_path / "planted.txt"
    ratings.write_text("".join(f"{u} {i} {v:g}\n" for u, i, v
                               in _synth.planted_records(n_users=120, n_items=90)),
                       encoding="utf-8")
    assert main(["evaluate", "--config", str(config), "--ratings", str(ratings)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 60
    assert [(row["method"], row["k"], row["params"].split(";")[0]) for row in rows] == [
        (method, str(k), f"fold={fold}") for method in ("pcc", "dynamic")
        for k in range(20, 101, 20) for fold in (0, 1, 2, 3, 4, "avg")]
    assert all(row["seconds"] for row in rows)  # timing = true
