"""The README's examples run as printed."""

import json
import re
import shlex
from pathlib import Path

from helpers import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    # A reader pastes the blocks one after another, so a later block may use
    # the names an earlier one imports.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_cap_refusals_print_as_shown(tmp_path, monkeypatch, capsys):
    # Each block under Caps is one command and the error it prints, with exit 2.
    caps = README.read_text(encoding="utf-8").split("\n## Caps\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```\n\$ powergraphs (.*?)\n(.*?)^```$", caps, re.M | re.S)
    assert len(blocks) == 3
    # The iso block's files: a star on 60,000 vertices and K2.
    star = {"vertices": list(map(str, range(60000))), "edges": [[0, v] for v in range(1, 60000)]}
    (tmp_path / "star.json").write_text(json.dumps(star))
    (tmp_path / "k2.json").write_text(json.dumps({"vertices": ["0", "1"], "edges": [[0, 1]]}))
    monkeypatch.chdir(tmp_path)
    for command, printed in blocks:
        assert run(capsys, *shlex.split(command)) == (2, "", printed), command


def test_subcommands_run_and_exit_zero(tmp_path, monkeypatch, capsys):
    # Each line of the block is one command, with a comment after it.
    block = re.search(r"^### Subcommands\n\n```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line]
    assert len(commands) >= 10 and all(argv[0] == "powergraphs" for argv in commands)
    # The iso line's files: a path on four vertices, and the same path relabelled.
    (tmp_path / "a.json").write_text(json.dumps({"vertices": ["0", "1", "2", "3"], "edges": [[0, 1], [1, 2], [2, 3]]}))
    (tmp_path / "b.json").write_text(json.dumps({"vertices": ["w", "x", "y", "z"], "edges": [[2, 0], [0, 3], [3, 1]]}))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
