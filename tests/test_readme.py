import re
import shlex
from pathlib import Path

from declab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_exit_zero(capsys):
    # every `declab ...` line of the shell blocks, in process; `verify --suite all`
    # is criterion 13's run
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    lines = [shlex.split(line, comments=True)[1:] for lang, block in blocks if not lang
             for line in block.splitlines() if line.startswith("declab ")]
    assert ["verify", "--suite", "all"] in lines
    for args in lines:
        if args != ["verify", "--suite", "all"]:
            assert main(args) == 0, args
            capsys.readouterr()
