"""The README's documented library example and command-line block run as written."""

import re
import shlex
from pathlib import Path

from tailtest.cli import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_block_runs():
    block = _section_block("Library", "python")
    exec(compile(block, f"{README.name} Library block", "exec"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # Each command, continuation lines joined and comments dropped, runs
    # in a scratch directory in order: `sample` writes the file that
    # `test --input` reads.
    monkeypatch.chdir(tmp_path)
    text = _section_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["tailtest", "complexity"], ["tailtest", "sample"], ["tailtest", "proxy"],
        ["tailtest", "test"], ["tailtest", "test"], ["tailtest", "simulate"]]
    for argv in commands:
        code = run_cli(argv[1:])
        captured = capsys.readouterr()
        assert captured.err == "", argv
        if "--exit-verdict" in argv:
            assert code == 4, argv  # light: the exponential is the boundary case
        else:
            assert code == 0, argv
        if argv[1] == "complexity":
            assert captured.out == "k=12\nn=17177\n"
    for name in ("lomax.txt", "curve.csv", "report.json", "lomax_k32.csv"):
        assert Path(name).stat().st_size > 0, name
