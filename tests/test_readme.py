"""README examples stay runnable: every Python block runs and every
`qvalued ...` command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from qvalued import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README.read_text(), re.S)


def _command_lines():
    return [line.strip() for block in _blocks("sh")
            for line in block.splitlines()
            if line.strip().startswith("qvalued ")]


def test_readme_has_examples():
    assert _blocks("python")
    assert _command_lines()


@pytest.mark.parametrize("index", range(len(_blocks("python"))))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_blocks("python")[index], "README.md", "exec"), {})


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


@pytest.mark.parametrize("command", ["fit", "excess", "seminorm", "exponent"])
def test_seed_option_is_gone(command, capsys):
    argv = [command, "--in", "s.csv", "--out", "o.json", "--seed", "3"]
    if command == "seminorm":
        argv += ["--lambda", "4.5"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
