"""The README's examples run as written, and its flag table is the parser's."""

import json
import re
import shlex
from pathlib import Path

from sparsecode import cli
from test_cli import _parser_table

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_shell_examples_run_in_order(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPARSECODE_CAP", raising=False)
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("sparsecode ")]
    assert len(lines) >= 10
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code in (0, 1), line
        assert out.count("\n") == 1, line
        json.loads(out)


def test_library_tour_runs(capsys):
    (tour,) = _blocks("python")
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out


def _readme_flag_table():
    """The README's per-subcommand flag table, in _parser_table's form."""
    start = README.index("| command | flags |\n")
    rows = README[start:].split("\n\n")[0].splitlines()[2:]
    table = {}
    for row in rows:
        commands, flags = row.strip("|").split("|")
        required = " ".join(re.findall(r"\*\*`([^`]*)`\*\*", flags)).split()
        optional = " ".join(re.findall(r"`([^`]*)`",
                                       re.sub(r"\*\*`[^`]*`\*\*", "", flags))).split()
        names = re.findall(r"`([^`]*)`", commands)
        # `verify rip2`, `flat-rip`: a bare name follows the first one's command
        for name in names:
            command = name if " " in name or name == names[0] else (
                f"{names[0].split()[0]} {name}")
            table[command] = (sorted(optional), sorted(required))
    return table


def test_flag_table_is_what_the_parser_accepts():
    assert _readme_flag_table() == _parser_table(cli._build_parser())

