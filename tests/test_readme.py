import doctest
import re
import shlex
from pathlib import Path

import credalplp as c
from credalplp.cli import run

import fixtures as fx

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    """The `>>>` examples in README.md print what they show."""
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0 and result.attempted >= 5


def test_readme_programs_are_the_fixtures():
    """The `prolog` blocks are the fixtures ALARM and WINS, each headed by a
    comment that names its file."""
    blocks = re.findall(r"```prolog\n(.*?)```", README.read_text(), re.S)
    names = [re.match(r"% (\S+\.plp)", block).group(1) for block in blocks]
    assert names == ["alarm.plp", "wins.plp"]
    for name, block, fixture in zip(names, blocks, (fx.ALARM, fx.WINS)):
        assert c.parse_program(block) == c.parse_program(fixture)


def test_readme_query_lines_print_what_their_comments_state(tmp_path, monkeypatch, capsys):
    """Each `credalplp query` line with a comment prints every `;`-separated
    line of that comment, and exits 0."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alarm.plp").write_text(fx.ALARM)
    (tmp_path / "wins.plp").write_text(fx.WINS)
    lines = re.findall(r"^credalplp (query .*?)\s+# (.*)$", README.read_text(), re.M)
    assert len(lines) >= 7
    for command, comment in lines:
        code = run(["--no-timing", *shlex.split(command)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0, command
        for stated in comment.split("; "):
            assert stated in out, (command, stated)
