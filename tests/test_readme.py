"""README's examples, run as written: the docs cannot drift from the code."""

import pathlib
import re
import shlex
from collections import Counter

import ddisc
import ddisc.cli as cli

README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_blocks(language):
    """The bodies of README's code blocks fenced as ``language``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def shell_session():
    """(argv, output shown) of each ``$ ddisc`` line of README's session."""
    [block] = [b for b in readme_blocks("sh") if b.startswith("$ ddisc ")]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ "):
            runs.append((shlex.split(line[2:]), []))
        elif line:
            runs[-1][1].append(line + "\n")
    return [(argv, "".join(shown)) for argv, shown in runs]


def test_the_command_line_session_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = []
    for argv, shown in shell_session():
        assert argv[0] == "ddisc"
        argv, target = (argv[1:-2], argv[-1]) if ">" in argv else (argv[1:], None)
        commands.append(argv[0])
        assert cli.main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        if target:
            assert shown == ""
            (tmp_path / target).write_text(out, encoding="utf-8")
        else:
            assert out == shown, argv
    assert commands == ["build-lambda", "classify", "factors", "series", "hom"]


def test_the_library_snippet_runs_and_shows_what_it_says():
    # a comment shows a value, or names the type of what a line assigns
    [snippet] = readme_blocks("python")
    namespace = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    names = {**vars(ddisc), "Counter": Counter, "TTC": ddisc.two_truncated_cycle}
    checked = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            continue
        target, assigned, expression = code.rpartition(" = ")
        if assigned:
            value = namespace[target.strip()]
            assert type(value).__name__ == comment.split()[-1], line
        else:
            value = eval(expression, namespace)
            assert value == eval(comment, names), line
        checked += 1
    assert checked == 4
