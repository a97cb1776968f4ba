"""Command-line front end with machine-readable reports: the argv parser.

``cli._parse`` reads argv by the rows of ``cli._COMMANDS``.  The argparse
parser it replaced is kept below, unchanged, as the reference: a seeded
grammar of argvs goes through both, and they must accept and refuse the
same argvs, with the same values and the same error lines.
"""

import argparse
import contextlib
import io
import pathlib
import random
import subprocess
import sys

import pytest

import ddisc.cli as cli
from ddisc.cli import _run_classify, _run_factors, _run_hom, _run_series

# -- the reference: the argparse parser, as cli built it ------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is taken, input errors are 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_flags(sub):
    sub.add_argument("input", nargs="?", help="presentation file")
    sub.add_argument(
        "--lambda",
        dest="lambda_spec",
        nargs=3,
        type=int,
        metavar=("R", "S", "T"),
        help="inline Lambda(r,s,t) input instead of a file",
    )
    sub.add_argument(
        "--pretty", action="store_true", help="plain text instead of JSON"
    )


def _build_parser():
    parser = _Parser(prog="ddisc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner, extra in (
        ("classify", _run_classify, ()),
        ("factors", _run_factors, ("n",)),
        ("series", _run_series, ()),
        ("hom", _run_hom, ("hom",)),
    ):
        p = sub.add_parser(name)
        _add_input_flags(p)
        p.set_defaults(runner=runner)
        if "n" in extra:
            p.add_argument("--n", type=int, default=1, help="recollement depth")
        if "hom" in extra:
            p.add_argument("--from", dest="src", required=True, metavar="OBJ")
            p.add_argument("--to", dest="dst", required=True, metavar="OBJ")
            p.add_argument("--max-shift", type=int, required=True)
    b = sub.add_parser("build-lambda")
    b.add_argument("r", type=int)
    b.add_argument("s", type=int)
    b.add_argument("t", type=int)
    b.set_defaults(runner=None)
    return parser


# -- a grammar of argvs -----------------------------------------------------------

FLAGS = {
    "--lambda": 3, "--pretty": 0, "--n": 1, "--from": 1, "--to": 1, "--max-shift": 1,
}
OWN_FLAGS = {
    "classify": ("--lambda", "--pretty"),
    "factors": ("--lambda", "--pretty", "--n"),
    "series": ("--lambda", "--pretty"),
    "hom": ("--lambda", "--pretty", "--from", "--to", "--max-shift"),
    "build-lambda": (),
}
INTS = ("1", "2", "3", "0", "-3", "+4", " 7 ", "12")
ODD_VALUES = (
    "x", "", "1.5", "-1.5", "-.5", "1e3", "٣", "X0", "Y-1", "-", "--", "a b",
    "-x y", "-3\n", "3\n", "--pretty",
)
NOISE = (
    "--bogus", "-x", "-1x", "---", "--lambda-x", "--=x", "--=", "-hx", "-hh", "-hhx",
    "-h=", "-h=h", "--help=1", "--pretty=1", "--pretty=", "--n=", "--n=--", "--lam=1",
    "--from=--", "--max-shift=--", "-", "", "file.txt", "--he",
)
ODD_COMMANDS = ("bogus", "class", "", "-3", "CLASSIFY", "hom ", "-", "--")


def _value(rng):
    return rng.choice(INTS) if rng.random() < 0.7 else rng.choice(ODD_VALUES)


def _spelling(rng, flag):
    """The flag in full, or a unique prefix of it."""
    if rng.random() < 0.7:
        return flag
    return flag[: rng.randrange(3, len(flag) + 1)]


def _flag_item(rng, command):
    own = OWN_FLAGS[command]
    flag = rng.choice(own) if own and rng.random() < 0.85 else rng.choice(tuple(FLAGS))
    arity = FLAGS[flag]
    if rng.random() < 0.15:  # too few or too many values
        arity = max(0, arity + rng.choice((-2, -1, 1)))
    values = [_value(rng) for _ in range(arity)]
    name = _spelling(rng, flag)
    if values and rng.random() < 0.25:
        return [f"{name}={values[0]}", *values[1:]]
    return [name, *values]


def _positional_item(rng, command):
    if command == "build-lambda":
        return [_value(rng) for _ in range(rng.choice((1, 1, 2, 3, 3, 4)))]
    return [rng.choice(("in.txt", "-3", "-", "a b", "x"))]


def _sub_argv(rng, command):
    items = []
    for _ in range(rng.randrange(0, 7)):
        roll = rng.random()
        if roll < 0.55:
            items.append(_flag_item(rng, command))
        elif roll < 0.75:
            items.append(_positional_item(rng, command))
        elif roll < 0.85:
            items.append(["--"])
        elif roll < 0.97:
            items.append([rng.choice(NOISE)])
        else:
            items.append([rng.choice(("-h", "--help", "--h"))])
    if command == "hom" and rng.random() < 0.6:  # mostly with the required flags
        for flag in ("--from", "--to", "--max-shift"):
            items.append(_flag_item(rng, "hom") if rng.random() < 0.2 else [flag, _value(rng)])
    if command != "build-lambda" and rng.random() < 0.5:
        items.append(["--lambda", "2", "2", "1"])
    rng.shuffle(items)
    return [token for item in items for token in item]


def random_argv(rng):
    roll = rng.random()
    if roll < 0.02:
        return []
    head = []
    if roll < 0.12:
        head = [rng.choice(("-h", "--help", "--he", "--bogus", "-x", "--", "-hx", "--=x"))]
    if rng.random() < 0.04:
        return head + [rng.choice(ODD_COMMANDS)] + _sub_argv(rng, "classify")
    command = rng.choice(tuple(OWN_FLAGS))
    return head + [command] + _sub_argv(rng, command)


# -- the differential test ----------------------------------------------------------


def outcome(parse, argv):
    """(exit code or None, namespace or None, the stderr lines with ``error:``)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return None, parse(list(argv)), []
        except SystemExit as e:
            return e.code, None, [line for line in err.getvalue().splitlines() if "error:" in line]


def test_the_parser_reads_argv_as_argparse_did(monkeypatch):
    # argparse drops a "--" that follows the first one from a value it
    # takes alone and stores []; the value now reads "--", so an int
    # dest refuses it
    dropped = []
    get_values = argparse.ArgumentParser._get_values

    def recording(self, action, arg_strings):
        value = get_values(self, action, arg_strings)
        if action.nargs is None and value == []:
            dropped.append(action.dest)
        return value

    monkeypatch.setattr(_Parser, "_get_values", recording)
    reference = _build_parser().parse_args
    rng = random.Random(30)
    seen = {"accepted": 0, "refused": 0, "help": 0, "dropped --": 0}
    for _ in range(4000):
        argv = random_argv(rng)
        dropped.clear()
        ref_code, ref_args, ref_errors = outcome(reference, argv)
        code, args, errors = outcome(cli._parse, argv)
        if dropped:
            seen["dropped --"] += 1
            if set(dropped) & {"n", "max_shift", "r", "s", "t"}:
                assert code == 1 and errors[0].endswith("invalid int value: '--'"), argv
                continue
        if ref_args is None:
            assert code == ref_code and errors == ref_errors, argv
            seen["help" if code == 0 else "refused"] += 1
            continue
        dests = ["command"] + [a.dest for a in cli._COMMANDS[ref_args.command][2]]
        values = {d: getattr(ref_args, d) for d in dests}
        values.update((d, "--") for d in dropped if values[d] == [])
        assert code is None, (argv, errors)
        assert {d: getattr(args, d) for d in dests} == values, argv
        seen["accepted"] += 1
    assert min(seen.values()) >= 20, seen


def test_a_second_double_dash_is_a_value():
    result = subprocess.run(
        [sys.executable, "-m", "ddisc.cli", "build-lambda", "--", "2", "--", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert "ddisc build-lambda: error: argument s: invalid int value: '--'" in result.stderr
    assert "Traceback" not in result.stderr
    # the same drop once gave a runner [] for --from, --n and --max-shift
    for argv, message in (
        (["hom", "--lambda", "2", "2", "1", "--from=--", "--to", "X0", "--max-shift", "1"],
         "error: object '--' is not of the form X<p> or Y<q>\n"),
        (["factors", "--lambda", "2", "2", "1", "--n=--"],
         cli._usage("factors") + "ddisc factors: error: argument --n: invalid int value: '--'\n"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        assert code == 1 and err.getvalue() == message


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_names_every_argument_of_its_row(command, capsys):
    argv = ["-h"] if command is None else [command, "-h"]
    with pytest.raises(SystemExit) as shown:
        cli.main(argv)
    assert shown.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(cli._usage(command)) and "-h, --help" in out
    if command is None:
        assert all(f"\n  {name} " in out for name in cli._COMMANDS)
    else:
        for a in cli._COMMANDS[command][2]:
            assert (a.flag or a.dest) in out


def test_a_run_imports_no_argparse():
    # a site hook may load some of these first, so compare before and after
    code = (
        "import sys, io, contextlib\n"
        "before = set(sys.modules)\n"
        "import ddisc.cli as cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'typing', 'inspect'}))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', '--lambda', '2', '2', '1']) == 0\n"
        "print('argparse' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0 and result.stdout == "[]\nFalse\n", result.stderr


def test_docstrings_stripped_still_parse():
    # python -OO sets __doc__ to None, which the argparse description read
    result = subprocess.run(
        [sys.executable, "-OO", "-m", "ddisc.cli", "classify", "--lambda", "2", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stderr == ""


def test_a_file_is_read_and_closed_under_warnings_as_errors():
    # dev mode reports an unclosed file as a ResourceWarning, which -W error
    # turns into output on stderr
    path = pathlib.Path(__file__).parent / "data" / "lambda_2_3_1.txt"
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "ddisc.cli", "classify", str(path)],
        capture_output=True,
        text=True,
    )
    expected = path.with_name("lambda_2_3_1.classify.out").read_text(encoding="utf-8")
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


def _run_under_warnings_as_errors(argv):
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "ddisc.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_series_and_hom_run_under_warnings_as_errors():
    # series reads its file and replays its trace; hom resolves string
    # objects through the annihilator generators the automaton yields
    data = pathlib.Path(__file__).parent / "data"
    path = data / "lambda_2_3_1.txt"
    result = _run_under_warnings_as_errors(["series", str(path)])
    expected = path.with_name("lambda_2_3_1.series.out").read_text(encoding="utf-8")
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")
    argv = ["hom", str(data / "lambda_3_3_2.txt"), "--from", "X1", "--to", "Y-2"]
    argv += ["--max-shift", "12"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    result = _run_under_warnings_as_errors(argv)
    assert (result.returncode, result.stdout, result.stderr) == (0, out.getvalue(), "")
