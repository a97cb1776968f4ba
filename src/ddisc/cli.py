"""Command-line front end with machine-readable reports.

The commands and their arguments are the rows of ``_COMMANDS``.  Reports
are JSON on stdout, deterministic for fixed input and flags; pass
``--pretty`` for a plain-text rendering.  Exit codes: 0 success, 1 input
error, 2 classification unknown or computation outside the supported
family, 3 trace verification failure.
"""

import hashlib
import json
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import __version__
from .classify import (
    DynkinHereditary,
    LambdaClass,
    UnknownClass,
    clock_condition,
    cycle_count,
    is_derived_discrete,
    is_gentle,
    lambda_normal_form,
)
from .errors import (
    DdiscError,
    InfiniteDimensionalError,
    ParseError,
    PresentationError,
)
from .homology import build_string_object, hom_table
from .jordan import composition_factors, is_n_derived_simple, strip_series, verify_trace
from .presentation import (
    LambdaDescriptor,
    build_lambda,
    grothendieck_rank,
    lambda_descriptor_of,
    parse_presentation,
    serialize_presentation,
)

SCHEMA_VERSION = "2"

_OBJECT_RE = re.compile(r"([XY])(-?[0-9]+)")

# the largest --max-shift: a table of a million entries prints in well
# under a second, and a larger one is no table a caller reads
_MAX_SHIFT = 10**6

# the largest s + t of an inline Lambda(r,s,t): one of a million vertices
# takes one to two GB, and a larger one would end in a MemoryError
_MAX_LAMBDA_RANK = 10**6


def _inline_lambda(r, s, t):
    """``build_lambda(r, s, t)``, refused before it allocates when too large."""
    if LambdaDescriptor(r, s, t).rank() > _MAX_LAMBDA_RANK:
        raise ParseError(f"Lambda(r,s,t) needs s + t at most {_MAX_LAMBDA_RANK}")
    return build_lambda(r, s, t)


def _load_presentation(args):
    if args.lambda_spec is not None and args.input is not None:
        raise ParseError("give a file or --lambda, not both")
    if args.lambda_spec is not None:
        return _inline_lambda(*args.lambda_spec)
    if args.input is None:
        raise ParseError("no input: give a presentation file or --lambda R S T")
    with open(args.input, "rb") as fh:
        data = fh.read()
    try:
        # a leading byte order mark is no part of the text
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        at = len(data) - len(e.object) + e.start  # e.object lacks the mark
        raise ParseError(f"{args.input}: not UTF-8 text (byte offset {at})") from e
    return parse_presentation(text)


def _envelope(command, pres):
    canon = serialize_presentation(pres)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "input": {
            "sha256": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
            "vertices": len(pres.quiver.vertices),
            "arrows": len(pres.quiver.arrows),
            "relations": len(pres._relset),
        },
    }


def _normal_form_payload(cls):
    out = []
    for c in cls.components:
        if isinstance(c, LambdaClass):
            d = c.descriptor
            out.append({"type": "Lambda", "r": d.r, "s": d.s, "t": d.t})
        elif isinstance(c, DynkinHereditary):
            out.append({"type": "hereditary", "dynkin": c.type_name})
        else:
            out.append({"type": "unknown", "reason": c.reason})
    return out


def _component_label(entry):
    if entry["type"] == "Lambda":
        return f"Lambda({entry['r']},{entry['s']},{entry['t']})"
    if entry["type"] == "hereditary":
        return f"hereditary {entry['dynkin']}"
    return f"unknown ({entry['reason']})"


_quote = json.encoder.encode_basestring_ascii


def _json(value, newline="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder; this one
    knows only the shapes a report holds: dicts with str keys, lists and
    tuples, str (through the C escaper), int, bool and None.  Anything
    else, keys included, raises ``TypeError`` rather than print other bytes.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = (_quote(k) + ": " + _json(value[k], inner) for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = (_json(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"a report cannot hold {kind.__name__}")


def _emit(report, pretty, render):
    """Print ``render(report)``, or the report as indented JSON with
    sorted keys (see ``_json``)."""
    print(render(report) if pretty else _json(report))


# -- classify -----------------------------------------------------------------


def _render_classify(report):
    c = report["classification"]
    lines = [f"discreteness: {c['discreteness']['verdict']}"]
    for verdict, reason in c["discreteness"]["components"]:
        lines.append(f"  component: {verdict} ({reason})")
    lines.append(f"gentle: {'yes' if c['gentle']['gentle'] else 'no'}")
    for code, witness in c["gentle"]["violations"]:
        lines.append(f"  violated {code}: {witness}")
    lines.append(f"independent cycles: {c['cycles']}")
    if c["clock"] is not None:
        verdict = "holds" if c["clock"]["satisfied"] else "fails"
        lines.append(
            f"clock: {c['clock']['with']} with / {c['clock']['against']} "
            f"against ({verdict})"
        )
    lines.append(
        "normal form: "
        + " + ".join(_component_label(e) for e in c["normal_form"])
    )
    return "\n".join(lines)


def _run_classify(args):
    pres = _load_presentation(args)
    verdict = is_derived_discrete(pres)
    cert = is_gentle(pres)
    betti = cycle_count(pres)
    clock = None
    if cert.gentle and betti == 1:
        rep = clock_condition(pres)
        clock = {
            "with": rep.with_count,
            "against": rep.against_count,
            "satisfied": rep.satisfied,
        }
    cls = lambda_normal_form(pres)
    report = _envelope("classify", pres)
    report["classification"] = {
        "discreteness": {
            "verdict": verdict.verdict,
            "components": [list(c) for c in verdict.components],
        },
        "gentle": {
            "gentle": cert.gentle,
            "violations": [list(v) for v in cert.violations],
        },
        "cycles": betti,
        "clock": clock,
        "normal_form": _normal_form_payload(cls),
    }
    _emit(report, args.pretty, _render_classify)
    if verdict.verdict == "unknown":
        return 2
    if verdict.verdict == "yes" and cls.has_unknown():
        return 2
    return 0


# -- factors ------------------------------------------------------------------


def _render_factors(report):
    lines = [
        f"{entry['class']} x {entry['multiplicity']}"
        for entry in report["factors"]
    ]
    simple = report["simple"]
    lines.append(
        f"simple: {'yes' if simple['simple'] else 'no'} ({simple['witness']})"
    )
    return "\n".join(lines)


def _run_factors(args):
    if args.n < 1:
        raise ParseError(f"--n must be positive, got {args.n}")
    pres = _load_presentation(args)
    cls = lambda_normal_form(pres)
    if cls.has_unknown():
        reasons = [c.reason for c in cls.components if isinstance(c, UnknownClass)]
        print("error: normal form unknown: " + "; ".join(reasons), file=sys.stderr)
        return 2
    factors = composition_factors(cls)
    simple = is_n_derived_simple(cls, args.n)
    report = _envelope("factors", pres)
    report["n"] = args.n
    report["factors"] = [
        {"class": f.label(), "multiplicity": m, "rank": f.rank}
        for f, m in sorted(factors.items(), key=lambda fm: fm[0].label())
    ]
    report["simple"] = {
        "simple": simple.simple,
        "witness": simple.witness,
        "n_independent": simple.n_independent,
    }
    _emit(report, args.pretty, _render_factors)
    return 0


# -- series -------------------------------------------------------------------


def _render_series(report):
    lines = []
    for i, step in enumerate(report["series"]["steps"]):
        text = step["op"]
        if step["vertex"]:
            text += f" {step['vertex']}"
        if step["op"] == "split":
            text += f" into {step['parts']}"
        if step["factor"]:
            text += f" -> {step['factor']}"
        if step["witness"]:
            text += f"  [{step['witness']}]"
        lines.append(f"{i}. {text}")
    lines.append("factors: " + ", ".join(report["series"]["factors"]))
    ver = report["verification"]
    lines.append("verification: " + ("pass" if ver["ok"] else "FAIL"))
    lines.extend(f"  {msg}" for msg in ver["failures"])
    return "\n".join(lines)


def _run_series(args):
    pres = _load_presentation(args)
    trace = strip_series(pres)
    outcome = verify_trace(pres, trace)
    report = _envelope("series", pres)
    report["series"] = {
        "steps": [
            {
                "op": s.op,
                "vertex": s.vertex,
                "factor": s.factor.label() if s.factor else None,
                "parts": s.parts,
                "witness": s.witness,
            }
            for s in trace.steps
        ],
        "factors": [f.label() for f in trace.factors],
        "length": trace.length(),
        "rank": grothendieck_rank(pres),
    }
    report["verification"] = {"ok": outcome.ok, "failures": list(outcome.failures)}
    _emit(report, args.pretty, _render_series)
    return 0 if outcome.ok else 3


# -- hom ----------------------------------------------------------------------


def _parse_object(pres, desc, spec):
    m = _OBJECT_RE.fullmatch(spec)
    if m is None:
        raise ParseError(f"object {spec!r} is not of the form X<p> or Y<q>")
    kind, index = m.group(1), int(m.group(2))
    # over anything but Lambda(s,s,t) the library refuses the object itself
    if desc is not None and desc.r == desc.s:
        lo, hi = (0, desc.s - 1) if kind == "X" else (-desc.t, -1)
        if lo > hi:
            raise ParseError(f"object {spec!r}: there is no tail (t = 0)")
        if not lo <= index <= hi:
            raise ParseError(f"object {spec!r}: index {index} outside {lo}..{hi}")
    return build_string_object(pres, kind, index)


def _render_hom(report):
    h = report["hom"]
    return (
        f"Hom({h['from']}, {h['to']}[h]) for h = 0..{h['max_shift']}: "
        + ",".join(str(d) for d in h["dims"])
    )


def _run_hom(args):
    if args.max_shift < 0:
        raise ParseError("--max-shift must be nonnegative")
    if args.max_shift > _MAX_SHIFT:
        raise ParseError(f"--max-shift must be at most {_MAX_SHIFT}")
    pres = _load_presentation(args)
    desc = lambda_descriptor_of(pres)
    src = _parse_object(pres, desc, args.src)
    dst = _parse_object(pres, desc, args.dst)
    table = hom_table(pres, src, dst, args.max_shift)
    report = _envelope("hom", pres)
    report["hom"] = {
        "from": args.src,
        "to": args.dst,
        "max_shift": args.max_shift,
        "dims": list(table.entries),
    }
    _emit(report, args.pretty, _render_hom)
    return 0


def _run_build_lambda(args):
    sys.stdout.write(serialize_presentation(_inline_lambda(args.r, args.s, args.t)))
    return 0


# -- argv -----------------------------------------------------------------------

# one row per argument: its flag (None: a positional), the attribute a runner reads,
# the number of values (0: a switch), their type, required, default, metavar, help
_Arg = namedtuple("_Arg", "flag dest arity kind required default metavar help",
                  defaults=(1, str, False, None, None, ""))
_HELP = _Arg("-h, --help", "help", 0, help="show this help message and exit")
_TOP = {"-h": _HELP, "--help": _HELP}
_INPUT = (
    _Arg(None, "input", help="presentation file"),
    _Arg("--lambda", "lambda_spec", 3, int, metavar="R S T",
         help="inline Lambda(r,s,t) input instead of a file"),
    _Arg("--pretty", "pretty", 0, default=False, help="plain text instead of JSON"),
)
# command -> (runner, help, arguments in the order error messages list them)
_COMMANDS = {
    "classify": (_run_classify, "discreteness, gentleness, cycles, normal form", _INPUT),
    "factors": (_run_factors, "composition factor multiset and simplicity", _INPUT + (
        _Arg("--n", "n", kind=int, default=1, metavar="N", help="recollement depth"),)),
    "series": (_run_series, "composition series trace and its replay verification", _INPUT),
    "hom": (_run_hom, "derived hom dimension table between string objects", _INPUT + (
        _Arg("--from", "src", required=True, metavar="OBJ", help="X<p> or Y<q>"),
        _Arg("--to", "dst", required=True, metavar="OBJ", help="X<p> or Y<q>"),
        _Arg("--max-shift", "max_shift", 1, int, True, metavar="MAX_SHIFT", help="last h"))),
    "build-lambda": (_run_build_lambda, "emit the presentation of Lambda(r,s,t)",
                     tuple(_Arg(None, dest, kind=int, required=True) for dest in "rst")),
}


def _word(arg):
    return f"{arg.flag} {arg.metavar}" if arg.metavar else arg.flag or arg.dest


def _usage(command):
    if command is None:
        return "usage: ddisc [-h] {" + ",".join(_COMMANDS) + "} ...\n"
    words = [_word(a) if a.required else f"[{_word(a)}]" for a in _COMMANDS[command][2]]
    return " ".join(["usage: ddisc", command, "[-h]", *words]) + "\n"


def _fail(command, message):
    """Print the usage line and ``message`` to stderr; exit 1 (2 is a verdict)."""
    prog = "ddisc" if command is None else f"ddisc {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(1)


def _option(command, flags, token):
    """What ``token`` is ahead of any ``--``: ``None`` for a value, else
    ``(arg, flag, explicit value or None)``, with ``arg`` ``None`` for an unknown flag."""
    if token[:1] != "-" or token == "-":
        return None
    prefix, eq, explicit = token.partition("=")
    if prefix in flags:
        return flags[prefix], prefix, explicit if eq else None
    if token[1] == "-":
        names, explicit = [f for f in flags if f.startswith(prefix)], explicit if eq else None
    else:  # "-h" takes the rest of its token as its value
        names, explicit = ["-h"] if token[1] == "h" else [], token[2:]
    if len(names) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(names)}")
    if names:
        return flags[names[0]], names[0], explicit
    number = re.match(r"^-\d+$|^-\d*\.\d+$", token)  # a negative number is a value
    return None if number or " " in token else (None, token, None)


def _show_help(command, flag, explicit):
    # "-hh" asks twice; any other tail, or a value for "--help", is refused
    rest = explicit.lstrip("h") if flag == "-h" and explicit else explicit
    if explicit is not None and (rest or not explicit or flag != "-h"):
        _fail(command, f"argument -h/--help: ignored explicit argument {rest!r}")
    rows = [(name, row[1]) for name, row in _COMMANDS.items()] if command is None else []
    rows += [(_word(a), a.help) for a in (_HELP, *(_COMMANDS[command][2] if command else ()))]
    width = max(len(name) for name, _ in rows)
    lines = [f"  {name:{width}}  {text}".rstrip() for name, text in rows]
    sys.stdout.write(_usage(command) + "\n" + "\n".join(lines) + "\n")
    raise SystemExit(0)


def _parse(argv):
    """The attributes a runner reads, from ``argv`` by the rows of ``_COMMANDS``, with
    the values and error messages of the parser it replaced (the tests' reference)."""
    extras, i = [], 0
    while i < len(argv) and argv[i] != "--" and (option := _option(None, _TOP, argv[i])):
        if option[0] is not None:
            _show_help(None, *option[1:])
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        _fail(None, "the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]  # "--" with more after it is no command
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    table = _COMMANDS[command][2]
    flags = {**_TOP, **{a.flag: a for a in table if a.flag}}
    positionals = [a for a in table if not a.flag]
    args = SimpleNamespace(command=command, **{a.dest: a.default for a in table})
    # every token ahead of "--" is read first, so an ambiguous one is reported first
    end = rest.index("--") if "--" in rest else len(rest)
    options = [_option(command, flags, t) for t in rest[:end]] + [None] * (len(rest) - end)
    j, last = 0, None  # last: the last token a positional took
    while j < len(rest):
        option, token, k = options[j], rest[j], j
        j += 1
        if option is None and positionals and k != end:  # read as the positional's value
            option, last = (positionals.pop(0), None, token), k
        if k == end:  # this "--" goes to a positional beside it, else to extras
            if not (last == end - 1 or positionals):
                extras.append(token)
        elif option is None or option[0] is None:
            extras.append(token)
        elif option[0] is _HELP:
            _show_help(command, *option[1:])
        else:
            a, flag, explicit = option
            if explicit is None and j + a.arity <= end and not any(options[j:j + a.arity]):
                values, j = rest[j:j + a.arity], j + a.arity
            elif explicit is not None and a.arity == 1:
                values = [explicit]
            else:
                count = "one argument" if a.arity == 1 else f"{a.arity} arguments"
                why = f"ignored explicit argument {explicit!r}"
                _fail(command, f"argument {flag}: {f'expected {count}' if a.arity else why}")
            for n, value in enumerate(values):
                try:
                    values[n] = a.kind(value)
                except ValueError:
                    _fail(command, f"argument {flag or a.dest}: invalid int value: {value!r}")
            setattr(args, a.dest, values[0] if a.arity == 1 else values or True)
    missing = [a.flag or a.dest for a in table if a.required and getattr(args, a.dest) is None]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[args.command][0](args)
    except (ParseError, PresentationError, InfiniteDimensionalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DdiscError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
