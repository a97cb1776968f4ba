"""Command-line front end with machine-readable reports.

Commands: ``classify`` (gentleness, cycles, clock, discreteness, normal
form), ``factors`` (composition factor multiset and simplicity), ``series``
(greedy composition-series trace plus its replay verification), ``hom``
(derived hom dimension tables between string objects) and ``build-lambda``
(emit a normal-form presentation as text).

Reports are JSON on stdout, deterministic for fixed input and flags; pass
``--pretty`` for a plain-text rendering.  Exit codes: 0 success, 1 input
error, 2 classification unknown or computation outside the supported
family, 3 trace verification failure.
"""

import argparse
import hashlib
import json
import re
import sys

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
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{args.input}: not UTF-8 text (byte offset {e.start})") from e
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
    pres = _load_presentation(args)
    desc = lambda_descriptor_of(pres)
    src = _parse_object(pres, desc, args.src)
    dst = _parse_object(pres, desc, args.dst)
    if args.max_shift < 0:
        raise ParseError("--max-shift must be nonnegative")
    if args.max_shift > _MAX_SHIFT:
        raise ParseError(f"--max-shift must be at most {_MAX_SHIFT}")
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


# -- entry point ----------------------------------------------------------------


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


_PARSER = None


def _parser():
    """The parser, built on first use and then reused.

    Building it takes about 1 ms, as long as a small ``classify`` run;
    ``parse_args`` keeps no state between calls.  A plain global rather
    than ``functools.cache``: the benchmark tracer reads any ddisc binding
    that has ``__wrapped__`` as one of its own wrappers.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "build-lambda":
            pres = _inline_lambda(args.r, args.s, args.t)
            sys.stdout.write(serialize_presentation(pres))
            return 0
        return args.runner(args)
    except (ParseError, PresentationError, InfiniteDimensionalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DdiscError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
