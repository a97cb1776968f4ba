"""Library refusals: each bad call raises its own error type and text."""

import pytest

from ddisc import (
    DdiscError,
    PreconditionError,
    PresentationError,
    SeriesStep,
    SeriesTrace,
    build_lambda,
    build_string_object,
    clock_condition,
    idempotent_subalgebra,
    is_radical_projective,
    module_direct_sum,
    parse_presentation,
    simple_module,
    two_truncated_cycle,
    verify_trace,
)
from ddisc.homology import RepModule
from ddisc.presentation import BoundQuiverPresentation, Quiver

A3 = "vertex 0\nvertex 1\nvertex 2\narrow a 0 1\narrow b 1 2\n"

# one cycle, but a then b and a then d are both nonzero: not gentle
NOT_GENTLE = (
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
    "arrow a 0 1\narrow b 1 2\narrow c 2 0\narrow d 1 3\n"
    "relation b c\nrelation c a\n"
)

# three vertices, arrows and relations, as in Lambda(3,3,0), but two
# arrows leave vertex 1
TWO_OUT = (
    "vertex 0\nvertex 1\nvertex 2\n"
    "arrow a 0 1\narrow b 1 2\narrow c 1 0\n"
    "relation a b\nrelation a c\nrelation c a\n"
)


def a3():
    return parse_presentation(A3)


def make_path(names):
    return a3().make_path(names)


REFUSALS = {
    "empty quiver": (
        lambda: Quiver([], []),
        PresentationError,
        "a quiver needs at least one vertex",
    ),
    "duplicate vertex": (
        lambda: Quiver(["0", "0"], []),
        PresentationError,
        "duplicate vertex id",
    ),
    "duplicate arrow": (
        lambda: Quiver(["0", "1"], [("a", "0", "1"), ("a", "1", "0")]),
        PresentationError,
        "duplicate arrow id 'a'",
    ),
    "undeclared endpoint": (
        lambda: Quiver(["0"], [("a", "0", "1")]),
        PresentationError,
        "arrow 'a' has undeclared endpoint",
    ),
    "short relation": (
        lambda: BoundQuiverPresentation(a3().quiver, [("a",)]),
        PresentationError,
        "relation ('a',) shorter than 2",
    ),
    "duplicate relation": (
        lambda: BoundQuiverPresentation(a3().quiver, [("a", "b"), ("a", "b")]),
        PresentationError,
        "duplicate relation",
    ),
    "trivial path at an unknown vertex": (
        lambda: a3().trivial_path("9"),
        PresentationError,
        "unknown vertex '9'",
    ),
    "empty path": (
        lambda: make_path([]),
        PresentationError,
        "empty arrow list; use trivial_path",
    ),
    "product of paths that do not compose": (
        lambda: a3().path_product(make_path(["b"]), make_path(["a"])),
        PresentationError,
        "paths do not compose",
    ),
    "radical projectivity at an unknown vertex": (
        lambda: is_radical_projective(a3(), "9"),
        PreconditionError,
        "unknown vertex '9'",
    ),
    "clock condition off a gentle input": (
        lambda: clock_condition(parse_presentation(NOT_GENTLE)),
        PreconditionError,
        "clock condition needs a gentle presentation",
    ),
    "negative dimension": (
        lambda: RepModule(a3(), {"0": -1}, {}),
        PreconditionError,
        "negative dimension",
    ),
    "empty module sum": (
        lambda: module_direct_sum([]),
        PreconditionError,
        "empty direct sum",
    ),
    "module sum over two algebras": (
        lambda: module_direct_sum(
            [simple_module(a3(), "0"), simple_module(build_lambda(1, 2, 0), "0")]
        ),
        PreconditionError,
        "direct sum needs a common algebra and field",
    ),
    "unknown string object kind": (
        lambda: build_string_object(build_lambda(2, 2, 1), "Z", 0),
        PreconditionError,
        "unknown string object kind 'Z'",
    ),
    "corner presented by an infinite quiver": (
        # x*y*z*x leaves 15 basis paths, but the corner's generators x*y
        # and z form a cycle with no relation between them
        lambda: idempotent_subalgebra(
            parse_presentation(
                "vertex 1\nvertex 2\nvertex 3\narrow x 1 2\narrow y 2 3\n"
                "arrow z 3 1\nrelation x y z x\n"
            ),
            ["1", "3"],
        ),
        PreconditionError,
        "corner algebra is not quadratic monomial on these generators",
    ),
    "corner keeping nothing": (
        lambda: idempotent_subalgebra(parse_presentation("vertex 0\n"), []),
        PresentationError,
        "a quiver needs at least one vertex",
    ),
}


@pytest.mark.parametrize("call,error,text", REFUSALS.values(), ids=REFUSALS)
def test_a_bad_call_is_refused_with_its_own_error(call, error, text):
    with pytest.raises(DdiscError) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == text


def test_a_replay_refuses_a_cycle_with_two_arrows_out_of_a_vertex():
    pres = parse_presentation(TWO_OUT)
    cycle = two_truncated_cycle(3)
    steps = (SeriesStep("split", parts=1), SeriesStep("terminal", factor=cycle))
    report = verify_trace(pres, SeriesTrace(pres, steps, (cycle,)))
    assert report.failures == ("step 1: not isomorphic to Lambda(3,3,0)",)
