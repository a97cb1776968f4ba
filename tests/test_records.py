"""The result records are immutable named tuples that print, compare and
hash by their fields, as the frozen dataclasses before them did.

Each ``repr`` below is the text the records printed before they were
named tuples: the dataclass text, and the hand-written ``HomTable`` one.
``HomTable`` compared by its entries but did not hash.
"""

import pytest

from ddisc import (
    K,
    DynkinHereditary,
    HomTable,
    LambdaDescriptor,
    Path,
    PresentationError,
    RadicalProjectivity,
    SeriesStep,
    SeriesTrace,
    SimplicityVerdict,
    UnknownClass,
    ag_invariant,
    build_lambda,
    build_string_object,
    clock_condition,
    hom_table,
    is_derived_discrete,
    is_gentle,
    is_n_derived_simple,
    is_radical_projective,
    lambda_normal_form,
    strip_series,
    verify_trace,
)

L121 = build_lambda(1, 2, 1)
L221 = build_lambda(2, 2, 1)
X0 = build_string_object(L221, "X", 0)
TRACE = strip_series(L121)
SPLIT_TEXT = "SeriesStep(op='split', vertex='', factor=None, parts=1, witness='-1,0,1')"
STRIP_TEXT = (
    "SeriesStep(op='strip-source', vertex='-1', factor=None, parts=0,"
    " witness='no arrows into -1')"
)

# (record, a field to change, a new value for it, its repr)
RECORDS = [
    (
        is_gentle(L121),
        "gentle",
        False,
        "GentleCertificate(gentle=True, violations=())",
    ),
    (
        clock_condition(L121),
        "against_count",
        1,
        "ClockReport(cycle=(('a0', 1), ('a1', 1)), with_count=1, against_count=0)",
    ),
    (
        ag_invariant(L121),
        "pairs",
        (),
        "AGInvariant(pairs=((1, 2), (2, 1)))",
    ),
    (
        lambda_normal_form(L121).components[0],
        "descriptor",
        LambdaDescriptor(1, 2, 0),
        "LambdaClass(descriptor=LambdaDescriptor(r=1, s=2, t=1))",
    ),
    (
        DynkinHereditary("A", 3),
        "rank",
        4,
        "DynkinHereditary(letter='A', rank=3)",
    ),
    (
        UnknownClass("why"),
        "reason",
        "why not",
        "UnknownClass(reason='why')",
    ),
    (
        lambda_normal_form(L121),
        "components",
        (),
        "DerivedEquivClass(components="
        "(LambdaClass(descriptor=LambdaDescriptor(r=1, s=2, t=1)),))",
    ),
    (
        is_derived_discrete(L121),
        "verdict",
        "no",
        "DiscretenessVerdict(verdict='yes', components="
        "(('yes', 'one-cycle gentle, unbalanced cycle relations (1 vs 0)'),))",
    ),
    (
        K,
        "rank",
        2,
        "FactorClass(kind='field', rank=1)",
    ),
    (
        is_n_derived_simple(lambda_normal_form(L121), 1),
        "n_independent",
        False,
        "SimplicityVerdict(simple=False,"
        " witness='one-point extension at the tail vertex -1', n_independent=True)",
    ),
    (
        is_radical_projective(L121, "0"),
        "defect",
        1,
        "RadicalProjectivity(projective=True, cover=('1',), defect=0)",
    ),
    (
        TRACE.steps[0],
        "parts",
        2,
        SPLIT_TEXT,
    ),
    (
        SeriesTrace(L121, TRACE.steps[:2], (K,)),
        "factors",
        (),
        "SeriesTrace(initial=BoundQuiverPresentation(3 vertices, 3 arrows,"
        f" 1 relations), steps=({SPLIT_TEXT}, {STRIP_TEXT}),"
        " factors=(FactorClass(kind='field', rank=1),))",
    ),
    (
        verify_trace(L121, TRACE),
        "ok",
        False,
        "TraceReport(ok=True, failures=())",
    ),
    (
        L121.make_path(["a0"]),
        "arrows",
        ("a0", "a1"),
        "Path(source='0', target='1', arrows=('a0',))",
    ),
    (
        LambdaDescriptor(1, 2, 1),
        "t",
        0,
        "LambdaDescriptor(r=1, s=2, t=1)",
    ),
    (
        hom_table(L221, X0, X0, 4),
        "entries",
        (1, 0),
        "HomTable(entries=(1, 0, 1, 0, 1))",
    ),
]


@pytest.mark.parametrize(
    "record, field, value, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_records_print_compare_and_hash_by_fields(record, field, value, text):
    assert repr(record) == text
    twin = type(record)(*tuple(record))
    assert twin == record and hash(twin) == hash(record) == hash(tuple(record))
    other = record._replace(**{field: value})
    assert type(other) is type(record) and getattr(other, field) == value
    assert other != record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = value


def test_record_defaults():
    assert SeriesStep("split") == SeriesStep("split", "", None, 0, "")
    assert SimplicityVerdict(True, "w") == SimplicityVerdict(True, "w", True)


def test_a_path_is_as_long_and_as_true_as_its_arrows():
    trivial, arrow = L121.trivial_path("0"), L121.make_path(["a0"])
    assert (len(trivial), bool(trivial)) == (0, False)
    assert (len(arrow), bool(arrow)) == (1, True)
    assert arrow._replace(arrows=()) == trivial._replace(target="1")


def test_radical_projectivity_is_true_when_projective():
    assert bool(RadicalProjectivity(True, ("1",), 0)) is True
    assert bool(RadicalProjectivity(False, ("1",), 1)) is False


@pytest.mark.parametrize(
    "fields, message",
    [
        ((2, 1, 0), "need 1 <= r <= s, got r=2, s=1"),
        ((0, 1, 0), "need 1 <= r <= s, got r=0, s=1"),
        ((1, 1, -1), "need t >= 0, got t=-1"),
    ],
)
def test_lambda_descriptor_refuses_bad_parameters(fields, message):
    with pytest.raises(PresentationError) as info:
        LambdaDescriptor(*fields)
    assert str(info.value) == message
    with pytest.raises(PresentationError) as info:
        LambdaDescriptor(1, 1, 0)._replace(**dict(zip("rst", fields)))
    assert str(info.value) == message


def test_records_equal_the_tuple_of_their_fields():
    # the one change from the dataclasses, which equalled only their own class
    assert K == ("field", 1)
    assert LambdaDescriptor(1, 2, 1) == (1, 2, 1)
    assert hom_table(L221, X0, X0, 2) == ((1, 0, 1),)


def test_a_hom_table_holds_a_tuple_of_ints():
    table = HomTable([1, True, 2.0])
    assert table.entries == (1, 1, 2) and all(type(x) is int for x in table.entries)
    assert repr(table) == "HomTable(entries=(1, 1, 2))"
    other = table._replace(entries=[False, 3])
    assert other.entries == (0, 3) and all(type(x) is int for x in other.entries)
