"""Composition factors and replayable composition-series traces.

A derived discrete algebra reduces to the base field and 2-truncated cycle
algebras through a chain of corner-algebra steps: splitting into connected
components, stripping a one-point extension or coextension vertex, and
dropping a vertex whose projective has projective radical.  ``strip_series``
builds such a chain greedily, choosing each step by the predicates that
``_step_problem`` checks; ``verify_trace`` replays one and re-checks every
step through ``_step_problem``, so a trace is auditable evidence rather than
a claim.  Both apply every step through ``_apply``, whose strips are
``presentation._corner``.  ``composition_factors`` computes the factor
multiset straight from the normal form, giving an independent cross-check on
the trace.

A series is decided on the relation set and counts no path.  Its steps
need relations of length at most 2 and refuse longer ones: every input
``strip_series`` accepts is hereditary or gentle, so it has no others.
Then rad P_v is projective iff no relation starts with an arrow out of v
(Green-Happel-Zacharia), which ``_radical_projective`` looks up, and
``_corner`` presents the corner that drops such a vertex, or a source or a
sink, exactly by quadratic relations.  So building and checking a series
lists no path, constructs no module and runs no linear algebra.  Neither
touches its input, as ``_corner`` copies a presentation before its first
edit, and a component is searched for parts again only when ``_corner``
could not keep it marked connected.
"""

from collections import Counter, namedtuple

from .errors import DdiscError, PreconditionError, PresentationError, StripStuckError
from .classify import (
    DerivedEquivClass,
    DynkinHereditary,
    LambdaClass,
    UnknownClass,
    is_derived_discrete,
    lambda_normal_form,
)
from .presentation import (
    BoundQuiverPresentation,
    _assert_finite_dimensional,
    _assert_quadratic,
    _corner,
    _freeze,
    connected_components,
    grothendieck_rank,
    path_counts,
    vertex_sort_key,
)

# Unused here since radical projectivity is read off the relation set, but
# perfbench/test_perfbench.py checks that its tracer wraps this binding.
from .homology import projective_cover  # noqa: F401


# -- factor classes ------------------------------------------------------------


class FactorClass(namedtuple("FactorClass", "kind rank")):
    """A composition factor: the base field or a 2-truncated cycle algebra.

    ``kind`` is "field" or "cycle".  ``rank`` is the number of simple
    modules the factor accounts for: 1 for the field, s for the cycle
    algebra on s vertices.
    """

    __slots__ = ()

    def label(self) -> str:
        return "K" if self.kind == "field" else f"TwoTruncatedCycle({self.rank})"


K = FactorClass("field", 1)


def two_truncated_cycle(s: int) -> FactorClass:
    if s < 1:
        raise PreconditionError(f"cycle size must be positive, got {s}")
    return FactorClass("cycle", s)


def composition_factors(cls: DerivedEquivClass) -> Counter:
    """Factor multiset of a classified algebra.

    Each Lambda(s,s,t) component contributes one cycle factor of size s;
    everything else dissolves into copies of the field, weighted so that the
    total rank of the factors equals the rank of the input.
    """
    total = 0
    out = Counter()
    for c in cls.components:
        if isinstance(c, UnknownClass):
            raise PreconditionError(f"unclassified component: {c.reason}")
        if isinstance(c, LambdaClass):
            total += c.rank()
            d = c.descriptor
            if d.r == d.s:
                out[two_truncated_cycle(d.s)] += 1
        elif isinstance(c, DynkinHereditary):
            total += c.rank
        else:
            raise PreconditionError(f"unsupported component {c!r}")
    field_mult = total - sum(f.rank * m for f, m in out.items())
    if field_mult < 0:
        raise PreconditionError("cycle factors exceed the rank")
    if field_mult:
        out[K] = field_mult
    return out


class SimplicityVerdict(
    namedtuple("SimplicityVerdict", "simple witness n_independent", defaults=(True,))
):
    __slots__ = ()


def is_n_derived_simple(cls: DerivedEquivClass, n: int) -> SimplicityVerdict:
    """Whether the class admits no nontrivial recollement chain of depth n.

    The answer never depends on n: the class is simple exactly when it is a
    single component equal to the field or to a 2-truncated cycle.  The
    witness names the normal form or the reduction that disproves simplicity.
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    if cls.has_unknown():
        reasons = [c.reason for c in cls.components if isinstance(c, UnknownClass)]
        raise PreconditionError("unclassified component: " + "; ".join(reasons))
    if len(cls.components) != 1:
        return SimplicityVerdict(
            False, f"splits into {len(cls.components)} components"
        )
    [c] = cls.components
    if isinstance(c, DynkinHereditary):
        if c.rank == 1:
            return SimplicityVerdict(True, "derived equivalent to the base field")
        return SimplicityVerdict(
            False, f"hereditary {c.type_name} strips a source vertex"
        )
    d = c.descriptor
    if d.r == d.s and d.t == 0:
        return SimplicityVerdict(True, f"2-truncated cycle Lambda({d.s},{d.s},0)")
    if d.t > 0:
        return SimplicityVerdict(
            False, f"one-point extension at the tail vertex {-d.t}"
        )
    return SimplicityVerdict(False, "vertex 0 of the cycle has projective radical")


# -- radical projectivity --------------------------------------------------------


class RadicalProjectivity(namedtuple("RadicalProjectivity", "projective cover defect")):
    """``cover`` lists the cover summand vertices of rad P_v; ``defect`` is
    the kernel dimension of the cover map, zero iff projective."""

    __slots__ = ()

    def __bool__(self):
        return self.projective


def is_radical_projective(pres, v) -> RadicalProjectivity:
    """Whether rad P_v is projective, with its cover as the witness.

    For monomial relations rad P_v is the direct sum of the right ideals aA
    over the arrows a: v -> w, and aA is spanned by the basis paths that
    start with a.  Each aA is a quotient of P_w with simple top, so it is
    projective exactly when it has as many basis paths as P_w; the defect
    sums the gaps, which is the kernel dimension of the cover by the P_w.
    Both counts come from ``path_counts``: dim P_w is the trivial path at w
    plus the paths by each first arrow out of w.
    """
    if v not in pres.quiver.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    q = pres.quiver
    by_first = path_counts(pres)[1]

    def dim_projective(w):
        return 1 + sum(by_first[b] for b in q.arrows_from(w))

    outs = sorted(q.arrows_from(v), key=lambda a: vertex_sort_key(q.target(a)))
    defect = sum(dim_projective(q.target(a)) - by_first[a] for a in outs)
    return RadicalProjectivity(defect == 0, tuple(q.target(a) for a in outs), defect)


def _radical_projective(pres, v) -> bool:
    """``is_radical_projective(pres, v).projective``, looked up in the
    relation set, whose relations must have length at most 2
    (``_assert_quadratic``): the summand aA of rad P_v is P_w for
    a: v -> w iff no nonzero path p has ap = 0, iff no relation starts
    with a.  A loop at v is refused outright: over a finite dimensional
    algebra it starts a relation, and ``_corner`` needs none."""
    _assert_quadratic(pres)
    q, relset = pres.quiver, pres._relset
    return not any(
        q.target(a) == v or any((a, b) in relset for b in q.arrows_from(q.target(a)))
        for a in q.arrows_from(v)
    )


# -- corner algebras -------------------------------------------------------------


def idempotent_subalgebra(pres, keep) -> BoundQuiverPresentation:
    """Corner algebra on the kept vertices, for single-vertex drops.

    The dropped vertex v must be a source, a sink, or radical-projective.
    Arrows of the corner are the kept-to-kept basis paths with no kept
    interior vertex, read at v: the arrows between kept vertices and the
    normal products a*b through v, each product named apart from every
    arrow of the input.  Relations are the length-2 products of those that
    vanish in the ambient algebra, which presents the corner exactly, as
    the ambient's relations must have length at most 2: longer ones are
    refused with PreconditionError.  The corner is the ambient's copy with
    one series step's edit applied: lists change at v's neighbours only,
    and no path is counted.  A corner that keeps no vertex is refused like
    a quiver without one.  Raises InfiniteDimensionalError like
    ``path_basis`` only for an infinite dimensional input.
    """
    kept = set(keep)
    unknown = kept.difference(pres.quiver.vertices)
    if unknown:
        raise PreconditionError(f"unknown vertices {sorted(unknown)}")
    dropped = set(pres.quiver.vertices).difference(kept)
    if len(dropped) != 1:
        raise PreconditionError(
            f"exactly one vertex must be dropped, got {len(dropped)}"
        )
    [v] = dropped
    _assert_finite_dimensional(pres)
    q = pres.quiver
    if q.arrows_into(v) and q.arrows_from(v) and not _radical_projective(pres, v):
        raise PreconditionError(
            f"vertex {v!r} is not a source, a sink, or radical-projective"
        )
    if not kept:
        # as ``Quiver`` refuses the corner's quiver
        raise PresentationError("a quiver needs at least one vertex")
    return _freeze(_corner(pres, v))


# -- series traces ---------------------------------------------------------------


class SeriesStep(
    namedtuple(
        "SeriesStep", "op vertex factor parts witness", defaults=("", None, 0, "")
    )
):
    """One reduction in a series trace; ``witness`` says why it applies.

    Ops: "split" into connected components (``parts`` of them), the vertex
    strips "strip-source" / "strip-sink" / "drop-radical" (each emits a field
    factor), and "terminal" (emits ``factor`` and retires the component).
    """

    __slots__ = ()


class SeriesTrace(namedtuple("SeriesTrace", "initial steps factors")):
    """An ordered reduction chain from an initial presentation.

    ``factors`` lists the emitted factor classes in emission order; its
    length is the series length and never exceeds the rank of the start.
    """

    __slots__ = ()

    def factor_multiset(self) -> Counter:
        return Counter(self.factors)

    def length(self) -> int:
        return len(self.factors)


def _strippable_vertex(comp):
    """First applicable strip: sources, then sinks, then radical drops."""
    q = comp.quiver
    for v in q.vertices:
        if not q.arrows_into(v):
            return SeriesStep("strip-source", v, witness=f"no arrows into {v}")
    for v in q.vertices:
        if not q.arrows_from(v):
            return SeriesStep("strip-sink", v, witness=f"no arrows out of {v}")
    for v in q.vertices:
        if _radical_projective(comp, v):
            cover = sorted(map(q.target, q.arrows_from(v)), key=vertex_sort_key)
            witness = f"rad P({v}) is projective with cover {','.join(cover)}"
            return SeriesStep("drop-radical", v, witness=witness)
    return None


def _is_two_truncated_cycle(pres, n) -> bool:
    """Whether ``pres`` is isomorphic to Lambda(n,n,0).

    That holds exactly when the n arrows form one oriented cycle through all
    n vertices and the relations are the n consecutive arrow pairs of it.
    """
    q = pres.quiver
    if n < 1 or not len(q.vertices) == len(q.arrows) == len(pres._relset) == n:
        return False
    if any(len(q.arrows_from(v)) != 1 for v in q.vertices):
        return False
    first = q.arrows_from(next(iter(q.vertices)))[0]
    cycle = [first]
    while len(cycle) <= n:
        nxt = q.arrows_from(q.target(cycle[-1]))[0]
        if nxt == first:
            break
        cycle.append(nxt)
    if len(cycle) != n:
        return False
    pairs = {(a, cycle[(i + 1) % n]) for i, a in enumerate(cycle)}
    return pres._relset <= pairs


def _terminal_step(comp):
    """Terminal step when the component is the field or a 2-truncated cycle."""
    q = comp.quiver
    verts = q.vertices
    n = len(verts)
    # the field needs n == 1, the cycle n arrows and n relations
    if n != 1 and not n == len(q.arrows) == len(comp._relset):
        return None
    if not _retire_problem(comp, K):
        [v] = verts
        return SeriesStep("terminal", v, K, witness="single vertex, no arrows")
    cycle = two_truncated_cycle(n)
    if not _retire_problem(comp, cycle):
        witness = f"isomorphic to Lambda({n},{n},0)"
        return SeriesStep("terminal", factor=cycle, witness=witness)
    return None


def _retire_problem(current, factor, vertex="") -> str:
    """Why a terminal that emits ``factor`` and names ``vertex`` (none, or
    the lone vertex of a field) cannot retire ``current``, or ''."""
    q = current.quiver
    if factor.kind == "field":
        if len(q.vertices) != 1 or q.arrows:
            return "terminal K needs a lone vertex with no arrows"
    elif not _is_two_truncated_cycle(current, factor.rank):
        return f"not isomorphic to Lambda({factor.rank},{factor.rank},0)"
    # a field holds one vertex: naming any vertex it holds names that one
    if not vertex or factor.kind == "field" and vertex in q.vertices:
        return ""
    return f"terminal {factor.label()} names vertex {vertex!r}"


def _step_problem(current, step) -> str:
    """Why ``step`` does not apply to ``current``, or '' when it does."""
    q = current.quiver
    if step.parts and step.op != "split":
        return f"{step.op} claims {step.parts} parts; only a split has parts"
    if step.factor is not None and step.op != "terminal":
        return f"{step.op} carries a factor; only a terminal does"
    if step.op == "split":
        parts = connected_components(current)
        if len(parts) != step.parts:
            return f"claimed {step.parts} components, found {len(parts)}"
        return f"split names vertex {step.vertex!r}" if step.vertex else ""
    if step.op == "terminal":
        if step.factor is None:
            return "terminal step without a factor"
        return _retire_problem(current, step.factor, step.vertex)
    v = step.vertex
    if v not in q.vertices:
        return f"no vertex {v!r} here"
    if step.op == "strip-source":
        if q.arrows_into(v):
            return f"vertex {v!r} has incoming arrows"
    elif step.op == "strip-sink":
        if q.arrows_from(v):
            return f"vertex {v!r} has outgoing arrows"
    elif step.op == "drop-radical":
        if not _radical_projective(current, v):
            defect = is_radical_projective(current, v).defect
            return f"rad P({v}) is not projective (defect {defect})"
    else:
        return f"unknown op {step.op!r}"
    if len(q.vertices) == 1:
        return (
            f"vertex {v!r} is a one-vertex component;"
            " only a terminal step retires one"
        )
    return ""


def _apply(current, step):
    """The pieces ``step`` leaves of ``current`` and the factors it emits.

    A strip is ``_corner``, which edits a working copy in place and copies
    a presentation.  The parts of a split are of the kind split: a working
    copy's parts take over its lists and, like it, never leave the series.
    """
    if step.op == "split":
        return connected_components(current), ()
    if step.op == "terminal":
        return (), (step.factor,)
    return (_corner(current, step.vertex),), (K,)


def strip_series(pres: BoundQuiverPresentation) -> SeriesTrace:
    """Greedy reduction of a derived discrete presentation to its factors.

    Split into connected components first and whenever a strip disconnects
    the remainder.  A component that is a lone vertex or a 2-truncated cycle
    terminates; otherwise strip a source vertex, else a sink vertex, else
    drop a radical-projective vertex, smallest id first, and recurse on the
    corner algebra.  Source and sink strips undo one-point (co)extensions.
    """
    verdict = is_derived_discrete(pres)
    if verdict.verdict != "yes":
        raise PreconditionError(
            f"series needs a derived discrete input, verdict here: {verdict.verdict}"
        )
    steps = []
    factors = []
    stack = [pres]
    while stack:
        comp = stack.pop()
        # free on a part or a corner that _corner kept marked connected
        parts = connected_components(comp)
        if not steps or len(parts) > 1:
            witness = "; ".join(",".join(p.quiver.vertices) for p in parts)
            step = SeriesStep("split", parts=len(parts), witness=witness)
        else:
            step = _terminal_step(comp) or _strippable_vertex(comp)
        if step is None:
            raise StripStuckError(
                f"no applicable reduction on {comp!r}", residual=_freeze(comp)
            )
        steps.append(step)
        pieces, emitted = _apply(comp, step)
        factors += emitted
        stack.extend(reversed(pieces))
    return SeriesTrace(pres, tuple(steps), tuple(factors))


# -- trace verification ------------------------------------------------------------


class TraceReport(namedtuple("TraceReport", "ok failures")):
    __slots__ = ()  # failures: human-readable, one entry per distinct violation


def verify_trace(pres: BoundQuiverPresentation, trace: SeriesTrace) -> TraceReport:
    """Replay a trace against its claimed start, re-checking every step.

    Reported separately: a start mismatch, the first step whose precondition
    fails on the replayed state or cannot be checked there (the defect of a
    failed drop is counted, which an infinite dimensional state refuses, and
    every step refuses relations longer than 2), recorded
    factors differing from the replay, a factor multiset disagreeing with
    the classified normal form, and a series longer than the rank allows.
    """
    failures = []
    if trace.initial != pres:
        failures.append("trace does not start at the given presentation")
    emitted = []
    stack = [pres]
    for i, step in enumerate(trace.steps):
        if not stack:
            failures.append(f"step {i}: nothing left to reduce")
            break
        current = stack.pop()
        try:
            problem = _step_problem(current, step)
        except DdiscError as e:
            problem = f"step check failed: {e}"
        if not problem:
            try:
                pieces, factors = _apply(current, step)
            except DdiscError as e:
                problem = f"corner construction failed: {e}"
        if problem:
            failures.append(f"step {i}: {problem}")
            break
        stack.extend(reversed(pieces))
        emitted += factors
    else:
        if stack:
            failures.append("steps ended with unreduced components")
    if not failures:
        if tuple(emitted) != trace.factors:
            failures.append("recorded factors differ from the replayed factors")
        cls = lambda_normal_form(pres)
        if cls.has_unknown():
            failures.append(
                "factor check unavailable: normal form has unknown components"
            )
        elif composition_factors(cls) != Counter(trace.factors):
            failures.append("factor multiset does not match the normal form")
    if trace.length() > grothendieck_rank(pres):
        failures.append(
            f"length {trace.length()} exceeds rank {grothendieck_rank(pres)}"
        )
    return TraceReport(not failures, tuple(failures))
