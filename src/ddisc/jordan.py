"""Composition factors and replayable composition-series traces.

A derived discrete algebra reduces to the base field and 2-truncated cycle
algebras through a chain of corner-algebra steps: splitting into connected
components, stripping a one-point extension or coextension vertex, and
dropping a vertex whose projective has projective radical.  ``strip_series``
builds such a chain greedily; ``verify_trace`` replays one and re-checks
every step's precondition, so a trace is auditable evidence rather than a
claim.  ``composition_factors`` computes the factor multiset straight from
the normal form, giving an independent cross-check on the trace.

Every step's precondition is decided by the quiver's shape or by counting
basis paths: for monomial relations, whether a vertex's projective has
projective radical is a comparison of path counts (Green-Happel-Zacharia),
so building and checking a series constructs no module and runs no linear
algebra.
"""

from collections import Counter
from dataclasses import dataclass

from .errors import DdiscError, PreconditionError, StripStuckError
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
    Quiver,
    connected_components,
    grothendieck_rank,
    path_basis,
    vertex_sort_key,
)

# Unused here since radical projectivity is read off path counts, but
# perfbench/test_perfbench.py checks that its tracer wraps this binding.
from .homology import projective_cover  # noqa: F401


# -- factor classes ------------------------------------------------------------


@dataclass(frozen=True)
class FactorClass:
    """A composition factor: the base field or a 2-truncated cycle algebra.

    ``rank`` is the number of simple modules the factor accounts for: 1 for
    the field, s for the cycle algebra on s vertices.
    """

    kind: str  # "field" | "cycle"
    rank: int

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


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    witness: str
    n_independent: bool = True


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


@dataclass(frozen=True)
class RadicalProjectivity:
    projective: bool
    cover: tuple  # cover summand vertices of rad P_v
    defect: int  # kernel dimension of the cover map; zero iff projective

    def __bool__(self):
        return self.projective


def is_radical_projective(pres, v) -> RadicalProjectivity:
    """Whether rad P_v is projective, with its cover as the witness.

    For monomial relations rad P_v is the direct sum of the right ideals aA
    over the arrows a: v -> w, and aA is spanned by the basis paths that
    start with a.  Each aA is a quotient of P_w with simple top, so it is
    projective exactly when it has as many basis paths as P_w; the defect
    sums the gaps, which is the kernel dimension of the cover by the P_w.
    """
    if v not in pres.quiver.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    q = pres.quiver
    basis = path_basis(pres)
    by_source = Counter(p.source for p in basis)
    by_first = Counter(p.arrows[0] for p in basis if p.arrows)
    outs = sorted(q.arrows_from(v), key=lambda a: vertex_sort_key(q.target(a)))
    defect = sum(by_source[q.target(a)] - by_first[a] for a in outs)
    return RadicalProjectivity(defect == 0, tuple(q.target(a) for a in outs), defect)


# -- corner algebras -------------------------------------------------------------


def _is_source(pres, v):
    return not pres.quiver.arrows_into(v)


def _is_sink(pres, v):
    return not pres.quiver.arrows_from(v)


def idempotent_subalgebra(pres, keep) -> BoundQuiverPresentation:
    """Corner algebra on the kept vertices, for single-vertex drops.

    The dropped vertex must be a source, a sink, or radical-projective.
    Arrows of the corner are the kept-to-kept basis paths with no kept
    interior vertex; relations are the length-2 arrow products vanishing in
    the ambient algebra.  The result is validated against the corner's path
    counts and rejected when quadratic monomial relations cannot present it.
    """
    kept = set(keep)
    unknown = kept - set(pres.quiver.vertices)
    if unknown:
        raise PreconditionError(f"unknown vertices {sorted(unknown)}")
    dropped = [v for v in pres.quiver.vertices if v not in kept]
    if len(dropped) != 1:
        raise PreconditionError(
            f"exactly one vertex must be dropped, got {len(dropped)}"
        )
    [v] = dropped
    if not (
        _is_source(pres, v)
        or _is_sink(pres, v)
        or is_radical_projective(pres, v).projective
    ):
        raise PreconditionError(
            f"vertex {v!r} is not a source, a sink, or radical-projective"
        )
    corner = [p for p in path_basis(pres) if p.source in kept and p.target in kept]
    target = pres.quiver.target
    gens = [
        p
        for p in corner
        if len(p) >= 1 and not any(target(a) in kept for a in p.arrows[:-1])
    ]
    arrows = [(p.label(), p.source, p.target) for p in gens]
    gens_from = {}
    for h in gens:
        gens_from.setdefault(h.source, []).append(h)
    relations = [
        (g.label(), h.label())
        for g in gens
        for h in gens_from.get(g.target, ())
        if pres.path_product(g, h) is None
    ]
    out = BoundQuiverPresentation(Quiver(kept, arrows), relations)
    # the quadratic presentation must reproduce the corner's path counts
    expected = Counter((p.source, p.target) for p in corner)
    found = Counter((p.source, p.target) for p in path_basis(out))
    if expected != found:
        raise PreconditionError(
            "corner algebra is not quadratic monomial on these generators"
        )
    return out


# -- series traces ---------------------------------------------------------------


@dataclass(frozen=True)
class SeriesStep:
    """One reduction in a series trace; ``witness`` says why it applies.

    Ops: "split" into connected components (``parts`` of them), the vertex
    strips "strip-source" / "strip-sink" / "drop-radical" (each emits a field
    factor), and "terminal" (emits ``factor`` and retires the component).
    """

    op: str
    vertex: str = ""
    factor: FactorClass = None
    parts: int = 0
    witness: str = ""


@dataclass(frozen=True)
class SeriesTrace:
    """An ordered reduction chain from an initial presentation.

    ``factors`` lists the emitted factor classes in emission order; its
    length is the series length and never exceeds the rank of the start.
    """

    initial: BoundQuiverPresentation
    steps: tuple
    factors: tuple

    def factor_multiset(self) -> Counter:
        return Counter(self.factors)

    def length(self) -> int:
        return len(self.factors)


def _strippable_vertex(comp):
    """First applicable strip: sources, then sinks, then radical drops."""
    for v in comp.quiver.vertices:
        if _is_source(comp, v):
            return "strip-source", v, f"no arrows into {v}"
    for v in comp.quiver.vertices:
        if _is_sink(comp, v):
            return "strip-sink", v, f"no arrows out of {v}"
    for v in comp.quiver.vertices:
        report = is_radical_projective(comp, v)
        if report.projective:
            cover = ",".join(report.cover)
            return "drop-radical", v, f"rad P({v}) is projective with cover {cover}"
    return None


def _is_two_truncated_cycle(pres, n) -> bool:
    """Whether ``pres`` is isomorphic to Lambda(n,n,0).

    That holds exactly when the n arrows form one oriented cycle through all
    n vertices and the relations are the n consecutive arrow pairs of it.
    """
    q = pres.quiver
    if n < 1 or len(q.vertices) != n or len(q.arrows) != n:
        return False
    if any(len(q.arrows_from(v)) != 1 for v in q.vertices):
        return False
    first = q.arrows_from(q.vertices[0])[0]
    cycle = [first]
    while len(cycle) <= n:
        nxt = q.arrows_from(q.target(cycle[-1]))[0]
        if nxt == first:
            break
        cycle.append(nxt)
    if len(cycle) != n:
        return False
    pairs = {(a, cycle[(i + 1) % n]) for i, a in enumerate(cycle)}
    return len(pres.relations) == n and all(
        rel.arrows in pairs for rel in pres.relations
    )


def _terminal_step(comp):
    """Terminal step when the component is the field or a 2-truncated cycle."""
    verts = comp.quiver.vertices
    if len(verts) == 1 and not comp.quiver.arrows:
        return SeriesStep(
            "terminal", vertex=verts[0], factor=K, witness="single vertex, no arrows"
        )
    n = len(verts)
    if _is_two_truncated_cycle(comp, n):
        return SeriesStep(
            "terminal",
            factor=two_truncated_cycle(n),
            witness=f"isomorphic to Lambda({n},{n},0)",
        )
    return None


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
    at_top = True
    while stack:
        comp = stack.pop()
        parts = connected_components(comp)
        if at_top or len(parts) > 1:
            at_top = False
            steps.append(
                SeriesStep(
                    "split",
                    parts=len(parts),
                    witness="; ".join(",".join(p.quiver.vertices) for p in parts),
                )
            )
            stack.extend(reversed(parts))
            continue
        done = _terminal_step(comp)
        if done is not None:
            steps.append(done)
            factors.append(done.factor)
            continue
        found = _strippable_vertex(comp)
        if found is None:
            raise StripStuckError(
                f"no applicable reduction on {comp!r}", residual=comp
            )
        op, v, witness = found
        steps.append(SeriesStep(op, vertex=v, witness=witness))
        factors.append(K)
        stack.append(
            idempotent_subalgebra(comp, [w for w in comp.quiver.vertices if w != v])
        )
    trace = SeriesTrace(pres, tuple(steps), tuple(factors))
    if trace.length() > grothendieck_rank(pres):
        raise PreconditionError(
            f"series of length {trace.length()} exceeds the rank"
            f" {grothendieck_rank(pres)}"
        )
    return trace


# -- trace verification ------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    ok: bool
    failures: tuple  # human-readable, one entry per distinct violation


def _replay_step(current, step, stack, emitted):
    """Apply one claimed step to the replay state; returns the problem or ''."""
    if step.op == "split":
        parts = connected_components(current)
        if len(parts) != step.parts:
            return f"claimed {step.parts} components, found {len(parts)}"
        stack.extend(reversed(parts))
        return ""
    if step.op == "terminal":
        f = step.factor
        if f is None:
            return "terminal step without a factor"
        if f.kind == "field":
            if len(current.quiver.vertices) != 1 or current.quiver.arrows:
                return "terminal K needs a lone vertex with no arrows"
        elif not _is_two_truncated_cycle(current, f.rank):
            return f"not isomorphic to Lambda({f.rank},{f.rank},0)"
        emitted.append(f)
        return ""
    v = step.vertex
    if v not in current.quiver.vertices:
        return f"no vertex {v!r} here"
    if step.op == "strip-source":
        if current.quiver.arrows_into(v):
            return f"vertex {v!r} has incoming arrows"
    elif step.op == "strip-sink":
        if current.quiver.arrows_from(v):
            return f"vertex {v!r} has outgoing arrows"
    elif step.op == "drop-radical":
        report = is_radical_projective(current, v)
        if not report.projective:
            return f"rad P({v}) is not projective (defect {report.defect})"
    else:
        return f"unknown op {step.op!r}"
    try:
        corner = idempotent_subalgebra(
            current, [w for w in current.quiver.vertices if w != v]
        )
    except DdiscError as e:
        return f"corner construction failed: {e}"
    stack.append(corner)
    emitted.append(K)
    return ""


def verify_trace(pres: BoundQuiverPresentation, trace: SeriesTrace) -> TraceReport:
    """Replay a trace against its claimed start, re-checking every step.

    Reported separately: a start mismatch, the first step whose precondition
    fails on the replayed state, recorded factors differing from the replay,
    a factor multiset disagreeing with the classified normal form, and a
    series longer than the rank allows.
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
        problem = _replay_step(stack.pop(), step, stack, emitted)
        if problem:
            failures.append(f"step {i}: {problem}")
            break
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
