"""Derived discreteness classification.

The decision table lives in :func:`_classify_component` and nowhere else.
Per connected component it gives a verdict, a reason and a normal form:

* infinite dimensional: refused with an error;
* no relations, Dynkin underlying graph: discrete (hereditary of finite
  representation type), normal form that Dynkin type;
* no relations otherwise: not discrete;
* not gentle: unknown, naming the first violated gentleness condition;
* gentle with more than one independent cycle: unknown;
* gentle tree: discrete, normal form A_n; it has no oriented cycle, so it
  is finite dimensional, and it is iterated tilted of type A_n
  (Assem-Happel 1981);
* gentle with one cycle: discrete exactly when the two traversal
  orientations of the cycle carry different numbers of relations (the
  clock condition fails), normal form the ``Lambda(r,s,t)`` that matches
  the invariant.

Verdicts follow Vossieck (2001), normal forms Bobinski-Geiss-Skowronski
(2004): a discrete one-cycle component is some ``Lambda(r,s,t)``, so the
invariant always matches one.  :func:`is_derived_discrete` and
:func:`lambda_normal_form` read one pass over the components, cached on
the presentation.

Gentleness, finite dimension, relation-full cycles and the invariant of a
component read one link pass over its vertices (:func:`_link_table`) and
one walk along its threads (:func:`_thread_walk`), both cached; a sum
reads its parts'.  So a gentle component walks no automaton; the others
are checked on the suffix automaton.  Normal forms of one-cycle classes
are read off :func:`ag_invariant`, which sends ``Lambda(r,s,t)`` to the
pairs ``(r+t, t)`` and ``(s-r, s)``.  No step searches for an isomorphism,
so classification is polynomial in the size of the input.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import InfiniteDimensionalError, PreconditionError
from .presentation import (
    BoundQuiverPresentation,
    LambdaDescriptor,
    _assert_finite_dimensional,
    _cached,
    connected_components,
    vertex_sort_key,
)

# Unused here since normal forms come from the invariant, but
# perfbench/test_perfbench.py checks that its tracer wraps this binding.
from .presentation import find_isomorphism  # noqa: F401

# -- gentleness: the link pass ------------------------------------------------


class GentleCertificate(namedtuple("GentleCertificate", "gentle violations")):
    __slots__ = ()  # violations: (condition, witness) pairs


# the witnesses of the link pass's faults by code (G1 for 0-1, G3 for 2-3,
# G4 for 4-5), in the order a report lists those of one vertex or arrow
_FAULTS = (
    "vertex {} has more than two in-arrows", "vertex {} has more than two out-arrows",
    "arrow {} starts two relations", "arrow {} ends two relations",
    "arrow {} has two nonzero continuations", "arrow {} has two nonzero predecessors",
)


def is_gentle(pres: BoundQuiverPresentation) -> GentleCertificate:
    """Check the four gentleness conditions, collecting violations.

    G1 vertex degrees <= 2 on each side; G2 relations have length exactly 2;
    G3 every arrow extends to at most one relation on each side; G4 every
    arrow extends to at most one non-relation composite on each side.
    Computed once per presentation.
    """
    return _cached(pres, "gentle", _gentleness)


def _gentleness(pres):
    # a sum sorts the faults of its parts' link tables into its own order:
    # G1 by vertex, G2, then G3 and G4 by arrow (arrows are in name order)
    faults = [f for p in connected_components(pres) for f in _cached(p, "links", _link_table)[2]]
    if not faults and pres._maxrel <= 2:
        return GentleCertificate(True, ())
    faults.sort(key=lambda f: (f[0] > 1, f[1] if f[0] > 1 else vertex_sort_key(f[1]), f[0]))
    violations = [("G" + "113344"[k], _FAULTS[k].format(x)) for k, x in faults]
    g1, long = sum(k < 2 for k, _ in faults), pres.relations if pres._maxrel > 2 else ()
    violations[g1:g1] = [
        ("G2", f"relation {r.label()} has length {len(r)}") for r in long if len(r) != 2
    ]
    return GentleCertificate(False, tuple(violations))


def _link_table(pres):
    """``(rel_next, nz_next, faults, permitted, forbidden)``, cached as
    ``"links"``: one pass over the (in, out) arrow pairs at each vertex.
    rel_next[a] is the first c (in ``arrows_from`` order) with a*c a
    relation, nz_next[a] the first with a*c nonzero, where there is one;
    faults lists (``_FAULTS`` code, vertex or arrow).  As the pairs at v are
    all that precedes an arrow out of v, the pass also lists the thread
    starts (``_thread_walk``): the arrows with no predecessor of the kind,
    a forbidden one with its hop slot, and the trivial threads by slot.
    """
    q = pres.quiver
    relset, out = pres._relset, q._out
    rel_next, nz_next, faults = {}, {}, []
    p_starts, f_starts, p_trivial, f_trivial = [], [], {}, {}
    for v, ins in q._in.items():
        outs = out[v]
        if len(ins) == 1 == len(outs):
            a, c = ins[0], outs[0]
            if (a, c) in relset:
                rel_next[a] = c
                p_starts.append(c)
                f_trivial[v,] = (c, 0)
            else:
                nz_next[a] = c
                f_starts.append((c, (v,)))
                p_trivial[v,] = a
            continue
        faults += [(k, v) for k, side in enumerate((ins, outs)) if len(side) > 2]
        for a in ins:
            rel = [c for c in outs if (a, c) in relset]
            nonzero = [c for c in outs if c not in rel]
            for k, succ, found in ((2, rel_next, rel), (4, nz_next, nonzero)):
                if found:
                    succ[a] = found[0]
                if len(found) > 1:
                    faults.append((k, a))
        for c in outs:
            rel = sum((a, c) in relset for a in ins)
            faults += [(k, c) for k, n in ((3, rel), (5, len(ins) - rel)) if n > 1]
            if rel == len(ins):
                p_starts.append(c)
            if not rel:
                f_starts.append((c, outs[outs[0] == c] if len(outs) > 1 else (v,)))
        if len(ins) + len(outs) < 2:
            p_trivial[v,] = ins[0] if ins else (v,)
            f_trivial[v,] = (outs[0] if outs else (v,), 0)
    return rel_next, nz_next, faults, (p_starts, p_trivial), (f_starts, f_trivial)


# -- the thread walk ---------------------------------------------------------


def _thread_walk(pres):
    """``(permitted, forbidden, finite, cycles)`` of a gentle ``pres``,
    cached as ``"threads"``.  Threads are maximal paths along nonzero
    (permitted) or relation (forbidden) successors; a vertex with at most
    one arrow in and out has a trivial one, permitted unless its pair is a
    relation and forbidden unless it is nonzero.  Slots are end arrows, or
    ``(v,)`` for a trivial thread at v.  ``permitted`` maps a first slot to
    the forbidden last slot on the other in-slot at its end; ``forbidden``
    maps a last slot to the permitted first slot on the other out-slot at
    its start, and its length.  By G3 and G4 threads of a kind share no
    arrow: one on no permitted thread lies on a nonzero cycle (``finite``
    is false), one on no forbidden thread on a relation-full cycle, and
    only then are ``cycles`` searched.
    """
    arrows, into = pres.quiver.arrows, pres.quiver._in
    links = _cached(pres, "links", _link_table)
    rel_next, nz_next, _, (p_starts, p_trivial), (f_starts, f_trivial) = links
    permitted, forbidden = dict(p_trivial), dict(f_trivial)
    on_permitted = on_forbidden = 0
    for b in p_starts:
        e, nxt, length = b, nz_next.get(b), 1
        while nxt is not None:
            e, nxt, length = nxt, nz_next.get(nxt), length + 1
        on_permitted += length
        v = arrows[e][1]
        ins = into[v]
        permitted[b] = ins[ins[0] == e] if len(ins) > 1 else (v,)
    for b, hop in f_starts:
        e, nxt, length = b, rel_next.get(b), 1
        while nxt is not None:
            e, nxt, length = nxt, rel_next.get(nxt), length + 1
        on_forbidden += length
        forbidden[e] = (hop, length)
    inner = set(rel_next.values()).intersection(rel_next) if on_forbidden < len(arrows) else ()
    cycles = _cycles(rel_next, [b for b in arrows if b in inner]) if inner else ()
    return permitted, forbidden, on_permitted == len(arrows), cycles


def _cycles(succ, scan):
    """Cycles of the map ``succ`` met by walks from the arrows of ``scan`` in
    order, each rotated to start at its smallest arrow name."""
    cycles, scan_of = [], {}  # scan_of: arrow -> the walk that reached it
    for i, a in enumerate(scan):
        path, cur = [], a
        while cur is not None and cur not in scan_of:
            scan_of[cur] = i
            path.append(cur)
            cur = succ.get(cur)
        if cur is not None and scan_of[cur] == i:
            cycle = path[path.index(cur) :]
            k = cycle.index(min(cycle))
            cycles.append(tuple(cycle[k:] + cycle[:k]))
    return tuple(cycles)


def _assert_gentle_finite(pres):
    """Raise InfiniteDimensionalError, with the automaton's message, when
    the gentle ``pres`` is infinite dimensional (``_thread_walk``)."""
    if not _cached(pres, "threads", _thread_walk)[2]:
        raise InfiniteDimensionalError("relation-free cycle: the path basis is infinite")


# -- cycle structure ---------------------------------------------------------


def cycle_count(pres: BoundQuiverPresentation) -> int:
    """First Betti number of the underlying multigraph, computed once per
    presentation."""
    return _cached(pres, "betti", _betti)


def _betti(pres):
    q = pres.quiver
    return len(q.arrows) - len(q.vertices) + len(connected_components(pres))


class ClockReport(namedtuple("ClockReport", "cycle with_count against_count")):
    __slots__ = ()  # cycle: (arrow, +1|-1) steps of the closed walk

    @property
    def satisfied(self) -> bool:
        return self.with_count == self.against_count


def clock_condition(pres: BoundQuiverPresentation) -> ClockReport:
    """Count cycle relations in the two traversal orientations.

    Preconditions: gentle, first Betti number 1.  Out of the two opposite
    traversals the one chosen is canonical, and swapping it swaps the two
    counts, so ``satisfied`` is orientation independent.  Computed once per
    presentation.
    """
    if cycle_count(pres) != 1:
        raise PreconditionError("clock condition needs exactly one cycle")
    if not is_gentle(pres).gentle:
        raise PreconditionError("clock condition needs a gentle presentation")
    parts = connected_components(pres)
    if len(parts) > 1:  # the walk would strip every part but the one cycled
        return clock_condition(next(p for p in parts if cycle_count(p)))
    return _cached(pres, "clock", _clock_walk)


def _clock_walk(pres):
    # precondition, checked by clock_condition: the graph has exactly one
    # cycle, so stripping its leaves leaves that cycle, every degree on it 2
    q = pres.quiver
    arrows, out, into = q.arrows, q._out, q._in

    # strip leaves until only the unique cycle remains: a stripped vertex
    # has degree 0, so an arrow is left exactly when both its ends have a
    # degree; a loop counts twice at its vertex and is never stripped
    degree = {v: len(out[v]) + len(ins) for v, ins in into.items()}
    queue = [v for v, d in degree.items() if d == 1]
    while queue:
        v = queue.pop()
        if not degree[v]:  # its last arrow left with its other end
            continue
        degree[v] = 0
        for a in out[v] + into[v]:
            src, tgt = arrows[a]
            w = tgt if src == v else src
            if degree[w]:
                break
        degree[w] -= 1
        if degree[w] == 1:
            queue.append(w)

    # a walk that takes the smallest arrow left other than the one it came
    # by (forward when it starts at the current vertex, as a loop does)
    # goes round the cycle to start
    start = next(filter(degree.get, q.vertices))
    walk, current, prev = [], start, None
    while not walk or current != start:
        step = None
        for a in out[current] + into[current]:
            src, tgt = arrows[a]
            end = tgt if src == current else src
            if a != prev and degree[end] and (step is None or a < step[0]):
                step = a, 1 if src == current else -1, end
        prev, direction, current = step
        walk.append((prev, direction))

    relpairs = pres._relset
    m_with = m_against = 0
    for (a1, d1), (a2, d2) in zip(walk, walk[1:] + walk[:1]):
        if d1 == 1 and d2 == 1 and (a1, a2) in relpairs:
            m_with += 1
        elif d1 == -1 and d2 == -1 and (a2, a1) in relpairs:
            m_against += 1
    return ClockReport(tuple(walk), m_with, m_against)


# -- Dynkin recognition ------------------------------------------------------


def dynkin_type(pres: BoundQuiverPresentation):
    """Dynkin type ('A'|'D'|'E', rank) of the underlying graph when it is a
    tree (n - 1 arrows that connect the n vertices), else None."""
    q = pres.quiver
    n = len(q.vertices)
    if len(q.arrows) != n - 1 or len(connected_components(pres)) != 1:
        return None

    def neighbours(v):  # with multiplicity: a loop at v lists v twice
        return [q.target(a) for a in q._out[v]] + [q.source(a) for a in q._in[v]]

    degrees = {v: len(q._out[v]) + len(q._in[v]) for v in q.vertices}
    if any(d > 3 for d in degrees.values()):
        return None
    branches = [v for v in q.vertices if degrees[v] == 3]
    if not branches:
        return ("A", n)
    if len(branches) > 1:
        return None
    hub = branches[0]
    arms = []
    for first in neighbours(hub):
        length = 1
        prev, cur = hub, first
        while True:
            nxt = [w for w in neighbours(cur) if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", 3 + arms[2])
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    return None


# -- relation-full cycles -------------------------------------------------------


def relation_full_cycles(pres: BoundQuiverPresentation) -> tuple:
    """Oriented arrow cycles whose consecutive pairs are all relations.

    Needs unique relation successors per arrow (gentleness gives that).
    Cycles come back as arrow tuples rotated to start at the smallest arrow
    name, in the order a scan of the arrows in name order meets them: a
    gentle input reads them off its threads, any other scans every arrow.
    """
    if is_gentle(pres).gentle:
        return _cached(pres, "threads", _thread_walk)[3]
    rel_next, _, faults, _, _ = _cached(pres, "links", _link_table)
    forked = [b for k, b in faults if k == 2]
    if forked:
        raise PreconditionError(f"arrow {min(forked)} starts two relations")
    return _cycles(rel_next, pres.quiver.arrows)


# -- the thread-pairing invariant ---------------------------------------------


class AGInvariant(namedtuple("AGInvariant", "pairs")):
    """Multiset of (n, m) pairs from the permitted/forbidden thread pairing."""

    __slots__ = ()  # pairs: sorted tuple of (n, m) with multiplicity

    def as_multiset(self) -> dict:
        return dict(Counter(self.pairs))


def ag_invariant(pres: BoundQuiverPresentation) -> AGInvariant:
    """Derived-equivalence invariant of a finite dimensional gentle algebra.

    Pairs the threads of ``_thread_walk``: from a permitted thread's end to
    the forbidden thread ending on the other in-slot there, then to the
    permitted thread on the other out-slot at that one's start.  Each orbit
    yields a pair (permitted threads consumed, total forbidden length), and
    each relation-full cycle the pair (0, cycle length).
    """
    cert = is_gentle(pres)
    if not cert.gentle:
        raise PreconditionError(f"not gentle: {cert.violations[0]}")
    _assert_gentle_finite(pres)
    permitted, forbidden, _, cycles = _cached(pres, "threads", _thread_walk)
    pairs = [(0, len(c)) for c in cycles]
    todo = dict(permitted)
    while todo:
        start, slot = todo.popitem()
        hops = total = 0
        while slot is not None:  # until the orbit meets a consumed thread
            key, length = forbidden[slot]
            hops, total = hops + 1, total + length
            slot = todo.pop(key, None)
        if key != start:
            raise PreconditionError("thread pairing is not a permutation")
        pairs.append((hops, total))
    return AGInvariant(tuple(sorted(pairs)))


# -- classification results -------------------------------------------------


class LambdaClass(namedtuple("LambdaClass", "descriptor")):
    __slots__ = ()

    def rank(self):
        return self.descriptor.rank()


class DynkinHereditary(namedtuple("DynkinHereditary", "letter rank")):
    __slots__ = ()

    @property
    def type_name(self):
        return f"{self.letter}{self.rank}"


class UnknownClass(namedtuple("UnknownClass", "reason")):
    __slots__ = ()


class DerivedEquivClass(namedtuple("DerivedEquivClass", "components")):
    __slots__ = ()

    def has_unknown(self) -> bool:
        return any(isinstance(c, UnknownClass) for c in self.components)


class DiscretenessVerdict(namedtuple("DiscretenessVerdict", "verdict components")):
    __slots__ = ()  # verdict: yes | no | unknown; components: (verdict, reason) each


def _lambda_from_invariant(inv: AGInvariant, n: int):
    """The (r,s,t) with s+t = n whose Lambda(r,s,t) has invariant ``inv``.

    Lambda(r,s,t) has the pairs (r+t, t) and (s-r, s); as r >= 1 the first
    is the one with a > b and the second the one with c < d, so the map is
    injective and inverts in closed form.  None when no triple matches.
    """
    if len(inv.pairs) != 2:
        return None
    falling = [(a, b) for a, b in inv.pairs if a > b]
    rising = [(c, d) for c, d in inv.pairs if c < d]
    if len(falling) != 1 or len(rising) != 1:
        return None
    [(a, b)], [(c, d)] = falling, rising
    r, s, t = a - b, d, b
    if d - c != r or t + s != n:
        return None
    return LambdaDescriptor(r, s, t)


# -- the decision table ----------------------------------------------------------


def _classify_component(comp: BoundQuiverPresentation):
    """(verdict, reason, normal form) of one connected component."""
    n = len(comp.quiver.vertices)
    if not comp._relset:
        _assert_finite_dimensional(comp)
        dt = dynkin_type(comp)
        if dt is not None:
            name = f"{dt[0]}{dt[1]}"
            return "yes", f"hereditary of Dynkin type {name}", DynkinHereditary(*dt)
        nf = UnknownClass("hereditary non-Dynkin; not derived discrete")
        return "no", "hereditary with non-Dynkin underlying graph", nf
    cert = is_gentle(comp)
    if not cert.gentle:
        _assert_finite_dimensional(comp)
        reason = "not gentle ({}: {})".format(*cert.violations[0])
        return "unknown", reason, UnknownClass(reason)
    betti = cycle_count(comp)
    if not betti:
        nf = DynkinHereditary("A", n)
        return "yes", "gentle tree (assumed discrete, classical fact)", nf
    _assert_gentle_finite(comp)
    if betti > 1:
        reason = f"gentle with {betti} independent cycles"
        return "unknown", reason, UnknownClass(reason)
    clock = clock_condition(comp)
    if clock.satisfied:
        reason = (
            "one-cycle gentle with balanced cycle relations "
            f"({clock.with_count} both ways)"
        )
        nf = UnknownClass("one-cycle gentle satisfying the clock condition")
        return "no", reason, nf
    inv = ag_invariant(comp)
    desc = _lambda_from_invariant(inv, n)
    if desc is None:
        raise PreconditionError(f"invariant {inv.pairs} matches no one-cycle normal form")
    reason = (
        "one-cycle gentle, unbalanced cycle relations "
        f"({clock.with_count} vs {clock.against_count})"
    )
    return "yes", reason, LambdaClass(desc)


def _classification(pres: BoundQuiverPresentation) -> tuple:
    """:func:`_classify_component` of every component, cached on ``pres``."""
    return _cached(
        pres,
        "classification",
        lambda p: tuple(_classify_component(c) for c in connected_components(p)),
    )


def is_derived_discrete(pres: BoundQuiverPresentation) -> DiscretenessVerdict:
    """Decide derived discreteness; unknown cases name the obstacle."""
    reports = tuple((verdict, reason) for verdict, reason, _ in _classification(pres))
    verdicts = {verdict for verdict, _ in reports}
    verdict = next((v for v in ("no", "unknown") if v in verdicts), "yes")
    return DiscretenessVerdict(verdict, reports)


def lambda_normal_form(pres: BoundQuiverPresentation) -> DerivedEquivClass:
    """Classify each connected component up to derived equivalence."""
    return DerivedEquivClass(tuple(nf for _, _, nf in _classification(pres)))
