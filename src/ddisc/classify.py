"""Derived discreteness classification.

The decision table lives in :func:`_classify_component` and nowhere else.
Per connected component it gives a verdict, a reason and a normal form:

* infinite dimensional: refused with an error;
* no relations, Dynkin underlying graph: discrete (hereditary of finite
  representation type), normal form that Dynkin type;
* no relations otherwise: not discrete;
* not gentle: unknown, naming the first violated gentleness condition;
* gentle with more than one independent cycle: unknown;
* gentle tree: discrete (derived equivalent to type A_n, Assem-Happel
  1981), normal form A_n when the invariant confirms it;
* gentle with one cycle: discrete exactly when the two traversal
  orientations of the cycle carry different numbers of relations (the
  clock condition fails), normal form the ``Lambda(r,s,t)`` that matches
  the invariant.

A normal form the invariant does not confirm is unknown.  Verdicts follow
Vossieck (2001), normal forms Bobinski-Geiss-Skowronski (2004).
:func:`is_derived_discrete` and :func:`lambda_normal_form` read one pass
over the components, cached on the presentation.

Gentleness, relation-full cycles, finite dimension and the invariant read
one arrow-link table (:func:`_links`), made by one linear pass over the
vertices and cached.  A gentle component with relations is finite
dimensional exactly when its nonzero successors (at most one per arrow)
have no cycle, so classifying it walks no automaton; the other components
are checked on the suffix automaton.  Normal forms of one-cycle classes
are read off :func:`ag_invariant`, which sends ``Lambda(r,s,t)`` to the
pairs ``(r+t, t)`` and ``(s-r, s)``.  No step searches for an isomorphism,
so classification is polynomial in the size of the input.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InfiniteDimensionalError, PreconditionError
from .presentation import (
    BoundQuiverPresentation,
    LambdaDescriptor,
    _assert_finite_dimensional,
    _cached,
    connected_components,
)

# Unused here since normal forms come from the invariant, but
# perfbench/test_perfbench.py checks that its tracer wraps this binding.
from .presentation import find_isomorphism  # noqa: F401

# -- gentleness --------------------------------------------------------------


class GentleCertificate(namedtuple("GentleCertificate", "gentle violations")):
    __slots__ = ()  # violations: (condition, witness) pairs


def is_gentle(pres: BoundQuiverPresentation) -> GentleCertificate:
    """Check the four gentleness conditions, collecting violations.

    G1 vertex degrees <= 2 on each side; G2 relations have length exactly 2;
    G3 every arrow extends to at most one relation on each side; G4 every
    arrow extends to at most one non-relation composite on each side.
    Computed once per presentation.
    """
    return _cached(pres, "gentle", _gentleness)


def _gentleness(pres):
    q = pres.quiver
    violations = []
    for v in q.vertices:
        if len(q._in[v]) > 2:
            violations.append(("G1", f"vertex {v} has more than two in-arrows"))
        if len(q._out[v]) > 2:
            violations.append(("G1", f"vertex {v} has more than two out-arrows"))
    for rel in pres.relations if pres._maxrel > 2 else ():
        if len(rel) != 2:
            violations.append(("G2", f"relation {rel.label()} has length {len(rel)}"))
    rel_next, rel_prev, nz_next, nz_prev = _links(pres)
    for b in q.arrows:
        if len(rel_next[b]) > 1:
            violations.append(("G3", f"arrow {b} starts two relations"))
        if len(rel_prev[b]) > 1:
            violations.append(("G3", f"arrow {b} ends two relations"))
        if len(nz_next[b]) > 1:
            violations.append(("G4", f"arrow {b} has two nonzero continuations"))
        if len(nz_prev[b]) > 1:
            violations.append(("G4", f"arrow {b} has two nonzero predecessors"))
    return GentleCertificate(not violations, tuple(violations))


# -- the arrow-link table ----------------------------------------------------


def _links(pres):
    """``(rel_next, rel_prev, nz_next, nz_prev)``, cached: per arrow b, the
    arrows c with b*c a relation, resp. nonzero, in ``arrows_from`` order,
    and the arrows a with a*b so, in ``arrows_into`` order.  It holds arrow
    names only."""
    return _cached(pres, "links", _link_table)


def _link_table(pres):
    q = pres.quiver
    relset = pres._relset
    table = tuple({a: [] for a in q.arrows} for _ in range(4))
    rel_next, rel_prev, nz_next, nz_prev = table
    for v, ins in q._in.items():
        outs = q._out[v]
        for a in ins:
            for c in outs:
                if (a, c) in relset:
                    rel_next[a].append(c)
                    rel_prev[c].append(a)
                else:
                    nz_next[a].append(c)
                    nz_prev[c].append(a)
    return table


def _cycles(succ):
    """Cycles of the map b -> succ[b][0] (lists of at most one arrow), in
    the order of a scan in name order (a quiver's arrow order)."""
    cycles = []
    scan_of = {}  # arrow -> the scan that reached it
    for i, a in enumerate(succ):
        path, cur = [], a
        while cur is not None and cur not in scan_of:
            scan_of[cur] = i
            path.append(cur)
            nxt = succ[cur]
            cur = nxt[0] if nxt else None
        if cur is not None and scan_of[cur] == i:
            cycles.append(path[path.index(cur) :])
    return cycles


def _assert_gentle_finite(pres):
    """Raise InfiniteDimensionalError when a gentle ``pres`` is infinite
    dimensional, with the automaton's message.

    Relations have length 2, so the suffix automaton's states below its
    roots are the arrows and its edges their nonzero successors, at most
    one each by G4: the basis is infinite exactly when that map has a cycle.
    """
    if _cached(pres, "nonzero_cycles", lambda p: _cycles(_links(p)[2])):
        raise InfiniteDimensionalError(
            "relation-free cycle: the path basis is infinite"
        )


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
    return _cached(pres, "clock", _clock_walk)


def _clock_walk(pres):
    q = pres.quiver
    arrows, out, into = q.arrows, q._out, q._in

    # strip leaves until only the unique cycle remains: a stripped vertex
    # has degree 0, so an arrow is left exactly when both its ends have a
    # degree; a loop counts twice at its vertex and is never stripped
    degree = {v: len(out[v]) + len(into[v]) for v in q.vertices}
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

    left = sum(degree.values()) // 2
    if not left:
        raise PreconditionError("no cycle is left after stripping leaves")
    # every vertex left has degree 2 or more; when each has 2, a walk that
    # takes the smallest arrow left other than the one it came by (forward
    # when it starts at the current vertex, as a loop does) goes round to
    # start, and what is left is one cycle when the walk takes every arrow
    start = next(v for v in q.vertices if degree[v])
    walk, current, prev = [], start, None
    regular = max(degree.values()) == 2
    while regular and (not walk or current != start):
        step = None
        for a in out[current] + into[current]:
            src, tgt = arrows[a]
            end = tgt if src == current else src
            if a != prev and degree[end] and (step is None or a < step[0]):
                step = a, 1 if src == current else -1, end
        prev, direction, current = step
        walk.append((prev, direction))
    if len(walk) != left:
        raise PreconditionError("the arrows left after stripping leaves are no cycle")

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
    name.
    """
    rel_next = _links(pres)[0]
    for b, succ in rel_next.items():
        if len(succ) > 1:
            raise PreconditionError(f"arrow {b} starts two relations")
    out = []
    for cyc in _cycles(rel_next):
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    return tuple(out)


# -- the thread-pairing invariant ---------------------------------------------


class AGInvariant(namedtuple("AGInvariant", "pairs")):
    """Multiset of (n, m) pairs from the permitted/forbidden thread pairing."""

    __slots__ = ()  # pairs: sorted tuple of (n, m) with multiplicity

    def as_multiset(self) -> dict:
        out = {}
        for pair in self.pairs:
            out[pair] = out.get(pair, 0) + 1
        return out


def ag_invariant(pres: BoundQuiverPresentation) -> AGInvariant:
    """Derived-equivalence invariant of a finite dimensional gentle algebra.

    Threads are maximal paths: permitted ones avoid relations, forbidden
    ones consist of relations only (chains of the link table's nonzero and
    relation successors).  A trivial thread sits at any vertex with at most
    one arrow in and out; it is permitted when the in/out pair composes to
    a nonzero path and forbidden when the pair is a relation (or an arrow
    is missing, where both may coexist).  Threads start and end at a
    (vertex, slot), the slot being the end arrow (None if trivial).  The
    walk pairs a permitted thread end with the forbidden thread ending at
    the same vertex on the other in-slot, then hops to the permitted thread
    leaving the forbidden thread's start on the other out-slot; each orbit
    of that permutation yields a pair (number of permitted threads
    consumed, total forbidden length).  Oriented cycles all of whose
    consecutive pairs are relations contribute (0, cycle length) each.
    """
    cert = is_gentle(pres)
    if not cert.gentle:
        raise PreconditionError(f"not gentle: {cert.violations[0]}")
    _assert_gentle_finite(pres)
    q = pres.quiver
    arrows, out, into = q.arrows, q._out, q._in
    rel_next, rel_prev, nz_next, nz_prev = _links(pres)
    # A permitted thread, by its start, names the forbidden thread its end
    # pairs with: the one ending on the other in-slot.  A forbidden thread,
    # by its end, gives its length and the permitted thread the walk hops
    # to: the one starting on the other out-slot.  Slots are at most two.
    permitted, forbidden = {}, {}
    for b, (src, _) in arrows.items():
        if not nz_prev[b]:
            e = b
            while nz_next[e]:
                e = nz_next[e][0]
            v = arrows[e][1]
            ins = into[v]
            permitted[src, b] = (v, ins[ins[0] == e] if len(ins) > 1 else None)
        if not rel_prev[b]:
            e, length = b, 1
            while rel_next[e]:
                e = rel_next[e][0]
                length += 1
            outs = out[src]
            hop = (src, outs[outs[0] == b] if len(outs) > 1 else None)
            forbidden[arrows[e][1], e] = (hop, length)
    for v, ins in into.items():
        outs = out[v]
        if len(ins) > 1 or len(outs) > 1:
            continue
        is_rel = bool(ins and outs and rel_next[ins[0]])
        if not is_rel:
            permitted[v, None] = (v, ins[0] if ins else None)
        if is_rel or not (ins and outs):
            forbidden[v, None] = ((v, outs[0] if outs else None), 0)

    pairs = [(0, len(c)) for c in relation_full_cycles(pres)]
    consumed = set()
    for start in permitted:
        if start in consumed:
            continue
        key, hops, total = start, 0, 0
        while True:
            consumed.add(key)
            hops += 1
            key, length = forbidden[permitted[key]]
            total += length
            if key == start:
                break
            if key in consumed:
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
    _assert_gentle_finite(comp)
    betti = cycle_count(comp)
    if betti > 1:
        reason = f"gentle with {betti} independent cycles"
        return "unknown", reason, UnknownClass(reason)
    if betti == 0:
        if ag_invariant(comp) == AGInvariant(((n + 1, n - 1),)):
            nf = DynkinHereditary("A", n)
        else:
            nf = UnknownClass("gentle tree with unexpected invariant")
        return "yes", "gentle tree (assumed discrete, classical fact)", nf
    clock = clock_condition(comp)
    if clock.satisfied:
        reason = (
            "one-cycle gentle with balanced cycle relations "
            f"({clock.with_count} both ways)"
        )
        nf = UnknownClass("one-cycle gentle satisfying the clock condition")
        return "no", reason, nf
    desc = _lambda_from_invariant(ag_invariant(comp), n)
    if desc is None:
        nf = UnknownClass("invariant matches no one-cycle normal form")
    else:
        nf = LambdaClass(desc)
    reason = (
        "one-cycle gentle, unbalanced cycle relations "
        f"({clock.with_count} vs {clock.against_count})"
    )
    return "yes", reason, nf


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
