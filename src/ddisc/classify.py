"""Derived discreteness classification.

The decision table, per connected component:

* no relations and the underlying graph is Dynkin: discrete (hereditary of
  finite representation type);
* no relations otherwise: not discrete;
* gentle with first Betti number 1: discrete exactly when the two traversal
  orientations of the unique cycle carry different numbers of relations (the
  clock condition fails);
* gentle tree: discrete (classical fact; a flag downgrades it to unknown);
* anything else: unknown, with the obstacle spelled out.

Normal forms inside the one-cycle discrete class are read off the
thread-pairing invariant computed by :func:`ag_invariant`: it sends
``Lambda(r,s,t)`` to the pairs ``(r+t, t)`` and ``(s-r, s)``, which
determine (r,s,t).  No step searches for an isomorphism, so classification
is polynomial in the size of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .presentation import (
    BoundQuiverPresentation,
    LambdaDescriptor,
    _assert_finite_dimensional,
    connected_components,
    vertex_sort_key,
)

# Unused here since normal forms come from the invariant, but
# perfbench/test_perfbench.py checks that its tracer wraps this binding.
from .presentation import find_isomorphism  # noqa: F401

# -- gentleness --------------------------------------------------------------


@dataclass(frozen=True)
class GentleCertificate:
    gentle: bool
    violations: tuple  # (condition, witness) pairs


def is_gentle(pres: BoundQuiverPresentation) -> GentleCertificate:
    """Check the four gentleness conditions, collecting violations.

    G1 vertex degrees <= 2 on each side; G2 relations have length exactly 2;
    G3 every arrow extends to at most one relation on each side; G4 every
    arrow extends to at most one non-relation composite on each side.
    """
    q = pres.quiver
    violations = []
    for v in q.vertices:
        if len(q.arrows_into(v)) > 2:
            violations.append(("G1", f"vertex {v} has more than two in-arrows"))
        if len(q.arrows_from(v)) > 2:
            violations.append(("G1", f"vertex {v} has more than two out-arrows"))
    relpairs = set()
    for rel in pres.relations:
        if len(rel) != 2:
            violations.append(("G2", f"relation {rel.label()} has length {len(rel)}"))
        else:
            relpairs.add(rel.arrows)
    for b in q.arrows:
        succ_rel = [c for c in q.arrows_from(q.target(b)) if (b, c) in relpairs]
        prec_rel = [a for a in q.arrows_into(q.source(b)) if (a, b) in relpairs]
        succ_nz = [c for c in q.arrows_from(q.target(b)) if (b, c) not in relpairs]
        prec_nz = [a for a in q.arrows_into(q.source(b)) if (a, b) not in relpairs]
        if len(succ_rel) > 1:
            violations.append(("G3", f"arrow {b} starts two relations"))
        if len(prec_rel) > 1:
            violations.append(("G3", f"arrow {b} ends two relations"))
        if len(succ_nz) > 1:
            violations.append(("G4", f"arrow {b} has two nonzero continuations"))
        if len(prec_nz) > 1:
            violations.append(("G4", f"arrow {b} has two nonzero predecessors"))
    return GentleCertificate(not violations, tuple(violations))


# -- cycle structure ---------------------------------------------------------


def cycle_count(pres: BoundQuiverPresentation) -> int:
    """First Betti number of the underlying multigraph."""
    return (
        len(pres.quiver.arrows)
        - len(pres.quiver.vertices)
        + len(connected_components(pres))
    )


@dataclass(frozen=True)
class ClockReport:
    cycle: tuple  # (arrow, +1|-1) steps of the closed walk
    with_count: int
    against_count: int

    @property
    def satisfied(self) -> bool:
        return self.with_count == self.against_count


def clock_condition(pres: BoundQuiverPresentation) -> ClockReport:
    """Count cycle relations in the two traversal orientations.

    Preconditions: gentle, first Betti number 1.  Out of the two opposite
    traversals the one chosen is canonical, and swapping it swaps the two
    counts, so ``satisfied`` is orientation independent.
    """
    if cycle_count(pres) != 1:
        raise PreconditionError("clock condition needs exactly one cycle")
    if not is_gentle(pres).gentle:
        raise PreconditionError("clock condition needs a gentle presentation")
    q = pres.quiver

    # strip leaves until only the unique cycle remains
    incident = {v: [] for v in q.vertices}
    for a, (src, tgt) in q.arrows.items():
        incident[src].append(a)
        incident[tgt].append(a)
    alive_arrows = set(q.arrows)
    degree = {v: len(incident[v]) for v in q.vertices}
    queue = [v for v in q.vertices if degree[v] <= 1]
    alive_vertices = set(q.vertices)
    while queue:
        v = queue.pop()
        if v not in alive_vertices or degree[v] > 1:
            continue
        alive_vertices.discard(v)
        for a in incident[v]:
            if a not in alive_arrows:
                continue
            alive_arrows.discard(a)
            src, tgt = q.arrows[a]
            for w in (src, tgt):
                degree[w] -= 1
            other = tgt if src == v else src
            if other in alive_vertices and degree[other] <= 1:
                queue.append(other)

    if not alive_arrows:
        raise PreconditionError("no cycle is left after stripping leaves")
    start = min(alive_vertices, key=vertex_sort_key)
    walk = []
    used = set()
    current = start
    while True:
        candidates = []
        for a in incident[current]:
            if a in used or a not in alive_arrows:
                continue
            src, tgt = q.arrows[a]
            candidates.append((a, 1) if src == current else (a, -1))
        if not candidates:
            break
        arrow, direction = min(candidates)
        used.add(arrow)
        walk.append((arrow, direction))
        src, tgt = q.arrows[arrow]
        current = tgt if direction == 1 else src
    if current != start or len(used) != len(alive_arrows):
        raise PreconditionError("the arrows left after stripping leaves are no cycle")

    relpairs = {rel.arrows for rel in pres.relations}
    m_with = 0
    m_against = 0
    for i, (a1, d1) in enumerate(walk):
        a2, d2 = walk[(i + 1) % len(walk)]
        if d1 == 1 and d2 == 1 and (a1, a2) in relpairs:
            m_with += 1
        elif d1 == -1 and d2 == -1 and (a2, a1) in relpairs:
            m_against += 1
    return ClockReport(tuple(walk), m_with, m_against)


# -- Dynkin recognition ------------------------------------------------------


def dynkin_type(pres: BoundQuiverPresentation):
    """Underlying-graph Dynkin type ('A'|'D'|'E', rank) of a connected
    presentation, or None."""
    q = pres.quiver
    n = len(q.vertices)
    if len(q.arrows) != n - 1:
        return None
    adjacency = {v: [] for v in q.vertices}
    for src, tgt in q.arrows.values():
        adjacency[src].append(tgt)
        adjacency[tgt].append(src)
    degrees = {v: len(adjacency[v]) for v in q.vertices}
    if any(d > 3 for d in degrees.values()):
        return None
    branches = [v for v in q.vertices if degrees[v] == 3]
    if not branches:
        return ("A", n)
    if len(branches) > 1:
        return None
    hub = branches[0]
    arms = []
    for first in adjacency[hub]:
        length = 1
        prev, cur = hub, first
        while True:
            nxt = [w for w in adjacency[cur] if w != prev]
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


# -- discreteness decision ----------------------------------------------------


@dataclass(frozen=True)
class DiscretenessVerdict:
    verdict: str  # yes | no | unknown
    components: tuple  # (verdict, reason) per connected component


def is_derived_discrete(
    pres: BoundQuiverPresentation, *, tree_gentle_is_discrete: bool = True
) -> DiscretenessVerdict:
    """Decide derived discreteness; unknown cases name the obstacle.

    ``tree_gentle_is_discrete`` toggles the classical fact that gentle tree
    algebras are derived discrete; with False those components come back
    unknown instead.
    """
    reports = []
    for comp in connected_components(pres):
        _assert_finite_dimensional(comp)
        if not comp.relations:
            dt = dynkin_type(comp)
            if dt is not None:
                reports.append(("yes", f"hereditary of Dynkin type {dt[0]}{dt[1]}"))
            else:
                reports.append(("no", "hereditary with non-Dynkin underlying graph"))
            continue
        cert = is_gentle(comp)
        if not cert.gentle:
            cond, witness = cert.violations[0]
            reports.append(("unknown", f"not gentle ({cond}: {witness})"))
            continue
        betti = cycle_count(comp)
        if betti == 0:
            if tree_gentle_is_discrete:
                reports.append(
                    ("yes", "gentle tree (assumed discrete, classical fact)")
                )
            else:
                reports.append(("unknown", "gentle tree; assumption disabled"))
        elif betti == 1:
            clock = clock_condition(comp)
            if clock.satisfied:
                reports.append(
                    (
                        "no",
                        "one-cycle gentle with balanced cycle relations "
                        f"({clock.with_count} both ways)",
                    )
                )
            else:
                reports.append(
                    (
                        "yes",
                        "one-cycle gentle, unbalanced cycle relations "
                        f"({clock.with_count} vs {clock.against_count})",
                    )
                )
        else:
            reports.append(("unknown", f"gentle with {betti} independent cycles"))
    if any(r[0] == "no" for r in reports):
        verdict = "no"
    elif any(r[0] == "unknown" for r in reports):
        verdict = "unknown"
    else:
        verdict = "yes"
    return DiscretenessVerdict(verdict, tuple(reports))


# -- relation-full cycles -------------------------------------------------------


def relation_full_cycles(pres: BoundQuiverPresentation) -> tuple:
    """Oriented arrow cycles whose consecutive pairs are all relations.

    Needs unique relation successors/predecessors per arrow (gentleness
    gives that).  Cycles come back as arrow tuples rotated to start at the
    smallest arrow name.
    """
    q = pres.quiver
    relpairs = {rel.arrows for rel in pres.relations if len(rel) == 2}
    nxt = {}
    for b in q.arrows:
        succ = [c for c in q.arrows_from(q.target(b)) if (b, c) in relpairs]
        if len(succ) > 1:
            raise PreconditionError(f"arrow {b} starts two relations")
        nxt[b] = succ[0] if succ else None
    cycles = []
    done = set()
    for a in sorted(q.arrows):
        if a in done:
            continue
        stack = []
        onstack = set()
        cur = a
        while cur is not None and cur not in done and cur not in onstack:
            stack.append(cur)
            onstack.add(cur)
            cur = nxt[cur]
        if cur is not None and cur in onstack:
            idx = stack.index(cur)
            cyc = stack[idx:]
            k = min(range(len(cyc)), key=lambda i: cyc[i])
            cycles.append(tuple(cyc[k:] + cyc[:k]))
        done.update(stack)
    return tuple(cycles)


# -- the thread-pairing invariant ---------------------------------------------


@dataclass(frozen=True)
class AGInvariant:
    """Multiset of (n, m) pairs from the permitted/forbidden thread pairing."""

    pairs: tuple  # sorted tuple of (n, m) with multiplicity

    def as_multiset(self) -> dict:
        out = {}
        for pair in self.pairs:
            out[pair] = out.get(pair, 0) + 1
        return out


def ag_invariant(pres: BoundQuiverPresentation) -> AGInvariant:
    """Derived-equivalence invariant of a finite dimensional gentle algebra.

    Threads are maximal paths: permitted ones avoid relations, forbidden
    ones consist of relations only.  A trivial thread sits at any vertex
    with at most one arrow in and out; it is permitted when the in/out pair
    composes to a nonzero path and forbidden when the pair is a relation
    (or an arrow is missing, where both may coexist).  The walk pairs a
    permitted thread end with the forbidden thread ending at the same
    vertex on the other in-slot, then hops to the permitted thread leaving
    the forbidden thread's start on the other out-slot; each orbit of that
    permutation yields a pair (number of permitted threads consumed, total
    forbidden length).  Oriented cycles all of whose consecutive pairs are
    relations contribute (0, cycle length) each.
    """
    cert = is_gentle(pres)
    if not cert.gentle:
        raise PreconditionError(f"not gentle: {cert.violations[0]}")
    _assert_finite_dimensional(pres)
    q = pres.quiver
    relpairs = {rel.arrows for rel in pres.relations}

    def unique(iterable):
        items = list(iterable)
        if len(items) > 1:
            raise PreconditionError(f"not gentle: {items} continue one arrow alike")
        return items[0] if items else None

    nz_next = {}
    nz_prev = {}
    i_next = {}
    i_prev = {}
    for b in q.arrows:
        nz_next[b] = unique(
            c for c in q.arrows_from(q.target(b)) if (b, c) not in relpairs
        )
        nz_prev[b] = unique(
            a for a in q.arrows_into(q.source(b)) if (a, b) not in relpairs
        )
        i_next[b] = unique(c for c in q.arrows_from(q.target(b)) if (b, c) in relpairs)
        i_prev[b] = unique(a for a in q.arrows_into(q.source(b)) if (a, b) in relpairs)

    def chains(next_map, prev_map):
        out = []
        for b in sorted(next_map):
            if prev_map[b] is not None:
                continue
            chain = [b]
            while next_map[chain[-1]] is not None:
                chain.append(next_map[chain[-1]])
            out.append(tuple(chain))
        return out

    permitted = [("word", w) for w in chains(nz_next, nz_prev)]
    forbidden = [("word", w) for w in chains(i_next, i_prev)]
    cycle_pairs = [(0, len(c)) for c in relation_full_cycles(pres)]

    def trivial_slots(v):
        ins = q.arrows_into(v)
        outs = q.arrows_from(v)
        if len(ins) > 1 or len(outs) > 1:
            return False, False
        if ins and outs:
            is_rel = (ins[0], outs[0]) in relpairs
            return (not is_rel), is_rel
        return True, True

    for v in q.vertices:
        triv_perm, triv_forb = trivial_slots(v)
        if triv_perm:
            permitted.append(("vertex", v))
        if triv_forb:
            forbidden.append(("vertex", v))

    def endpoints(thread):
        kind, data = thread
        if kind == "vertex":
            return data, None, data, None
        word = data
        return q.source(word[0]), word[0], q.target(word[-1]), word[-1]

    forbidden_by_end = {}
    permitted_by_start = {}
    for f in forbidden:
        sv, sslot, ev, eslot = endpoints(f)
        forbidden_by_end[(ev, eslot)] = f
    for h in permitted:
        sv, sslot, ev, eslot = endpoints(h)
        permitted_by_start[(sv, sslot)] = h

    def other_in_slot(v, slot):
        ins = q.arrows_into(v)
        if slot is None:
            return ins[0] if ins else None
        others = [a for a in ins if a != slot]
        return others[0] if others else None

    def other_out_slot(v, slot):
        outs = q.arrows_from(v)
        if slot is None:
            return outs[0] if outs else None
        others = [a for a in outs if a != slot]
        return others[0] if others else None

    pairs = list(cycle_pairs)
    consumed = set()
    order = sorted(permitted, key=lambda th: (th[0], th[1]))
    for start_thread in order:
        if start_thread in consumed:
            continue
        h = start_thread
        hops = 0
        total_forbidden = 0
        while True:
            consumed.add(h)
            hops += 1
            _, _, ev, eslot = endpoints(h)
            partner = forbidden_by_end[(ev, other_in_slot(ev, eslot))]
            kind, data = partner
            total_forbidden += 0 if kind == "vertex" else len(data)
            fsv, fsslot, _, _ = endpoints(partner)
            h = permitted_by_start[(fsv, other_out_slot(fsv, fsslot))]
            if h == start_thread:
                break
            if h in consumed:
                raise PreconditionError("thread pairing is not a permutation")
        pairs.append((hops, total_forbidden))
    return AGInvariant(tuple(sorted(pairs)))


# -- normal forms --------------------------------------------------------------


@dataclass(frozen=True)
class LambdaClass:
    descriptor: LambdaDescriptor

    def rank(self):
        return self.descriptor.rank()


@dataclass(frozen=True)
class DynkinHereditary:
    letter: str
    rank: int

    @property
    def type_name(self):
        return f"{self.letter}{self.rank}"


@dataclass(frozen=True)
class UnknownClass:
    reason: str


@dataclass(frozen=True)
class DerivedEquivClass:
    components: tuple

    def has_unknown(self) -> bool:
        return any(isinstance(c, UnknownClass) for c in self.components)


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


def _classify_component(comp: BoundQuiverPresentation):
    _assert_finite_dimensional(comp)
    n = len(comp.quiver.vertices)
    if not comp.relations:
        dt = dynkin_type(comp)
        if dt is not None:
            return DynkinHereditary(dt[0], dt[1])
        return UnknownClass("hereditary non-Dynkin; not derived discrete")

    cert = is_gentle(comp)
    if not cert.gentle:
        cond, witness = cert.violations[0]
        return UnknownClass(f"not gentle ({cond}: {witness})")
    betti = cycle_count(comp)
    if betti == 0:
        # gentle trees are derived equivalent to a hereditary line; accept
        # only when the invariant confirms it
        if ag_invariant(comp) == AGInvariant(((n + 1, n - 1),)):
            return DynkinHereditary("A", n)
        return UnknownClass("gentle tree with unexpected invariant")
    if betti > 1:
        return UnknownClass(f"gentle with {betti} independent cycles")
    clock = clock_condition(comp)
    if clock.satisfied:
        return UnknownClass("one-cycle gentle satisfying the clock condition")
    desc = _lambda_from_invariant(ag_invariant(comp), n)
    if desc is None:
        return UnknownClass("invariant matches no one-cycle normal form")
    return LambdaClass(desc)


def lambda_normal_form(pres: BoundQuiverPresentation) -> DerivedEquivClass:
    """Classify each connected component up to derived equivalence."""
    return DerivedEquivClass(
        tuple(_classify_component(c) for c in connected_components(pres))
    )
