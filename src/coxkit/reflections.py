"""Reflections of a Coxeter system, length slices, dihedral reflection
subgroups with canonical generators, and the reflection order.

A reflection is any conjugate w s w^-1 of a generator.  Every
reflection of length <= L arises with l(w s w^-1) = 2 l(w) + 1, so a
sweep over the half ball is exhaustive.

For two reflections t, t' the subgroup W' = <t, t'> is dihedral.  Its
Cayley graph with respect to {t, t'} is a path (infinite case) or cycle
(finite case), and group length is strictly monotone in the internal
length of W' (a Bruhat-order consequence), so walking the chain inside
the ball enumerates exactly the members of W' that fit in the ball,
with no re-entry past the boundary.  The canonical generating pair is
then certified by the descent criterion: a reflection r of W' is
canonical iff no even-internal-length member w != e has l(w) < l(r);
every witness w is shorter than r, hence inside the ball, so the
certificate never depends on truncated data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ball import BOUNDARY, GroupBall
from .errors import DomainError, IncompleteSliceError, OutOfBallError
from .posets import Poset

__all__ = [
    "ReflectionTable", "ReflectionSubgroup", "reflections_in_ball",
    "t_k_set", "dihedral_subgroup", "t_order_poset",
    "omega_distance_in_dihedral", "is_order_ideal",
]


@dataclass
class ReflectionTable:
    ball: GroupBall
    reflections: tuple[int, ...]  # element ids, sorted

    def lengths(self) -> dict[int, int]:
        return {t: self.ball.length(t) for t in self.reflections}


@dataclass
class ReflectionSubgroup:
    ball: GroupBall
    member_ids: tuple[int, ...]           # members inside the ball, sorted
    reflection_ids: tuple[int, ...]       # reflections of W' inside the ball
    canonical_generators: tuple[int, ...]  # the canonical pair (or single id)
    is_dihedral: bool
    escaped: bool                          # chain left the ball (W' truncated)
    internal_length: dict[int, int] = field(default_factory=dict)


def reflections_in_ball(ball: GroupBall) -> ReflectionTable:
    """All reflections of length <= radius, by the w s w^-1 sweep."""
    gen_ids = [ball.right[ball.identity][s] for s in ball.matrix.generators]
    out = set()
    for e in ball.elements:
        if 2 * e.length + 1 > ball.radius:
            continue
        w_inv = ball.inverse(e.id)
        for g in gen_ids:
            ws = ball.multiply(e.id, g)
            out.add(ball.multiply(ws, w_inv))
    return ReflectionTable(ball=ball, reflections=tuple(sorted(out)))


def t_k_set(table: ReflectionTable, k: int) -> frozenset[int]:
    """The slice {t : l(t) <= 2k+1}; requires the slice to be complete."""
    if k < 0:
        raise DomainError("k must be >= 0")
    ball = table.ball
    if 2 * k + 1 > ball.radius and not ball.is_complete_group:
        raise IncompleteSliceError(
            f"slice needs length 2k+1 = {2 * k + 1} but the ball radius is "
            f"{ball.radius} and the group is not fully enumerated")
    return frozenset(t for t in table.reflections
                     if ball.length(t) <= 2 * k + 1)


# -- dihedral reflection subgroups -------------------------------------------


def _chain_walk(ball: GroupBall, t: int, tp: int):
    """Walk the two-involution Cayley chain of <t, t'> from the identity
    in both directions, inside the ball.

    Returns (members, odd_parity_set, escaped, closed_cycle).
    """
    members = {ball.identity}
    odd = set()
    escaped = False
    closed = False
    for first, second in ((t, tp), (tp, t)):
        x = ball.identity
        parity = 0
        gen = first
        while True:
            try:
                y = ball.multiply(x, gen)
            except OutOfBallError:
                escaped = True
                break
            parity ^= 1
            if y == ball.identity:
                closed = True
                break
            if y in members:
                break  # met the other direction's sweep
            members.add(y)
            if parity:
                odd.add(y)
            x = y
            gen = second if gen == first else first
        if closed:
            break
    return members, odd, escaped, closed


def dihedral_subgroup(ball: GroupBall, t: int, tp: int) -> ReflectionSubgroup:
    """The reflection subgroup <t, t'> intersected with the ball, with
    its canonical generating pair (certified exactly; see module
    docstring)."""
    for x in (t, tp):
        w = ball.word(x)
        if ball.multiply(x, x) != ball.identity or len(w) % 2 == 0:
            raise DomainError(f"element {x} is not a reflection")
    if t == tp:
        return ReflectionSubgroup(
            ball=ball, member_ids=(ball.identity, t), reflection_ids=(t,),
            canonical_generators=(t,), is_dihedral=False, escaped=False,
            internal_length={ball.identity: 0, t: 1})
    # Enumerating W' inside the ball: the chain walk is exhaustive only
    # for the canonical generating pair (group length is then monotone
    # along the chain); for other pairs it may stop early.  So the
    # member set starts from the in-ball product closure of {t, t'},
    # the canonical pair is read off by the even-member criterion, and
    # the walk with that pair (which is exact) must reproduce the set;
    # any new member restarts the loop.  Failure to stabilize means the
    # ball is too small, never a silently wrong answer.
    members = {ball.identity, t, tp}
    escaped = False
    while True:
        # close under in-ball products
        changed = True
        while changed:
            changed = False
            for u in list(members):
                for v in list(members):
                    try:
                        w = ball.multiply(u, v)
                    except OutOfBallError:
                        escaped = True
                        continue
                    if w not in members:
                        members.add(w)
                        changed = True
        # members of odd length are the reflections of W' (alternating
        # products of an odd number of t, t' factors)
        refl = sorted(w for w in members if ball.length(w) % 2 == 1)
        min_even = min((ball.length(w) for w in members
                        if ball.length(w) % 2 == 0 and w != ball.identity),
                       default=None)
        canon = [r for r in refl
                 if min_even is None or ball.length(r) <= min_even]
        canon.sort(key=lambda r: (ball.length(r), r))
        if len(canon) < 2:
            raise OutOfBallError(
                f"canonical generators of <{t},{tp}> not certified inside "
                f"radius {ball.radius}")
        walked, _odd, walk_escaped, _closed = _chain_walk(ball, canon[0], canon[1])
        escaped = escaped or walk_escaped
        if walked <= members:
            if members - walked:
                raise OutOfBallError(
                    f"member set of <{t},{tp}> not certified inside radius "
                    f"{ball.radius}")
            break
        members |= walked
    x, y = canon[:2]
    # internal length: BFS over right multiplication by the canonical pair
    internal = {ball.identity: 0}
    frontier = [ball.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in (x, y):
                try:
                    z = ball.multiply(w, g)
                except OutOfBallError:
                    continue
                if z in members and z not in internal:
                    internal[z] = internal[w] + 1
                    nxt.append(z)
        frontier = nxt
    if set(internal) != members:
        raise OutOfBallError(
            f"internal lengths of <{t},{tp}> not certified inside radius "
            f"{ball.radius}")
    return ReflectionSubgroup(
        ball=ball, member_ids=tuple(sorted(members)),
        reflection_ids=tuple(refl), canonical_generators=(x, y),
        is_dihedral=True, escaped=escaped, internal_length=internal)


def omega_distance_in_dihedral(sub: ReflectionSubgroup, t: int, tp: int):
    """Directed distance t -> t' in the Bruhat graph of the subgroup
    (arcs a -> ra for subgroup reflections r that increase internal
    length).  Cross-check for the length criterion; None if unreachable.
    """
    ball = sub.ball
    il = sub.internal_length
    dist = {t: 0}
    frontier = [t]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for a in frontier:
            for r in sub.reflection_ids:
                try:
                    b = ball.multiply(r, a)
                except OutOfBallError:
                    continue
                if b in il and il[b] > il[a] and b not in dist:
                    dist[b] = d
                    nxt.append(b)
        frontier = nxt
    return dist.get(tp)


def t_order_poset(table: ReflectionTable, restrict_to=None) -> Poset:
    """The reflection order on the table's reflections (or a subset).

    A reflection t lies below t' when some dihedral reflection subgroup
    contains both with t internally shorter; the order is the transitive
    closure of those relations.  The witness subgroup need not be
    <t, t'> itself (that pair can generate a Klein four-group where both
    have internal length 1), so every subgroup generated by a pair of
    reflections is swept and contributes the comparisons among all of
    its reflections.
    """
    ball = table.ball
    nodes = sorted(restrict_to) if restrict_to is not None else list(table.reflections)
    pos = {t: i for i, t in enumerate(nodes)}
    pairs = set()
    all_refl = list(table.reflections)
    for i, t in enumerate(all_refl):
        for tp in all_refl[i + 1:]:
            sub = dihedral_subgroup(ball, t, tp)
            in_nodes = [r for r in sub.reflection_ids if r in pos]
            for a in in_nodes:
                la = sub.internal_length[a]
                for b in in_nodes:
                    if sub.internal_length[b] > la:
                        pairs.add((pos[a], pos[b]))
    return Poset.from_relation(
        nodes, sorted(pairs), rank=None,
        metadata={"kind": "reflection-order", "radius": ball.radius})


def is_order_ideal(poset: Poset, labels) -> bool:
    """Whether the label set is downward closed in the poset."""
    from .posets import is_order_ideal as _ideal
    return _ideal(poset, [poset.index(x) for x in labels])
