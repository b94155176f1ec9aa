"""Reflections of a Coxeter system, length slices, dihedral reflection
subgroups with canonical generators, and the reflection order.

A reflection is any conjugate w s w^-1 of a generator.  Every
reflection of length <= L arises with l(w s w^-1) = 2 l(w) + 1, so a
sweep over the half ball is exhaustive.

For two reflections t, t' the subgroup W' = <t, t'> is dihedral, and
its canonical generating pair is its two reflections of internal length
1 (Dyer, J. Algebra 135, 1990).  The Bruhat order of W' for that pair
implies the Bruhat order of W, so group length is strictly monotone in
internal length.  `dihedral_subgroup` finds W' in three steps:

1. Conjugation descent: while l(aba) < l(b), b becomes aba, and likewise
   a becomes bab.  Each step keeps an adjacent pair (neighbours in the
   circular or linear order of the reflections of W') adjacent and makes
   it shorter, and an adjacent pair other than the canonical one has a
   conjugate of lower internal length, hence shorter; so the descent ends
   at the canonical pair.  Every generating pair is adjacent when W' is
   infinite or of order 2m with m in {2, 3, 4, 6}.
2. Only for a matrix with a finite bond outside {2, 3, 4, 6}: the walk
   a, b, a, ... from e, for at most 2M steps with M the largest bond.  A
   finite W' lies in a conjugate of a finite parabolic subgroup (Tits),
   where the order m of ab is at most the largest bond of its component;
   so the walk comes back to e, the cycle is all of W', and its two
   shortest reflections are the canonical pair.  A walk that does not
   come back means W' is infinite and the descent was exact.
3. A BFS over right multiplication by the canonical pair, inside the
   ball, gives the members, their internal lengths and the reflections;
   by monotonicity each member in the ball is reached through members in
   the ball.

Products in steps 1 and 2 are followed past the radius with
`GroupBall._walk` and `GroupBall._times`; a conjugate is dropped as soon
as the letters still to come cannot bring it below the bound.  When
every finite bond is 2, 3, 4 or 6, step 3 runs first on the given pair,
and steps 1 and 2 only when its internal length 3 shows that step 1
would move (see `dihedral_subgroup`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .ball import GroupBall
from .errors import DomainError, IncompleteSliceError, OutOfBallError
from .posets import Poset

__all__ = [
    "ReflectionTable", "ReflectionSubgroup", "reflections_in_ball",
    "t_k_set", "dihedral_subgroup", "t_order_poset",
    "omega_distance_in_dihedral",
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
    escaped: bool                          # some member of W' is beyond the radius
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


def _descend(ball: GroupBall, a: int, b: int) -> tuple[int, int]:
    """Replace b by a*b*a, or a by b*a*b, while that shortens it."""
    while True:
        c = ball._walk(a, ball.word(b) + ball.word(a), ball.length(b) - 1)
        if c is not None:
            b = c
            continue
        c = ball._walk(b, ball.word(a) + ball.word(b), ball.length(a) - 1)
        if c is None:
            return a, b
        a = c


@cache
def _walk_steps(matrix) -> int:
    """2M for M the largest finite bond, when some finite bond is not 2,
    3, 4 or 6; else 0 (no walk is needed)."""
    bonds = {matrix.m(s, t) for s in matrix.generators
             for t in matrix.generators if s < t and matrix.is_finite_bond(s, t)}
    return 2 * max(bonds) if bonds - {2, 3, 4, 6} else 0


def _finite_cycle(ball: GroupBall, a: int, b: int, steps: int):
    """[a, ab, aba, ...], the elements before (ab)^m = e, if the walk
    comes back to e within `steps` steps (W' finite of order 2m); else
    None."""
    words = (ball.word(a), ball.word(b))
    x = ball.identity
    cycle = []
    for i in range(steps):
        for s in words[i % 2]:
            x = ball._times(x, s)
        if x == ball.identity:
            return cycle
        cycle.append(x)
    return None


def _check_reflection(ball: GroupBall, x: int) -> None:
    """DomainError unless x is a reflection, decided inside the ball: x
    must be an involution, and conjugating it by a left descent s must
    shorten it by 2 until a generator is left.  For a reflection t != s
    with s a left descent, s*t*s != t, so l(sts) = l(t) - 2 (Bjorner and
    Brenti, Combinatorics of Coxeter Groups, ch. 1); an involution such
    as a central w0 is left as it is."""
    elements, left, right = ball.elements, ball.left, ball.right
    y, n = x, elements[x].length
    if ball.inverse(x) == x:
        while n > 1:
            s = elements[y].word[0]
            z = right[left[y][s]][s]
            if elements[z].length != n - 2:
                break
            y, n = z, n - 2
    if n != 1:
        raise DomainError(f"element {x} is not a reflection")


def dihedral_subgroup(ball: GroupBall, t: int, tp: int) -> ReflectionSubgroup:
    """The reflection subgroup <t, t'> intersected with the ball, with
    its canonical generating pair (exact; see module docstring).

    When every finite bond is 2, 3, 4 or 6 (`_walk_steps` is 0), the BFS
    of step 3 runs first on the given pair x, y, with l(x) <= l(y).  If
    no member of internal length 3 (x y x or y x y) is shorter than y,
    step 1 would not move: it needs l(xyx) < l(y) or l(yxy) < l(x) <=
    l(y), and a member beyond the radius is longer than y.  The pair is
    then canonical and that BFS is the answer, with no conjugate walked.
    Otherwise, and for other bonds, the three steps run in turn.
    """
    _check_reflection(ball, t)
    _check_reflection(ball, tp)
    if t == tp:
        return ReflectionSubgroup(
            ball=ball, member_ids=(ball.identity, t), reflection_ids=(t,),
            canonical_generators=(t,), is_dihedral=False, escaped=False,
            internal_length={ball.identity: 0, t: 1})
    steps = _walk_steps(ball.matrix)
    if not steps:
        x, y = _by_length(ball, (t, tp))
        sub = _internal_lengths(ball, x, y)
        ly = ball.length(y)
        if all(ball.length(w) >= ly
               for w, i in sub.internal_length.items() if i == 3):
            return sub
    pair = _descend(ball, t, tp)
    cycle = _finite_cycle(ball, *pair, steps)
    if cycle is not None:  # its reflections are a, aba, ababa, ...
        pair = cycle[::2]
    return _internal_lengths(ball, *_by_length(ball, pair))


def _by_length(ball: GroupBall, pair) -> tuple[int, int]:
    """The two shortest of the reflections, by (length, id)."""
    x, y = sorted(pair, key=lambda r: (ball._length(r), r))[:2]
    return x, y


def _internal_lengths(ball: GroupBall, x: int, y: int) -> ReflectionSubgroup:
    """Step 3: the members of <x, y> in the ball by a BFS over right
    multiplication by x and y, with their internal lengths for that
    pair, from the level of x and y.  A member w entered as w' g is not
    multiplied by g again, since w g = w' is already known."""
    internal = {ball.identity: 0, x: 1, y: 1}
    frontier = [(x, x), (y, y)]
    escaped = False
    while frontier:
        nxt = []
        for w, entered in frontier:
            for g in (x, y):
                if g == entered:
                    continue
                try:
                    z = ball.multiply(w, g)
                except OutOfBallError:
                    escaped = True
                    continue
                if z not in internal:
                    internal[z] = internal[w] + 1
                    nxt.append((z, g))
        frontier = nxt
    members = tuple(sorted(internal))
    return ReflectionSubgroup(
        ball=ball, member_ids=members,
        reflection_ids=tuple(w for w in members if internal[w] % 2),
        canonical_generators=(x, y), is_dihedral=True, escaped=escaped,
        internal_length=internal)


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
    reflections contributes the comparisons among all of its reflections.

    Each such subgroup is swept once.  The pairs (t, t') are taken with t
    before t' in the order by (length, id), and a pair is skipped when a
    subgroup already swept holds both; a sweep marks every pair of the
    subgroup's reflections in the ball.

    (a) Every swept pair is the canonical pair of its subgroup, so no
        subgroup is swept twice.  If (t, t') is not the canonical pair
        {c, c'} of W'' = <t, t'>, one of t, t' has internal length
        >= 3, so by the strict monotonicity of the module docstring it
        is longer than both c and c', and (c, c') comes up before
        (t, t').  Then (c, c') was swept, or skipped because a swept
        subgroup holds c and c'; either way a swept subgroup contains
        W'' and marked (t, t').
    (b) The relation handed to the closure is the one of sweeping every
        pair.  A pair (t, t') is skipped only when a swept W' holds
        both, so W'' = <t, t'> lies in W'.  On the reflections of W'',
        internal length in W'' is a strictly increasing function of
        internal length in W' (the Bruhat order of W'' implies that of
        W'), so the comparisons of W'' are among those of W'.
    """
    ball = table.ball
    if restrict_to is None:
        nodes = list(table.reflections)
    else:
        nodes = sorted(restrict_to)
        alien = sorted(set(nodes).difference(table.reflections))
        if alien:
            raise DomainError(f"ids {alien} are not reflections of the table")
    pos = {t: i for i, t in enumerate(nodes)}
    order = sorted(table.reflections, key=lambda t: (ball.length(t), t))
    bit = {t: 1 << i for i, t in enumerate(order)}
    seen = dict.fromkeys(order, 0)  # bits of the reflections swept with t
    pairs = set()
    for i, t in enumerate(order):
        for tp in order[i + 1:]:
            if seen[t] & bit[tp]:
                continue
            sub = dihedral_subgroup(ball, t, tp)
            met = sum(bit[r] for r in sub.reflection_ids)
            for r in sub.reflection_ids:
                seen[r] |= met
            in_nodes = [r for r in sub.reflection_ids if r in pos]
            for a in in_nodes:
                la = sub.internal_length[a]
                for b in in_nodes:
                    if sub.internal_length[b] > la:
                        pairs.add((pos[a], pos[b]))
    return Poset.from_relation(
        nodes, sorted(pairs), rank=None,
        metadata={"kind": "reflection-order", "radius": ball.radius})
