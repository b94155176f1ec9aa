"""Reflections of a Coxeter system, length slices, dihedral reflection
subgroups with canonical generators, and the reflection order.

A reflection is any conjugate w s w^-1 of a generator.  The
reflections of a ball are found by conjugation from the generators up:
a reflection r of length L >= 3 is s (s r s) s with s its first
letter and l(s r s) = L - 2, so conjugating each reflection t found by
each generator s that is not a left descent of t, while l(t) + 2 <= L,
meets every reflection of length <= L (see `_sweep`).

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
3. The members of W' in the ball, with their internal lengths for the
   canonical pair; by monotonicity each member in the ball is reached
   through members in the ball.

When every finite bond is 2, 3, 4 or 6, steps 1 and 3 run on integer
roots.  Take the generalized Cartan matrix with (a_st, a_ts) = (0, 0),
(-1, -1), (-1, -2), (-1, -3) or (-2, -2) for m(s, t) = 2, 3, 4, 6 or
inf (s < t).  Its Weyl group, acting on the root lattice by s(b) = b -
<a_s^v, b> a_s, is the Coxeter group of the matrix (Kac,
Infinite-dimensional Lie algebras, Prop. 3.13), and the reflections
are in bijection with the positive real roots: w s w^-1 has root
w(a_s), so t*u*t has root +-t(root u).  The ball keeps one table,
built on first use, of every reflection's root and coroot, each from
those of s*t*s, two shorter, with s the first letter of t (see
`_root_table`); a root missing from the table is that of a reflection
beyond the radius.  Then:

- step 1 keeps its rule, with each conjugate looked up by its root (a
  miss is longer than the radius, so it never shortens);
- step 3 reads the reflections of W' off two sequences of conjugates,
  x, yxy, xyxyx, ... and y, xyx, yxyxy, ..., each term the conjugate
  of the one before; a sequence stops at its first miss (every later
  term has a larger internal length, so it is longer) or when it comes
  back to a reflection already met (W' finite);
- the members of even internal length, r*g for r a reflection of W'
  in the ball and g the generator that conjugates r next, are built
  only when read, and so is `escaped` unless a sequence missed.

No product is walked past the radius on this path.  For other bonds (5
and >= 7), the products of steps 1 and 2 are followed past the radius
with `GroupBall._walk` and `GroupBall._times`, a conjugate being dropped
as soon as the letters still to come cannot bring it below the bound,
and step 3 is a BFS over right multiplication by the canonical pair.
"""
from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import combinations
from operator import mul

from .ball import BOUNDARY, GroupBall
from .errors import DomainError, IncompleteSliceError, OutOfBallError
from .matrices import INF
from .posets import Poset
from .records import Record

__all__ = [
    "ReflectionTable", "ReflectionSubgroup", "reflections_in_ball",
    "t_k_set", "max_k", "dihedral_subgroup", "t_order_poset",
]


class ReflectionTable(Record):
    _fields = ("ball", "reflections")

    def __init__(self, ball: GroupBall, reflections: tuple[int, ...]):
        self.ball = ball
        self.reflections = reflections  # element ids, sorted


class ReflectionSubgroup:
    """W' = <t, t'> intersected with the ball.

    `reflection_lengths` maps each reflection of W' in the ball to its
    internal length.  The identity and the members of even internal
    length, and with them `member_ids`, `internal_length` and
    `escaped` (some member of W' lies beyond the radius), are built on
    first read by `rotations`, which returns ({member: internal
    length}, escaped) for them; `escaped=True` says so in advance.
    """

    def __init__(self, ball: GroupBall, canonical_generators: tuple[int, ...],
                 reflection_lengths: dict[int, int], rotations,
                 escaped: bool = False):
        self.ball = ball
        self.canonical_generators = canonical_generators  # the pair (or single id)
        self.is_dihedral = len(canonical_generators) == 2
        self.reflection_lengths = reflection_lengths
        self.reflection_ids = tuple(sorted(reflection_lengths))
        self._rotations = rotations
        self._escaped = escaped

    @cached_property
    def _members(self) -> tuple[dict[int, int], bool]:
        rotations, escaped = self._rotations()
        return {**rotations, **self.reflection_lengths}, escaped

    @property
    def internal_length(self) -> dict[int, int]:
        return self._members[0]

    @cached_property
    def member_ids(self) -> tuple[int, ...]:
        """The members inside the ball, sorted."""
        return tuple(sorted(self.internal_length))

    @property
    def escaped(self) -> bool:
        return self._escaped or self._members[1]


def reflections_in_ball(ball: GroupBall) -> ReflectionTable:
    """All reflections of length <= radius: the generators and every
    s*t*s of the conjugation sweep (`_sweep`)."""
    gens, steps = _sweep(ball)
    out = [g for _s, g in gens] + [y for _t, _s, y in steps]
    return ReflectionTable(ball=ball, reflections=tuple(sorted(out)))


def _sweep(ball: GroupBall):
    """([(s, id of s)] over the generators in the ball, [(t, s, s*t*s)]),
    the second list holding each reflection of length >= 3 once, level by
    level from the generators up; built once and kept on the ball.

    For a reflection t of length n <= radius - 2 and s not a left
    descent of t, s*t*s is t or a reflection of length n + 2, so both
    products stay in the ball and each is one table lookup of
    `GroupBall.multiply` by the generator's id.  Every reflection r of
    length L >= 3 is met, from s*r*s with s its first letter, of length
    L - 2 (Bjorner and Brenti, Combinatorics of Coxeter Groups, ch. 1).
    Neither argument rests on the ids being sorted by length."""
    if ball._sweep is None:
        left, lengths = ball.left, ball.lengths
        gens = [(s, g) for s, g in enumerate(ball.right[ball.identity])
                if g != BOUNDARY]
        found = {g for _s, g in gens}
        level, steps = [g for _s, g in gens], []
        n = 1
        while level and n + 2 <= ball.radius:
            nxt = []
            for t in level:
                for s, g in gens:
                    if lengths[left[t][s]] < n:
                        continue
                    y = ball.multiply(ball.multiply(g, t), g)
                    if y not in found:
                        found.add(y)
                        steps.append((t, s, y))
                        nxt.append(y)
            level = nxt
            n += 2
        ball._sweep = (gens, steps)
    return ball._sweep


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


def max_k(table: ReflectionTable) -> int:
    """The smallest k whose slice already holds every reflection."""
    top = max((table.ball.length(t) for t in table.reflections), default=1)
    return (top - 1) // 2


# -- dihedral reflection subgroups -------------------------------------------


def dihedral_subgroup(ball: GroupBall, t: int, tp: int) -> ReflectionSubgroup:
    """The reflection subgroup <t, t'> intersected with the ball, with
    its canonical generating pair (exact; see module docstring).
    DomainError unless t and t' are reflections of the ball."""
    if _cartan(ball.matrix) is None:
        return _walked_subgroup(ball, t, tp)
    return _rooted_subgroup(ball, t, tp)


def _singleton(ball: GroupBall, t: int) -> ReflectionSubgroup:
    return ReflectionSubgroup(ball, (t,), {t: 1},
                              lambda: ({ball.identity: 0}, False))


# -- integer roots: every finite bond 2, 3, 4 or 6 --------------------------


_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


@cache
def _cartan(matrix):
    """The generalized Cartan matrix of the module docstring, as rows;
    None when some finite bond is not 2, 3, 4 or 6."""
    a = [[2 if s == t else 0 for t in matrix.generators]
         for s in matrix.generators]
    for s, t in combinations(matrix.generators, 2):
        entry = _CARTAN.get(matrix.m(s, t))
        if entry is None:
            return None
        a[s][t], a[t][s] = entry
    return tuple(map(tuple, a))


def _root_table(ball: GroupBall):
    """({reflection id: (root, coroot, key)}, {+-key: reflection id})
    for every reflection of the ball, built once and kept on the ball.  A
    root is its coordinates on the simple roots; a coroot is kept as its
    pairings with the simple roots, so <t^v, b> is one dot product.

    The table reads the conjugation sweep (`_sweep`) from the
    generators up: the root and coroot of a new s*t*s are s applied to
    t's, both positive since s*t*s != t.  The sweep meets each reflection
    of the ball once, so the ids in the table are exactly those
    reflections, each proven once.

    The key of a vector b is the integer sum b_i B^i, with B a power of
    two above twice any coordinate of root u - <t^v, root u> root t over
    reflections t, u of the table.  It is one-to-one on such vectors
    (balanced base-B digits), and linear, so `_conjugate` finds the key of
    t*u*t with one integer product."""
    if ball._roots is None:
        a = _cartan(ball.matrix)
        rank = ball.matrix.rank
        gens, steps = _sweep(ball)
        roots = {g: (tuple(int(i == s) for i in range(rank)), a[s])
                 for s, g in gens}
        for t, s, y in steps:
            root, coroot = roots[t]
            b = list(root)
            b[s] -= sum(map(mul, a[s], root))
            k = coroot[s]
            roots[y] = (tuple(b), tuple(c - k * d for c, d in zip(coroot, a[s])))
        big = max((abs(c) for root, _ in roots.values() for c in root), default=0)
        co = max((abs(c) for _, coroot in roots.values() for c in coroot),
                 default=0)
        shift = (big + rank * co * big * big).bit_length() + 1
        keyed, ids = {}, {}
        for t, (root, coroot) in roots.items():
            key = sum(c << (shift * i) for i, c in enumerate(root))
            keyed[t] = (root, coroot, key)
            ids[key] = ids[-key] = t
        ball._roots = (keyed, ids)
    return ball._roots


def _conjugate(table, t: int, u: int):
    """t*u*t for reflections t, u of the root table: the reflection
    whose root is +-(root u - <t^v, root u> root t), or None when that
    root is missing (t*u*t lies beyond the radius)."""
    roots, ids = table
    rt, ct, kt = roots[t]
    ru, _, ku = roots[u]
    return ids.get(ku - sum(map(mul, ct, ru)) * kt)


def _rooted_subgroup(ball: GroupBall, t: int, tp: int) -> ReflectionSubgroup:
    """Steps 1 and 3 on the root table (module docstring)."""
    table = _root_table(ball)
    for r in (t, tp):
        if r not in table[0]:
            raise DomainError(f"element {r} is not a reflection")
    if t == tp:
        return _singleton(ball, t)
    length = ball.length
    a, b = t, tp
    while True:
        aba = _conjugate(table, a, b)
        if aba is not None and length(aba) < length(b):
            b = aba
            continue
        bab = _conjugate(table, b, a)
        if bab is None or length(bab) >= length(a):
            break
        a = bab
    # the terms a, bab, ababa, ... and b, aba, babab, ...; the last round
    # of step 1 looked up the second ones
    internal = {a: 1, b: 1}
    swept = [(a, b), (b, a)]  # each term and the generator that conjugates it next
    found = [(bab, a, b), (aba, b, a)]  # (g*r*g, r, g)
    missed = False
    while found:
        nxt = []
        for z, r, g in found:
            if z is None:
                missed = True
            elif z not in internal:
                internal[z] = internal[r] + 2
                h = a if g == b else b
                swept.append((z, h))
                nxt.append((_conjugate(table, h, z), z, h))
        found = nxt
    pair = (a, b) if (length(a), a) < (length(b), b) else (b, a)
    return ReflectionSubgroup(ball, pair, internal,
                              partial(_rotations, ball, swept, internal),
                              escaped=missed)


def _rotations(ball: GroupBall, swept, internal):
    """The identity and the members of even internal length, with
    `escaped`: for each term r of the two sequences, of internal length
    i, and the generator g that conjugates it next, r*g is the member of
    internal length i + 1, or, once a sequence has come back, a member
    met at a lower length before it.  Every such member in the ball is
    below a term in the ball, so it is met; and when no sequence missed,
    a member beyond the radius is some r*g."""
    lengths = {ball.identity: 0}
    escaped = False
    for r, g in swept:
        try:
            z = ball.multiply(r, g)
        except OutOfBallError:
            escaped = True
            continue
        lengths.setdefault(z, internal[r] + 1)
    return lengths, escaped


# -- walks past the radius: a finite bond of 5 or >= 7 ------------------------


def _walked_subgroup(ball: GroupBall, t: int, tp: int) -> ReflectionSubgroup:
    _check_reflection(ball, t)
    _check_reflection(ball, tp)
    if t == tp:
        return _singleton(ball, t)
    pair = _descend(ball, t, tp)
    cycle = _finite_cycle(ball, *pair, _walk_steps(ball.matrix))
    if cycle is not None:  # its reflections are a, aba, ababa, ...
        pair = cycle[::2]
    return _internal_lengths(ball, *_by_length(ball, pair))


def _by_length(ball: GroupBall, pair) -> tuple[int, int]:
    """The two shortest of the reflections, by (length, id)."""
    x, y = sorted(pair, key=lambda r: (ball._length(r), r))[:2]
    return x, y


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
    """2M for M the largest finite bond."""
    return 2 * max(matrix.m(s, t) for s, t in combinations(matrix.generators, 2)
                   if matrix.is_finite_bond(s, t))


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
    """DomainError unless x is a reflection of the ball, decided inside
    the ball: x must be an involution, and conjugating it by a left
    descent s must shorten it by 2 until a generator is left.  For a
    reflection t != s with s a left descent, s*t*s != t, so l(sts) =
    l(t) - 2 (Bjorner and Brenti, Combinatorics of Coxeter Groups, ch.
    1); an involution such as a central w0 is left as it is."""
    lengths, left, right = ball.lengths, ball.left, ball.right
    if 0 <= x < len(ball) and ball.inverse(x) == x:
        y, n = x, lengths[x]
        while n > 1:
            s = ball.words[y][0]
            z = right[left[y][s]][s]
            if lengths[z] != n - 2:
                break
            y, n = z, n - 2
        if n == 1:
            return
    raise DomainError(f"element {x} is not a reflection")


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
    return ReflectionSubgroup(
        ball, (x, y), {w: i for w, i in internal.items() if i % 2},
        lambda: (internal, escaped))


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
    (c) On a truncated ball with a root table, a pair (t, t') is skipped
        when t*t'*t and t'*t*t' both miss the table, with no subgroup
        built.  Then the descent of step 1 stops at once, and both
        sequences of step 3 stop at their first miss, so t, t' are the
        only reflections of <t, t'> in the ball, both of internal length
        1: the sweep would add no comparison, and its marks would only
        skip (t, t') itself, which the loop visits once.  On a complete
        group every conjugate is in the ball, so nothing is tested.
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
    lonely = not ball.is_complete_group and _cartan(ball.matrix) is not None
    if lonely:
        roots, ids = _root_table(ball)
    pairs = set()
    for i, t in enumerate(order):
        if lonely:
            rt, ct, kt = roots[t]
        for tp in order[i + 1:]:
            if seen[t] & bit[tp]:
                continue
            if lonely:  # (c): t*t'*t and t'*t*t' both beyond the radius
                ru, cu, ku = roots[tp]
                if (ku - sum(map(mul, ct, ru)) * kt not in ids
                        and kt - sum(map(mul, cu, rt)) * ku not in ids):
                    continue
            sub = dihedral_subgroup(ball, t, tp)
            met = sum(bit[r] for r in sub.reflection_ids)
            for r in sub.reflection_ids:
                seen[r] |= met
            in_nodes = [r for r in sub.reflection_ids if r in pos]
            for a in in_nodes:
                la = sub.reflection_lengths[a]
                for b in in_nodes:
                    if sub.reflection_lengths[b] > la:
                        pairs.add((pos[a], pos[b]))
    return Poset.from_relation(
        nodes, sorted(pairs), rank=None,
        metadata={"kind": "reflection-order", "radius": ball.radius})
