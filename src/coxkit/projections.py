"""Parabolic factorizations and projection maps on a ball.

Every element factors uniquely as w = w^J w_J with w_J in the standard
parabolic subgroup W_J and w^J free of right descents in J (lengths
adding), and mirror-image on the left.  The projections P^J (right
version) and Q^J (left version) send w to the minimal-length coset
representative; both are computed by greedy descent stripping, which
never increases length and therefore never leaves the ball.
"""
from __future__ import annotations

from itertools import chain, combinations

from .ball import BOUNDARY, GroupBall
from .errors import DomainError, ResourceError
from .posets import Poset
from .records import Record

__all__ = [
    "ParabolicDecomposition", "SelfMapTable", "parabolic_decompose",
    "project_PJ", "project_QJ", "projection_map", "is_order_preserving",
    "OrderPreservationReport", "phi_k_image_poset", "projection_monoid",
    "MonoidReport",
]


class ParabolicDecomposition(Record):
    _fields = ("w", "J", "side", "coset_rep", "parabolic_part")

    def __init__(self, w: int, J: frozenset[int], side: str, coset_rep: int,
                 parabolic_part: int):
        self.w = w
        self.J = J
        self.side = side                      # "right" or "left"
        self.coset_rep = coset_rep            # w^J (right) or ^Jw (left)
        self.parabolic_part = parabolic_part  # w_J (right) or w'_J (left)


class SelfMapTable(Record):
    _fields = ("descriptor", "images")

    def __init__(self, descriptor: str, images: tuple[int, ...]):
        self.descriptor = descriptor
        self.images = images

    def __call__(self, w: int) -> int:
        return self.images[w]

    def compose(self, other: "SelfMapTable") -> "SelfMapTable":
        """self after other: w -> self(other(w))."""
        return SelfMapTable(
            descriptor=f"{self.descriptor}*{other.descriptor}",
            images=_compose(self.images, other.images))


def parabolic_decompose(ball: GroupBall, w: int, J, side: str = "right") -> ParabolicDecomposition:
    J = frozenset(J)
    for s in J:
        if s not in ball.matrix.generators:
            raise DomainError(f"generator {s} not in the system")
    if side not in ("right", "left"):
        raise DomainError("side must be 'right' or 'left'")
    x = w
    u = ball.identity
    if side == "right":
        while True:
            ds = ball.right_descents(x) & J
            if not ds:
                break
            s = min(ds)
            x = ball.right[x][s]
            u = ball.multiply(ball.right[ball.identity][s], u)
    else:
        while True:
            ds = ball.left_descents(x) & J
            if not ds:
                break
            s = min(ds)
            x = ball.left[x][s]
            u = ball.multiply(u, ball.right[ball.identity][s])
    return ParabolicDecomposition(w=w, J=J, side=side, coset_rep=x, parabolic_part=u)


def project_PJ(ball: GroupBall, w: int, J) -> int:
    """Minimal-length representative of the right coset w W_J."""
    return parabolic_decompose(ball, w, J, "right").coset_rep


def project_QJ(ball: GroupBall, w: int, J) -> int:
    """Minimal-length representative of the left coset W_J w."""
    return parabolic_decompose(ball, w, J, "left").coset_rep


def projection_map(ball: GroupBall, J, kind: str = "P") -> SelfMapTable:
    """The table of P^J (kind "P") or Q^J (kind "Q") on the whole ball.

    One pass over the ids in order of length: w goes where w s goes for
    the smallest right descent s in J (P), or where s w goes for the
    smallest left descent s in J (Q), and is its own image when it has
    none.  This is the descent stripping of `parabolic_decompose`, read
    off the images already computed.
    """
    J = sorted(frozenset(J))
    if kind == "P":
        steps = ball.right
    elif kind == "Q":
        steps = ball.left
    else:
        raise DomainError("kind must be 'P' or 'Q'")
    for s in J:
        if s not in ball.matrix.generators:
            raise DomainError(f"generator {s} not in the system")
    length = ball.lengths
    images = list(range(len(length)))
    for w in chain.from_iterable(ball.levels):
        row = steps[w]
        for s in J:
            x = row[s]
            if x != BOUNDARY and length[x] < length[w]:
                images[w] = images[x]
                break
    label = ",".join(str(s) for s in J)
    return SelfMapTable(descriptor=f"{kind}^{{{label}}}", images=tuple(images))


class OrderPreservationReport(Record):
    _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: list | None = None):
        self.ok = ok
        self.violations = [] if violations is None else violations  # (u, v) covers broken


def is_order_preserving(table: SelfMapTable, poset: Poset) -> OrderPreservationReport:
    """Check f(u) <= f(v) over all cover edges (enough, by transitivity).

    Poset nodes must be the ball ids the map is defined on.
    """
    nodes, up, images = poset.nodes, poset.up, table.images
    at = list(map(poset.index, map(images.__getitem__, nodes)))  # index of f(node i)
    # a cover f fixes, or one whose ends f identifies, needs no bit test
    bad = [(nodes[i], nodes[j]) for i, j in poset.covers
           if (a := at[i]) != (b := at[j]) and (a != i or b != j)
           and not up[a] >> b & 1]
    return OrderPreservationReport(ok=not bad, violations=bad)


def phi_k_image_poset(ball: GroupBall, order_poset: Poset,
                      maps: list[SelfMapTable] | None = None) -> Poset:
    """Image of w -> (P^{S-{s}}(w))_{s in S} with the componentwise
    order, each component compared inside the given order on the ball.

    order_poset must have the ball ids 0..n-1 as nodes.  `maps` are the
    tables of P^{S-{s}} in generator order, if they are already built.
    """
    if not ball.is_complete_group:
        raise DomainError("image poset needs the complete finite group")
    if maps is None:
        gens = list(ball.matrix.generators)
        maps = [projection_map(ball, [s for s in gens if s != i], "P")
                for i in gens]
    tuples = sorted({tuple(m(w) for m in maps) for w in range(len(ball))})
    # above[c][x]: bitmask of the tuples whose c-th entry is >= x, for
    # each x that occurs as a c-th entry; the tuples >= a are then the
    # AND over c of above[c][a[c]].  It is the OR of at[j] over the bits
    # j of up[x] that occur, each bit read once.
    up, index, nodes = order_poset.up, order_poset.index, order_poset.nodes
    above = []
    for c in range(len(maps)):
        at = {}  # index of x -> bitmask of the tuples whose c-th entry is x
        for i, a in enumerate(tuples):
            j = index(a[c])
            at[j] = at.get(j, 0) | 1 << i
        occurs = sum(1 << j for j in at)
        column = {}
        for j in at:
            mask, bits = 0, up[j] & occurs
            while bits:
                low = bits & -bits
                mask |= at[low.bit_length() - 1]
                bits ^= low
            column[nodes[j]] = mask
        above.append(column)
    ups = []
    everything = (1 << len(tuples)) - 1
    for a in tuples:
        m = everything
        for c, x in enumerate(a):
            m &= above[c][x]
        ups.append(m)
    # the componentwise order is already transitively closed
    return Poset._from_closed(tuples, ups,
                              metadata={"kind": "projection-image-poset"})


class MonoidReport(Record):
    _fields = ("size", "idempotent", "braid_ok")

    def __init__(self, size: int, idempotent: bool, braid_ok: bool):
        self.size = size
        self.idempotent = idempotent
        self.braid_ok = braid_ok


def _single_projections(ball: GroupBall) -> dict:
    """{images of P^{s}: s} for each generator s of a complete group:
    P^{s} sends w to w s when s is a right descent of w, and fixes w
    otherwise."""
    length = ball.lengths
    out = {}
    for s in ball.matrix.generators:
        column = (row[s] for row in ball.right)
        out[tuple(x if length[x] < length[w] else w
                  for w, x in enumerate(column))] = s
    return out


def _compose(f: tuple, g: tuple) -> tuple:
    """f after g, as image tuples."""
    return tuple(map(f.__getitem__, g))


def _braid_holds(f: tuple, g: tuple, m: int) -> bool:
    """Whether f g f ... = g f g ..., m factors each (0: infinite m, no
    relation)."""
    a = b = tuple(range(len(f)))
    for i in range(m):
        a = _compose(f if i % 2 == 0 else g, a)
        b = _compose(g if i % 2 == 0 else f, b)
    return a == b


def projection_monoid(ball: GroupBall, generators: list[SelfMapTable],
                      cap: int = 1_000_000) -> MonoidReport:
    """The size of the monoid the generator maps generate under
    composition, with the generator sanity checks.

    A map whose table is that of a single projection P^{s} is labelled
    by s.  idempotent: g g = g for every generator map.  braid_ok: every
    s has a single projection among the maps, and for every pair s, t
    with m(s, t) finite the m(s, t)-fold alternating compositions
    starting with P^{s} and with P^{t} agree.

    When the maps are exactly one P^{s} for each s, are idempotent and
    satisfy the braid relations, they satisfy the defining relations of
    the 0-Hecke monoid of W, so they generate a quotient of it; that
    monoid has |W| elements, since the words of one element of W are
    linked by braid moves (Matsumoto, C. R. Acad. Sci. Paris 258, 1964;
    Norton, J. Austral. Math. Soc. A 27, 1979).  And f -> f(w0) maps the
    monoid onto the orbit of w0.  So when one search from w0 reaches all
    of W, the size is |W|.  Otherwise the maps are closed under
    composition as tables, up to `cap` elements.
    """
    if not ball.is_complete_group:
        raise DomainError("monoid closure needs the complete finite group")
    n = len(ball)
    label = _single_projections(ball)
    tables = [g.images for g in generators]
    singles = {label[f]: f for f in tables if f in label}
    idem = all(_compose(f, f) == f for f in tables)
    gens = ball.matrix.generators
    braid_ok = len(singles) == len(gens) and all(
        _braid_holds(singles[s], singles[t], ball.matrix.m(s, t))
        for s, t in combinations(gens, 2))
    # with braid_ok, as many maps as generators means one P^{s} for each s
    if idem and braid_ok and len(tables) == len(gens):
        w0 = max(range(n), key=ball.length)
        reached = bytearray(n)
        reached[w0] = 1
        orbit = [w0]
        for w in orbit:  # the list is the queue: it grows while it is read
            for f in tables:
                x = f[w]
                if not reached[x]:
                    reached[x] = 1
                    orbit.append(x)
        if len(orbit) == n:
            return MonoidReport(size=n, idempotent=True, braid_ok=True)
    ident = tuple(range(n))
    seen = {ident}
    work = [ident]
    while work:
        f = work.pop()
        for g in tables:
            h = _compose(g, f)
            if h not in seen:
                if len(seen) >= cap:
                    raise ResourceError(f"monoid closure cap {cap} exceeded")
                seen.add(h)
                work.append(h)
    return MonoidReport(size=len(seen), idempotent=idem, braid_ok=braid_ok)
