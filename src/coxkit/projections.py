"""Parabolic factorizations and projection maps on a ball.

Every element factors uniquely as w = w^J w_J with w_J in the standard
parabolic subgroup W_J and w^J free of right descents in J (lengths
adding), and mirror-image on the left.  The projections P^J (right
version) and Q^J (left version) send w to the minimal-length coset
representative; both are computed by greedy descent stripping, which
never increases length and therefore never leaves the ball.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .ball import BOUNDARY, GroupBall
from .errors import DomainError, ResourceError
from .posets import Poset

__all__ = [
    "ParabolicDecomposition", "SelfMapTable", "parabolic_decompose",
    "project_PJ", "project_QJ", "projection_map", "is_order_preserving",
    "OrderPreservationReport", "phi_k_image_poset", "projection_monoid",
    "MonoidReport",
]


@dataclass
class ParabolicDecomposition:
    w: int
    J: frozenset[int]
    side: str            # "right" or "left"
    coset_rep: int       # w^J (right) or ^Jw (left)
    parabolic_part: int  # w_J (right) or w'_J (left)


@dataclass
class SelfMapTable:
    descriptor: str
    images: tuple[int, ...]

    def __call__(self, w: int) -> int:
        return self.images[w]

    def compose(self, other: "SelfMapTable") -> "SelfMapTable":
        """self after other: w -> self(other(w))."""
        return SelfMapTable(
            descriptor=f"{self.descriptor}*{other.descriptor}",
            images=tuple(self.images[x] for x in other.images))


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
    length = [e.length for e in ball.elements]
    images = list(range(len(length)))
    # `enumerate_ball` numbers by length already; a ball read from JSON
    # need not
    for w in sorted(range(len(length)), key=length.__getitem__):
        row = steps[w]
        for s in J:
            x = row[s]
            if x != BOUNDARY and length[x] < length[w]:
                images[w] = images[x]
                break
    label = ",".join(str(s) for s in J)
    return SelfMapTable(descriptor=f"{kind}^{{{label}}}", images=tuple(images))


@dataclass
class OrderPreservationReport:
    ok: bool
    violations: list = field(default_factory=list)  # (u, v) covers broken


def is_order_preserving(table: SelfMapTable, poset: Poset) -> OrderPreservationReport:
    """Check f(u) <= f(v) over all cover edges (enough, by transitivity).

    Poset nodes must be the ball ids the map is defined on.
    """
    bad = []
    nodes, index, up, images = poset.nodes, poset.index, poset.up, table.images
    for i, j in poset.covers:
        if not up[index(images[nodes[i]])] >> index(images[nodes[j]]) & 1:
            bad.append((nodes[i], nodes[j]))
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
    # AND over c of above[c][a[c]].
    up, index = order_poset.up, order_poset.index
    above = []
    for c in range(len(maps)):
        at = {}  # x -> bitmask of the tuples whose c-th entry is x
        for i, a in enumerate(tuples):
            at[a[c]] = at.get(a[c], 0) | 1 << i
        above.append({x: reduce(or_, (mask for y, mask in at.items()
                                  if up[index(x)] >> index(y) & 1), 0)
                      for x in at})
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


@dataclass
class MonoidReport:
    size: int
    idempotent: bool
    braid_ok: bool
    elements: list = field(default_factory=list)  # SelfMapTable list


def projection_monoid(ball: GroupBall, generators: list[SelfMapTable],
                      cap: int = 1_000_000) -> MonoidReport:
    """Closure of the generator maps under composition, as function
    tables, with the generator sanity checks.

    braid_ok: for every pair of single-generator projections, the
    m(s,t)-fold alternating compositions on both sides agree.
    """
    if not ball.is_complete_group:
        raise DomainError("monoid closure needs the complete finite group")
    ident = SelfMapTable("id", tuple(range(len(ball))))
    seen = {ident.images: ident}
    work = [ident]
    while work:
        f = work.pop()
        for g in generators:
            h = g.compose(f)
            if h.images not in seen:
                if len(seen) >= cap:
                    raise ResourceError(f"monoid closure cap {cap} exceeded")
                seen[h.images] = h
                work.append(h)
    elements = list(seen.values())
    idem = all(g.compose(g).images == g.images for g in generators)
    braid_ok = True
    singles = {}
    for g in generators:
        moved = [w for w in range(len(ball)) if g(w) != w]
        # a single-generator projection moves w exactly by stripping s
        cand = {next(iter(ball.right_descents(w) & set(ball.matrix.generators)
                          & {s for s in ball.matrix.generators
                             if ball.right[w][s] == g(w)}), None)
                for w in moved}
        cand.discard(None)
        if len(cand) == 1:
            singles[next(iter(cand))] = g
    for s in singles:
        for t in singles:
            if s >= t:
                continue
            m = ball.matrix.m(s, t)
            if m == 0:
                continue
            a = b = ident
            x, y = singles[s], singles[t]
            for i in range(m):
                a = (x if i % 2 == 0 else y).compose(a)
                b = (y if i % 2 == 0 else x).compose(b)
            if a.images != b.images:
                braid_ok = False
    return MonoidReport(size=len(elements), idempotent=idem, braid_ok=braid_ok,
                        elements=elements)
