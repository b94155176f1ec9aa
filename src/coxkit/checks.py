"""The nine checks of `coxkit check`, run by one walk over the T_k
slices of a ball: each part of slice k is built when a check first reads
it, and the slice is dropped before slice k + 1 is built.  Under
`--ideal all` one loop over the order ideals hands each ideal's poset
to `graded` and `projections` alike.

What depends only on the group is held for the run by `_Group`: the
Bruhat poset, the projection tables, and for each J the data of W_J the
checks read.  The arc table belongs to the ball (`orders.arc_table`):
each reflection's row t*a is built once, on first read, and each
slice's or ideal's arc graph is a view of the rows of its X.

Each slice's intermediate poset is built from its unit arcs a -> t*a,
l(t*a) = l(a) + 1, once a sweep down the lengths has certified that
every longer arc lies in their closure, so that the unit arcs are its
covers (`orders.intermediate_poset`).  The up-sets are made only for a
check that reads them, and a slice whose certificate fails is closed
from every arc, so `graded` still sees a bad cover.

`graded` reads per J the rank list w -> l(w) - l(Q^J w) and the number
of w with no left descent in J; `projections` and `monoid` test each
single P^{s} once per slice, and P^J for |J| >= 2 is certified once per
run as the composite of the singles in J.  `refinement` reads no slice:
it decides the chain on the reflection sets and the ball's arc graph of
X_{max k} when it reports.  Each check keeps only its own rows (and
Sperner its certified first slice).

Some work is done once per orbit of the Coxeter graph's automorphisms.
Such a permutation pi of the generators extends to a length-preserving
automorphism phi of W, which maps T_k, each intermediate order, each
k-absolute order and the reflection order onto themselves, and [e, c]
onto [e, phi(c)]; `_Group.automorphisms` keeps each phi only once it is
certified on the ball's right table.  Under `--ideal all` an image of an
ideal that passed every check adds that ideal's counts, cut components
included, and builds no poset; an image of an ideal with a failure is
checked on its own, so the rows name its own covers.

`shellability` decides each class of Coxeter elements once for each
slice and flavour.  A class is an orbit under the certified phi and, in
the k-absolute order of a complete group, under each conjugation x ->
s x s by a generator s that keeps lk: the order is defined by lk alone,
so such a map is an automorphism of it that fixes e (an orbit may pass
through elements that are not Coxeter elements).  Each member of a
class has an isomorphic interval, so the class is searched member by
member until one search decides, and every member takes that status; a
member is `inconclusive` only when every member's search was, since
another numbering of the facets may decide the search.
"""
from __future__ import annotations

import time
from functools import cache, cached_property, partial
from itertools import combinations

from . import curvature, orders, polynomials, posets, projections, reflections
from .ball import BOUNDARY
from .errors import DomainError, ResourceError

__all__ = ["THEOREM_CHECKS", "CONJECTURE_CHECKS", "ALL_CHECKS", "run_checks"]

THEOREM_CHECKS = ("graded", "projections", "refinement", "sperner", "phi", "monoid")
CONJECTURE_CHECKS = ("logconcave", "shellability", "curvature")
ALL_CHECKS = THEOREM_CHECKS + CONJECTURE_CHECKS


class _Group:
    """The ball, its reflections and lengths, and, built on first read,
    the Bruhat poset, each projection table (J a sorted tuple or a
    frozenset), and the per-J data of `graded` and `composite`."""

    def __init__(self, ball):
        self.ball, self.table = ball, reflections.reflections_in_ball(ball)
        self.projection = cache(partial(projections.projection_map, ball))
        self.length = ball.lengths
        self._graded, self._composite = {}, {}

    bruhat = cached_property(lambda g: orders.bruhat_poset(g.ball))

    @cached_property
    def automorphisms(self):
        """The ball's non-identity diagram automorphisms, each as the list
        phi with phi[w] the id of the image of w.

        A permutation pi of the generators that keeps every bond m(s, t)
        extends to a length-preserving automorphism of W (Bjorner-Brenti,
        Combinatorics of Coxeter Groups, 2005).  The pi are found by a
        backtracking search over the images of 0, 1, ..., each image kept
        only while the bonds to the generators placed so far hold.  phi
        is built level by level from phi(w s) = phi(w) pi(s), s the last
        letter of the word of w s, and kept only if it permutes the ids
        and commutes with the right table on every (w, s), BOUNDARY to
        BOUNDARY: a wrong table certifies none.
        """
        ball, entries = self.ball, self.ball.matrix.entries
        right, words, n = ball.right, ball.words, len(ball)
        perms = []

        def extend(pi):
            s = len(pi)
            if s == len(entries):
                perms.append(pi)
                return
            for p in range(len(entries)):
                if p not in pi and all(entries[p][q] == entries[s][t]
                                       for t, q in enumerate(pi)):
                    extend(pi + (p,))

        extend(())
        out = []
        for pi in perms[1:]:  # the first is the identity
            phi = [BOUNDARY] * (n + 1)  # and phi[BOUNDARY], the last, is BOUNDARY
            phi[ball.identity] = ball.identity
            for level in ball.levels[1:]:
                for x in level:
                    s = words[x][-1]
                    phi[x] = right[phi[right[x][s]]][pi[s]]
            if sorted(phi[:n]) == list(range(n)) and all(
                    [phi[x] for x in row] == [right[phi[w]][p] for p in pi]
                    for w, row in enumerate(right)):
                out.append(phi[:n])
        return out

    @cached_property
    def conjugation(self):
        """For each generator s, the list x -> s x s of ids: none on a
        truncated ball, where s x s may leave it."""
        ball = self.ball
        if not ball.is_complete_group:
            return []
        return [[ball.left[row[s]][s] for row in ball.right]
                for s in ball.matrix.generators]

    def conjugations(self, lk):
        """The conjugations that keep the length list lk: lk(s x s) = lk(x)
        for every x.  The k-absolute order is u <= v iff lk(v) = lk(u) +
        lk(v u^-1), and s v s (s u s)^-1 = s (v u^-1) s, so each of them
        is an automorphism of that order which fixes e, and maps [e, c]
        onto [e, s c s]."""
        return [phi for phi in self.conjugation if [lk[y] for y in phi] == lk]

    def graded(self, J):
        """(rank, minreps) for the frozenset J: the list w -> l(w) - l(Q^J w),
        which is `self.length` itself when Q^J sends every w to e (J = S),
        and the number of w with no left descent in J, the fixed points
        of Q^J."""
        if J not in self._graded:
            length, images = self.length, self.projection(J, "Q").images
            rank = [lw - length[q] for lw, q in zip(length, images)]
            minreps = sum(w == q for w, q in enumerate(images))
            self._graded[J] = (length if rank == length else rank), minreps
        return self._graded[J]

    def composite(self, J):
        """Whether the table of P^J is a composite of the single tables
        P^{s}, s in J: they are applied in turn to the identity table
        until a whole round changes nothing, and the result is compared.

        A composite of maps that each preserve an order preserves it, so
        only the comparison is needed for that.  It holds when the tables
        are right: each P^{s} strips the right descent s or does nothing,
        so it never leaves the ball, and a round that changes nothing
        leaves each image in w W_J with no right descent in J, the
        minimal coset representative, also on a truncated ball (P^J
        acts as w0(J) in the 0-Hecke monoid; Norton, J. Austral. Math.
        Soc. A 27, 1979).  Each other round strips every image not yet
        there, so radius + 1 rounds suffice.
        """
        if J not in self._composite:
            singles = [self.projection((s,), "P").images for s in J]
            f = self.projection((), "P").images
            for _ in range(self.ball.radius + 1):
                g = f
                for p in singles:
                    g = tuple(map(p.__getitem__, g))
                if g == f:
                    break
                f = g
            self._composite[J] = f == self.projection(J, "P").images
        return self._composite[J]


class _Slice:
    """Slice k, or the order ideal x_set (k None), and, each built on first
    read, its intermediate poset and k-absolute length table, and the
    order test of each single projection."""

    def __init__(self, group, k, x_set=None):
        self.group, self.ball, self.table, self.k = group, group.ball, group.table, k
        if x_set is not None:
            self.x_set = x_set
        self._single = {}

    x_set = cached_property(lambda s: reflections.t_k_set(s.table, s.k))
    intermediate = cached_property(
        lambda s: orders.intermediate_poset(s.ball, s.x_set))
    absolute_length = cached_property(
        lambda s: orders.k_absolute_length_all(s.table, s.k))

    def single(self, s):
        """`is_order_preserving` of P^{s} on the intermediate poset, once."""
        if s not in self._single:
            self._single[s] = projections.is_order_preserving(
                self.group.projection((s,), "P"), self.intermediate)
        return self._single[s]


def run_checks(ball, names, ks=None, ideal="tk", deadline=None) -> dict:
    """The records of the named checks (from ALL_CHECKS) on the ball.

    The checks read the slices in `ks` (all by default); `refinement`
    reads none, and decides the chain up to max(ks) on the reflection
    sets and one arc graph.  With ideal="all", `graded` and
    `projections` read every order ideal instead, in one loop before the
    walk.  `deadline` (`time.monotonic`) is read before that loop and
    each slice: past it, every unfinished check is skipped for
    "timeout", as one is for a cap it hits.
    """
    group = _Group(ball)
    ks = sorted(set(ks)) if ks else range(reflections.max_k(group.table) + 1)
    live = {name: _CHECKS[name](group) for name in names}
    out = {}

    past = lambda: deadline is not None and time.monotonic() > deadline

    def hand(checks, s):
        """s to each check; one that is skipped is recorded and dropped."""
        for name, check in list(checks.items()):
            if skipped := _record(check.step, s):  # a step gives None
                out[name] = skipped
                del checks[name]

    def every_ideal(checks):
        tpos = reflections.t_order_poset(group.table)
        passed = {}  # each image of an ideal that passed every check: its counts
        for i in posets.order_ideals(tpos):
            X = frozenset(tpos.nodes[j] for j in i)
            if X in passed:  # an automorphism maps the checked ideal onto X
                for name, check in checks.items():
                    count, cut = passed[X][name]
                    check.count += count
                    check.cut += cut
                continue
            before = {n: (c.count, c.cut, len(c.rows)) for n, c in checks.items()}
            hand(checks, _Slice(group, None, X))  # each ideal's slice dropped after it
            if checks.keys() == before.keys() and all(
                    len(c.rows) == before[n][2] for n, c in checks.items()):
                counts = {n: (c.count - before[n][0], c.cut - before[n][1])
                          for n, c in checks.items()}
                passed.update((frozenset(phi[t] for t in X), counts)
                              for phi in group.automorphisms)

    if ideal == "all":
        per_ideal = {n: live.pop(n) for n in ("graded", "projections") if n in live}
        if per_ideal and not past():
            skipped = _record(every_ideal, per_ideal)
            out.update((n, skipped or c.report()) for n, c in per_ideal.items())

    for k in ks:
        if past():  # every check not finished is skipped
            return {n: out.get(n, {"ok": None, "skipped": "timeout"}) for n in names}
        hand(live, _Slice(group, k))  # drops slice k - 1 before any part of k is built
    return {n: out[n] if n in out else live[n].report() for n in names}


def _record(fn, *args):
    """fn(*args), or the record of a check skipped for a cap hit."""
    try:
        return fn(*args)
    except (ResourceError, DomainError) as exc:
        return {"ok": None, "skipped": str(exc)}


class _Check:
    """One check of a run: `step` reads each slice handed to it, by
    increasing k, and `report` gives the check's record."""

    conjecture = False
    key = "per_k"

    def __init__(self, group):
        self.group, self.rows = group, []

    def step(self, s):
        self.rows.append(self.row(s))

    def report(self):
        if self.conjecture:
            return {"ok": True, "conjecture": True, self.key: self.rows}
        return {"ok": all(r["ok"] for r in self.rows), self.key: self.rows}


class _Graded(_Check):
    count = cut = 0  # over the T_k slices or every order ideal; rows: failures

    def step(self, s):
        group, X, poset, failures = self.group, s.x_set, s.intermediate, self.rows
        ball, left, length = group.ball, group.ball.left, group.length
        self.count += 1
        J = frozenset(t for t in ball.matrix.generators
                      if ball.right[ball.identity][t] in X)
        rank, minreps = group.graded(J)
        # the nodes are the ball ids 0..n-1, so the covers are id pairs
        bad = [c for c in poset.covers if rank[c[1]] - rank[c[0]] != 1]
        if bad:
            failures.append({"X_size": len(X), "bad_covers": bad[:5]})
        gaps = bad if rank is length else [
            c for c in poset.covers if length[c[1]] - length[c[0]] != 1]
        if gaps:
            failures.append({"X_size": len(X), "length_gap_cover": list(gaps[0])})
        comps = poset.components()
        if len(comps) != minreps:
            failures.append({"X_size": len(X), "components": len(comps),
                             "expected": minreps})
            return
        whole = comps
        if not ball.is_complete_group:
            # a coset the radius cuts off is no copy of W_J; only whole
            # ones are compared
            whole = [c for c in comps if not any(
                left[w][t] == BOUNDARY for w in c for t in J)]
            self.cut += len(comps) - len(whole)
        if len(whole) > 1 and not _components_isomorphic(ball, poset, whole):
            failures.append({"X_size": len(X), "non_isomorphic_component": True})

    def report(self):
        report = {"ok": not self.rows, "ideals_checked": self.count,
                  "failures": self.rows}
        if not self.group.ball.is_complete_group:
            report["cut_components"] = self.cut
        return report


def _components_isomorphic(ball, poset, comps):
    """Whether each of the given components of an intermediate poset
    (nodes: the ball ids) is isomorphic to the first, the identity's.

    Components of different sizes or cover counts are not.  Component c
    is first tried with x -> x m, m its element of least length, walked
    down the right table: a map that is one to one into c and takes
    each cover of the first component to a cover (ids i n + j, one set
    for the poset) maps the covers onto c's, so it is an isomorphism.
    When X lies in W_J the components are the cosets W_J m, and l(u m) =
    l(u) + l(m) takes each arc a -> t a to a m -> t a m; but the verdict
    is the check's, and where the map is no isomorphism, or leaves the
    ball, the search decides.
    """
    n = poset.n
    cover_ids = {i * n + j for i, j in poset.covers}
    where = {x: c for c, comp in enumerate(comps) for x in comp}
    count = [0] * len(comps)
    base = []  # the covers of the first component
    for i, j in poset.covers:
        c = where.get(i)
        if c is not None:
            count[c] += 1
            if c == 0:
                base.append((i, j))
    for c in range(1, len(comps)):
        if len(comps[c]) != len(comps[0]) or count[c] != count[0]:
            return False
        m = min(comps[c], key=ball.length)
        image = dict(zip(comps[0], _times(ball, comps[0], m)))
        if (all(where.get(y) == c for y in image.values())
                and len(set(image.values())) == len(image)
                and all(image[i] * n + image[j] in cover_ids for i, j in base)):
            continue
        if not posets.poset_isomorphic(poset.subposet(comps[0]),
                                       poset.subposet(comps[c]))[0]:
            return False
    return True


def _times(ball, xs, m):
    """x m for each x in xs, walked down the right table along the word
    of m; BOUNDARY where a walk leaves the ball."""
    right, word, out = ball.right, ball.words[m], []
    for x in xs:
        for s in word:
            x = right[x][s]
            if x == BOUNDARY:
                break
        out.append(x)
    return out


class _Projections(_Check):
    # over the T_k slices or every order ideal (cut: none, kept as graded's
    # for the ideals passed over); rows: failures
    count = cut = 0

    def step(self, s):
        group = self.group
        gens = list(group.ball.matrix.generators)
        for r in range(len(gens) + 1):
            for J in combinations(gens, r):
                self.count += 1
                if r == 0:
                    continue  # the identity preserves every order
                if r == 1:
                    rep = s.single(J[0])
                elif all(s.single(t).ok for t in J) and group.composite(J):
                    continue  # a composite of maps that preserve the order
                else:
                    rep = projections.is_order_preserving(
                        group.projection(J, "P"), s.intermediate)
                if not rep.ok:
                    self.rows.append({"X_size": len(s.x_set), "J": list(J),
                                      "violations": rep.violations[:5]})

    def report(self):
        return {"ok": not self.rows, "maps_checked": self.count,
                "failures": self.rows}


class _Refinement(_Check):
    k_max = -1  # the last slice handed over; the chain is decided at the end

    def step(self, s):
        # the chain reads X_0..X_k, so the first incomplete one raises now,
        # before a later check's step reads a later slice
        for k in range(self.k_max + 1, s.k + 1):
            reflections.t_k_set(self.group.table, k)
        self.k_max = s.k

    def report(self):
        group = self.group
        rep = orders.refinement_chain_check(group.table, self.k_max, group.bruhat)
        return {"ok": rep.ok,
                "containments": [[str(a), str(b), ok] for a, b, ok in rep.containments],
                "equals_bruhat_at": rep.equals_bruhat_at}


class _Sperner(_Check):
    weaker = None  # the first slice the flows found strongly Sperner

    def row(self, s):
        poset = s.intermediate
        rep = posets.strong_sperner_check(poset, weaker=self.weaker)
        if rep.ok and self.weaker is None:
            self.weaker = poset
        return {"k": s.k, "ok": rep.ok,
                "rows": [[r.h, r.flow_value, r.top_rank_sum, r.ok] for r in rep.rows]}


class _Phi(_Check):
    def row(self, s):
        ball, gens = self.group.ball, self.group.ball.matrix.generators
        maps = [self.group.projection(tuple(t for t in gens if t != i), "P")
                for i in gens]
        name = ball.matrix.name or ""
        image = projections.phi_k_image_poset(ball, s.intermediate, maps)
        graded = posets.is_graded(image)
        row = {"k": s.k, "image_size": image.n, "graded": graded, "ok": True}
        if name.startswith("A"):
            # the candidate is phi itself, from the Bruhat order onto
            # its image; the search decides only where it fails
            bruhat = self.group.bruhat
            phi = {w: tuple(m(w) for m in maps) for w in bruhat.nodes}
            iso = (posets.is_isomorphism(bruhat, image, phi)
                   or posets.poset_isomorphic(image, bruhat)[0])
            row["isomorphic_to_bruhat"] = row["ok"] = iso
        elif name == "B3" and s.k == 0:
            row["ok"] = not graded  # the expected negative
        return row  # elsewhere informational


class _Monoid(_Check):
    @cached_property
    def monoid(self):
        # the closure does not depend on k; order preservation is decided
        # on the generators: they are members, and composites of
        # order-preserving maps preserve order
        gens = [self.group.projection((s,), "P")
                for s in self.group.ball.matrix.generators]
        return projections.projection_monoid(self.group.ball, gens)

    def row(self, s):
        rep = self.monoid
        preserving = all(s.single(t).ok for t in self.group.ball.matrix.generators)
        good = (rep.size == len(self.group.ball) and rep.idempotent
                and rep.braid_ok and preserving)
        return {"k": s.k, "size": rep.size, "idempotent": rep.idempotent,
                "braid_ok": rep.braid_ok, "order_preserving": preserving,
                "ok": good}


class _Logconcave(_Check):
    conjecture = True

    def row(self, s):
        poly = polynomials.gen_poly(s.absolute_length)
        return {"k": s.k, "coeffs": list(poly.coeffs),
                "log_concave": polynomials.is_log_concave(poly),
                "unimodal": polynomials.is_unimodal(poly)}


class _Shellability(_Check):
    conjecture = True
    key = "intervals"

    # n! products: once per run
    coxeter_elements = cached_property(lambda c: c.group.ball.coxeter_elements())

    def step(self, s):
        group, ball, cox = self.group, self.group.ball, self.coxeter_elements
        absol = orders.k_absolute_poset(s.absolute_length)
        autos = group.automorphisms
        for flavor, poset, maps in (
                ("intermediate", s.intermediate, autos),
                ("absolute", absol, autos + group.conjugations(s.absolute_length.lk))):
            first = _classes(cox, maps)
            decided = {}  # first member of a class -> its status, None if not above e
            for c in cox:  # each class searched member by member until one decides
                if first[c] in decided:
                    continue
                try:
                    open_interval = posets.order_complex(poset, ball.identity, c)
                except DomainError:
                    decided[first[c]] = None  # c is not above e in this order
                    continue
                status = posets.shellability(open_interval).status
                if status != "inconclusive":  # another numbering may decide it
                    decided[first[c]] = status
            for c in cox:
                status = decided.get(first[c], "inconclusive")
                if status is not None:
                    self.rows.append({"k": s.k, "order": flavor,
                                      "coxeter_element": list(ball.word(c)),
                                      "status": status})


def _classes(elements, maps):
    """{x: the first of `elements` in the orbit of x} for every x in the
    orbits of `elements` under the permutations `maps` (lists of ids);
    an orbit may pass through ids that are not in `elements`."""
    first = {}
    for c in elements:
        if c not in first:
            first[c], todo = c, [c]
            while todo:
                x = todo.pop()
                for phi in maps:
                    if phi[x] not in first:
                        first[phi[x]] = c
                        todo.append(phi[x])
    return first


class _Curvature(_Check):
    conjecture = True

    def row(self, s):
        rep = curvature.curvature_spectrum(orders.omega_graph(s.ball, s.x_set))
        lo, hi = rep.kappa_min(), rep.kappa_max()  # None if every edge is skipped
        return {"k": s.k, "edges": rep.edge_count(), "skipped": len(rep.errors),
                "kappa_min": None if lo is None else str(lo),
                "kappa_max": None if hi is None else str(hi)}


_CHECKS = {c.__name__[1:].lower(): c for c in (
    _Graded, _Projections, _Refinement, _Sperner, _Phi, _Monoid, _Logconcave,
    _Shellability, _Curvature)}
