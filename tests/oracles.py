"""Independent brute-force oracles used to validate the library's
optimized algorithms.  Everything here is deliberately naive: small
search spaces, no shared code with the implementations under test.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, permutations

from coxkit import checks
from coxkit.ball import BOUNDARY, GroupBall
from coxkit.errors import DomainError, OutOfBallError
from coxkit.orders import intermediate_poset, k_absolute_length_all, k_absolute_poset
from coxkit.posets import Poset, order_complex, order_ideals, shellability
from coxkit.reflections import (dihedral_subgroup, max_k, reflections_in_ball,
                                t_k_set, t_order_poset)


# -- words and Bruhat order ---------------------------------------------------


def perm_of_word(word, n):
    """One-line notation of a type-A word (letter c swaps positions
    c, c+1, applied left to right)."""
    v = list(range(1, n + 1))
    for c in word:
        v[c], v[c + 1] = v[c + 1], v[c]
    return tuple(v)


def _braid_moves(matrix, w):
    """Every word one braid move away from the tuple w: a factor
    a b a ... of length m(a, b) turned into b a b ..."""
    for i in range(len(w) - 1):
        a, b = w[i], w[i + 1]
        m = matrix.m(a, b)
        if m < 2 or i + m > len(w):
            continue
        if all(w[i + j] == (a, b)[j % 2] for j in range(m)):
            yield w[:i] + tuple((b, a)[j % 2] for j in range(m)) + w[i + m:]


def braid_class(matrix, word):
    """Every word reachable from `word` by braid moves, by brute DFS,
    yielded as it is found."""
    start = tuple(word)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        yield w
        for nb in _braid_moves(matrix, w):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)


def braid_reduce(matrix, word):
    """A reduced word of the element of `word`: while some word of the
    braid class has two equal adjacent letters, delete them (a word is
    reduced iff no such word exists; Tits' solution of the word
    problem, Bjorner-Brenti 3.3)."""
    w = tuple(word)
    while True:
        for v in braid_class(matrix, w):
            i = next((i for i in range(len(v) - 1) if v[i] == v[i + 1]), None)
            if i is not None:
                w = v[:i] + v[i + 2:]
                break
        else:
            return w


def all_reduced_words(matrix, word):
    """Every reduced word of the element of `word`: the braid class of
    one reduced word (Matsumoto's theorem)."""
    return set(braid_class(matrix, braid_reduce(matrix, word)))


def braid_normal_form(matrix, word):
    """ShortLex-least reduced word of the element of `word`."""
    return min(all_reduced_words(matrix, word))


def bruhat_subword_leq(ball, u, v):
    """Subword characterization: u <= v iff some subsequence of a fixed
    reduced word of v is a word for u."""
    wu = ball.word(u)
    wv = ball.word(v)
    if len(wu) > len(wv):
        return False
    matrix = ball.matrix
    target = tuple(wu)
    for r in range(len(wu), len(wu) + 1):
        for idx in combinations(range(len(wv)), r):
            sub = [wv[i] for i in idx]
            if braid_normal_form(matrix, sub) == target:
                return True
    return False


# -- posets -------------------------------------------------------------------


def brute_closure(n, pairs):
    """Strict transitive closure of a relation on range(n), by
    repeating the composition step until nothing new appears.  Each
    step joins the pairs through an index of the successors of each
    element."""
    less = {(i, j) for i, j in pairs if i != j}
    while True:
        succ = {}
        for j, k in less:
            succ.setdefault(j, []).append(k)
        more = {(i, k) for i, j in less for k in succ.get(j, ())} - less
        if not more:
            return less
        less |= more


def brute_covers(less):
    """Cover pairs of a strict order given as the full set of pairs
    (i, j) with i < j: i is covered by j iff no k lies strictly
    between them."""
    above, below = {}, {}
    for i, j in less:
        above.setdefault(i, set()).add(j)
        below.setdefault(j, set()).add(i)
    return {(i, j) for i, j in less if not above[i] & below[j]}


def t_k_word_metric(ball, tk):
    """Distance from the identity in the undirected Cayley graph whose
    edges join x and t*x for t in tk, by breadth-first search."""
    dist = [None] * len(ball)
    dist[ball.identity] = 0
    frontier = [ball.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for t in tk:
                for y in (ball.multiply(t, x), ball.multiply(ball.inverse(t), x)):
                    if dist[y] is None:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
        frontier = nxt
    return dist


def brute_k_absolute_covers(ball, tk):
    """Covers of the k-absolute order taken from its definition, u < v
    iff lk(v) = lk(u) + lk(v u^-1) with lk the word metric of tk, tested
    on every pair of a complete group."""
    lk = t_k_word_metric(ball, tk)
    n = len(ball)
    less = {(u, v) for u in range(n) for v in range(n)
            if u != v and lk[v] == lk[u] + lk[ball.multiply(v, ball.inverse(u))]}
    return brute_covers(less)


def brute_k_absolute_pairs(ball, lk):
    """(pairs, flagged) of the k-absolute order on a ball by its
    definition: every pair u != v with lk(v) = lk(u) + lk(v u^-1), the
    product taken with `ball.multiply`, and the number of pairs whose
    product the ball cannot certify (on a truncated ball, those with
    l(u) + l(v) > radius), tested pair by pair over all n^2 pairs."""
    n = len(ball)
    pairs = []
    flagged = 0
    for u in range(n):
        iu = ball.inverse(u)
        for v in range(n):
            if u == v:
                continue
            if (not ball.is_complete_group
                    and ball.length(u) + ball.length(v) > ball.radius):
                flagged += 1
                continue
            try:
                d = ball.multiply(v, iu)
            except OutOfBallError:
                flagged += 1
                continue
            if lk[v] == lk[u] + lk[d]:
                pairs.append((u, v))
    return pairs, flagged


def brute_omega_graph(ball, x_set):
    """(arcs, boundary_skips) of the arc graph by its definition: for
    every t in the set and every a in the ball, the product t*a taken
    with `ball.multiply`; an arc (a, t*a, t) when length rises, a skip
    when the product leaves the ball."""
    arcs = []
    skips = 0
    for t in sorted(x_set):
        for a in range(len(ball)):
            try:
                b = ball.multiply(t, a)
            except OutOfBallError:
                skips += 1
                continue
            if ball.length(b) > ball.length(a):
                arcs.append((a, b, t))
    return sorted(arcs), skips


def refinement_by_relation_pairs(intermediate, bruhat):
    """(ok, containments, equals_bruhat_at) of the refinement chain,
    with every order materialized as its set of strict label pairs:
    intermediate[a] inside intermediate[a + 1], the last inside Bruhat,
    and the first k whose order equals Bruhat."""
    rels = [p.relation_pairs() for p in intermediate]
    top = bruhat.relation_pairs()
    k_max = len(rels) - 1
    rows = [(a, a + 1, rels[a] <= rels[a + 1]) for a in range(k_max)]
    rows.append((k_max, "bruhat", rels[k_max] <= top))
    equals_at = next((k for k, rel in enumerate(rels) if rel == top), None)
    return all(holds for _a, _b, holds in rows), rows, equals_at


def brute_is_meet_semilattice(poset):
    """Whether every pair of nodes has a greatest lower bound: for each
    pair, the common lower set must have exactly one maximal element."""
    n = poset.n
    up, down = poset.up, poset.down
    for i in range(n):
        for j in range(i + 1, n):
            common = down[i] & down[j]
            if not common:
                return False
            top = None
            m = common
            while m:
                x = (m & -m).bit_length() - 1
                m &= m - 1
                if up[x] & common == 1 << x:
                    if top is not None:
                        return False
                    top = x
            if top is None:
                return False
    return True


def brute_max_h_family(poset, h):
    """Largest union of h antichains = largest subset with no chain of
    h+1 elements, by include/exclude search with a simple bound."""
    order = poset.topological_order()
    n = poset.n
    down = poset.down
    best = [0]
    level = {}

    def rec(k, size):
        if size + (n - k) <= best[0]:
            return
        if k == n:
            best[0] = max(best[0], size)
            return
        x = order[k]
        lvl = 1
        for y, ly in level.items():
            if down[x] >> y & 1 and x != y and ly + 1 > lvl:
                lvl = ly + 1
        if lvl <= h:
            level[x] = lvl
            rec(k + 1, size + 1)
            del level[x]
        rec(k + 1, size)

    rec(0, 0)
    return best[0]


def is_antichain(poset, indices):
    """Whether no two of the given node indices are comparable."""
    return not any(poset.leq(a, b) or poset.leq(b, a)
                   for a, b in combinations(indices, 2))


def maximal_chains(poset):
    """All maximal chains of the poset, as lists of indices: the cover
    paths from minimal to maximal elements, read off `poset.covers`,
    found by a depth-first search that takes the last path on its stack
    first and pushes upper covers by increasing index."""
    ups = [[] for _ in range(poset.n)]
    for i, j in poset.covers:
        ups[i].append(j)
    covered = {j for _i, j in poset.covers}
    out = []
    stack = [[x] for x in range(poset.n) if x not in covered]
    while stack:
        chain = stack.pop()
        if ups[chain[-1]]:
            stack.extend(chain + [y] for y in ups[chain[-1]])
        else:
            out.append(chain)
    return out


def is_union_of_h_antichains(poset, families, h):
    if len(families) > h:
        return False
    seen = set()
    for fam in families:
        idx = [poset.index(x) for x in fam]
        if set(idx) & seen:
            return False
        seen.update(idx)
        if not is_antichain(poset, idx):
            return False
    return True


def is_shelling_order(facets):
    """Bjorner-Wachs condition checked literally on an ordered facet
    list."""
    for i in range(1, len(facets)):
        f = facets[i]
        boundary = set()
        ok = True
        for g in facets[:i]:
            x = f & g
            if len(x) == len(f):
                return False
            boundary.add(frozenset(x))
        walls = [x for x in boundary if len(x) == len(f) - 1]
        if not walls:
            ok = False
        for x in boundary:
            if not any(x <= w for w in walls):
                ok = False
        if not ok:
            return False
    return True


def reference_order_complex(poset, u, v):
    """(vertices, facets) of the order complex of the open interval
    (u, v), by the route `posets.order_complex` took before it read the
    interval off the covers: the closed interval [u, v] as an induced
    subposet (from up- and down-set bitmasks; DomainError unless u <= v),
    its bottom and top removed, and the facets as the maximal chains of
    the rest, read off its covers."""
    interval = poset.interval(u, v)
    up, down = interval.up, interval.down
    inner = interval.subposet([i for i in range(interval.n)
                               if up[i] != 1 << i and down[i] != 1 << i])
    return inner.nodes, [frozenset(inner.nodes[i] for i in chain)
                         for chain in maximal_chains(inner)]


def brute_shellable(facets):
    """Exhaustive search over all facet orderings (use only for <= 8
    facets)."""
    facets = list(dict.fromkeys(facets))
    if len(facets) <= 1:
        return True
    return any(is_shelling_order(list(p)) for p in permutations(facets))


def reference_shellability(facets, node_budget=500_000):
    """(status, order) of a shelling search on frozensets: the depth-first
    search over facet orders that `posets.shellability` makes, with the
    same root order, node count and budget, kept as the reference for
    its bitmask form.  status is "shellable", "not_shellable" or
    "inconclusive"; order is a facet list or None."""
    facets = list(dict.fromkeys(facets))
    m = len(facets)
    if m <= 1:
        return "shellable", facets

    def can_add(f, used):
        ff = facets[f]
        want = len(ff) - 1
        walls = []
        others = []
        for g in used:
            x = ff & facets[g]
            if len(x) == len(ff):
                return False
            if len(x) == want:
                walls.append(x)
            else:
                others.append(x)
        if not walls:
            return False
        return all(any(x <= w for w in walls) for x in others)

    class OutOfBudget(Exception):
        pass

    dead = set()
    nodes = 0

    def search(first):
        nonlocal nodes
        used, used_set = [first], {first}
        stack = []
        while True:
            if len(used) == m:
                return used
            if frozenset(used_set) in dead:
                if not stack:
                    return None
                used_set.remove(used.pop())
            else:
                nodes += 1
                if nodes > node_budget:
                    raise OutOfBudget
                stack.append(0)
            while True:
                f = next((g for g in range(stack[-1], m)
                          if g not in used_set and can_add(g, used)), None)
                if f is not None:
                    stack[-1] = f + 1
                    used.append(f)
                    used_set.add(f)
                    break
                stack.pop()
                dead.add(frozenset(used_set))
                if not stack:
                    return None
                used_set.remove(used.pop())

    try:
        for first in sorted(range(m), key=lambda f: -len(facets[f])):
            order = search(first)
            if order is not None:
                return "shellable", [facets[i] for i in order]
    except OutOfBudget:
        return "inconclusive", None
    return "not_shellable", None


def reference_shelling_tables(facets):
    """(rows, near) of `posets._shelling_tables` for distinct facets, by
    the vertex holds alone: for each vertex v of F, the facets that hold
    every other vertex of F and not v (the AND of the prefix and the
    suffix of F's holds around v, less holds[v]), and near as the
    transpose of the unions of the rows, whether or not the complex is
    pure."""
    m = len(facets)
    vertex = {}
    members = [[vertex.setdefault(v, len(vertex)) for v in f] for f in facets]
    holds = [0] * len(vertex)
    for f, vs in enumerate(members):
        for v in vs:
            holds[v] |= 1 << f
    rows = []
    every = (1 << m) - 1
    for vs in members:
        hs = [holds[v] for v in vs]
        prefix = list(accumulate(hs[:-1], int.__and__, initial=every))
        suffix = list(accumulate(reversed(hs[1:]), int.__and__, initial=every))[::-1]
        rows.append([(pre & suf & ~h, h) for pre, suf, h in zip(prefix, suffix, hs)])
    near = [0] * m
    for f, row in enumerate(rows):
        adjacent = 0
        for across, _h in row:
            adjacent |= across
        for g in range(m):
            if adjacent >> g & 1:
                near[g] |= 1 << f
    return rows, near


# -- optimal transport --------------------------------------------------------


def brute_w1(p, q, costs):
    """Exact W1 between uniform measures on supports of sizes p and q,
    by enumerating every integer transportation plan at the common
    denominator.  costs[i][j] is the ground distance."""
    from math import lcm
    scale = lcm(p, q)
    row = scale // p
    col = scale // q
    best = [None]

    remaining_cols = [col] * q

    def rec(i, acc):
        if best[0] is not None and acc >= best[0]:
            return
        if i == p:
            best[0] = acc
            return
        # distribute `row` units of mass from source i over the sinks
        def spread(j, left, add):
            if best[0] is not None and acc + add >= best[0]:
                return
            if j == q:
                if left == 0:
                    rec(i + 1, acc + add)
                return
            top = min(left, remaining_cols[j])
            for x in range(top + 1):
                remaining_cols[j] -= x
                spread(j + 1, left - x, add + x * costs[i][j])
                remaining_cols[j] += x

        spread(0, row, 0)

    rec(0, 0)
    return Fraction(best[0], scale)


# -- reflection order ---------------------------------------------------------


def brute_reflections(ball):
    """Every w s w^-1 with 2 l(w) + 1 <= radius, multiplied out over the
    half ball, sorted: a reflection of length 2k + 1 has a palindromic
    reduced word, so it is w s w^-1 with w its first k letters."""
    gen_ids = [ball.right[ball.identity][s] for s in ball.matrix.generators]
    out = set()
    for w in range(len(ball)):
        if 2 * ball.length(w) + 1 > ball.radius:
            continue
        w_inv = ball.inverse(w)
        for g in gen_ids:
            out.add(ball.multiply(ball.multiply(w, g), w_inv))
    return tuple(sorted(out))


def brute_t_order_pairs(table):
    """Label pairs (a, b) with a below b in the dihedral reflection
    subgroup <t, t'> of some pair of reflections, by sweeping every pair:
    a and b are reflections of it with a internally shorter.  The
    subgroups come from `dihedral_subgroup`, which is checked on its own
    against the N-criterion in test_reflections."""
    ball = table.ball
    less = set()
    for t, tp in combinations(table.reflections, 2):
        sub = dihedral_subgroup(ball, t, tp)
        il = sub.internal_length
        less |= {(a, b) for a in sub.reflection_ids for b in sub.reflection_ids
                 if il[a] < il[b]}
    return less


def reference_t_order_poset(table, restrict_to=None):
    """The reflection order by the sweep with no pair skipped by its
    conjugates: every pair (t, t') by (length, id) that no swept
    subgroup holds goes through `dihedral_subgroup`."""
    ball = table.ball
    nodes = list(table.reflections) if restrict_to is None else sorted(restrict_to)
    pos = {t: i for i, t in enumerate(nodes)}
    order = sorted(table.reflections, key=lambda t: (ball.length(t), t))
    bit = {t: 1 << i for i, t in enumerate(order)}
    seen = dict.fromkeys(order, 0)
    pairs = set()
    for i, t in enumerate(order):
        for tp in order[i + 1:]:
            if seen[t] & bit[tp]:
                continue
            sub = dihedral_subgroup(ball, t, tp)
            met = sum(bit[r] for r in sub.reflection_ids)
            for r in sub.reflection_ids:
                seen[r] |= met
            il = sub.reflection_lengths
            pairs |= {(pos[a], pos[b]) for a in sub.reflection_ids
                      for b in sub.reflection_ids
                      if a in pos and b in pos and il[b] > il[a]}
    return Poset.from_relation(
        nodes, sorted(pairs), rank=None,
        metadata={"kind": "reflection-order", "radius": ball.radius})


def omega_distance_in_dihedral(sub, t, tp):
    """Directed distance t -> t' in the Bruhat graph of a dihedral
    reflection subgroup (arcs a -> ra for subgroup reflections r that
    increase internal length), by BFS; None if unreachable.  Cross-check
    for the internal-length criterion of the reflection order."""
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


# -- arc rows -----------------------------------------------------------------


def reference_arc_row(ball, t):
    """(row, skips) for row[a] = t*a, built one step at a time: with s
    the last letter of a's ShortLex word, t*a = (t*(a s)) s, the ids
    visited by length, each step a right-table lookup or `_times`
    beyond the radius; an entry is BOUNDARY once l(t*a) + l(a) > 2
    radius, and every entry outside the ball is one skip."""
    n = len(ball)
    skips = 0
    row = [BOUNDARY] * n
    row[ball.identity] = t
    for a in sorted(range(1, n), key=ball.length):
        s = ball.word(a)[-1]
        x = row[ball.right[a][s]]
        if x == BOUNDARY:
            skips += 1
            continue
        b = ball._times(x, s)
        if b >= n:
            skips += 1
            if ball._length(b) + ball.length(a) > 2 * ball.radius:
                b = BOUNDARY
        row[a] = b
    return [BOUNDARY if b >= n else b for b in row], skips


# -- products beyond the radius -----------------------------------------------


def reference_walk(ball, x, letters, limit):
    """x times the letters by the first loop of `GroupBall._walk`: each
    letter is one `_times` step, and the walk stops after a step that
    leaves the letters still to come unable to bring the product down to
    length <= limit; None then."""
    todo = len(letters)
    for letter in letters:
        x = ball._times(x, letter)
        todo -= 1
        if ball._length(x) - todo > limit:
            return None
    return x


def reference_multiply(ball, u, v):
    """u*v by the left walk of u's letters from v; where it leaves the
    table, `reference_walk` from u over v's letters.  None beyond the
    radius."""
    x = v
    for letter in reversed(ball.word(u)):
        x = ball.left[x][letter]
        if x == BOUNDARY:
            return reference_walk(ball, u, ball.word(v), ball.radius)
    return x


def reference_dihedral_subgroup(ball, t, tp):
    """(members, internal lengths, canonical pair, escaped) of <t, t'>
    for two distinct reflections, descent first: conjugate b to aba, or
    a to bab, while that shortens it (each conjugate walked by
    `reference_walk`); on a matrix with a finite bond outside {2, 3, 4,
    6}, walk a, b, a, ... for 2M steps and take the two shortest
    reflections of a cycle back to e; then the BFS over right
    multiplication by that pair, with `reference_multiply`."""
    a, b = t, tp
    while True:
        c = reference_walk(ball, a, ball.word(b) + ball.word(a), ball.length(b) - 1)
        if c is not None:
            b = c
            continue
        c = reference_walk(ball, b, ball.word(a) + ball.word(b), ball.length(a) - 1)
        if c is None:
            break
        a = c
    matrix = ball.matrix
    bonds = {matrix.m(s, r) for s, r in combinations(matrix.generators, 2)
             if matrix.is_finite_bond(s, r)}
    pair = (a, b)
    if bonds - {2, 3, 4, 6}:
        x, cycle = ball.identity, []
        for i in range(2 * max(bonds)):
            for s in ball.word(pair[i % 2]):
                x = ball._times(x, s)
            if x == ball.identity:
                pair = cycle[::2]
                break
            cycle.append(x)
    x, y = sorted(pair, key=lambda r: (ball._length(r), r))[:2]
    internal = {ball.identity: 0}
    frontier = [ball.identity]
    escaped = False
    while frontier:
        nxt = []
        for w in frontier:
            for g in (x, y):
                z = reference_multiply(ball, w, g)
                if z is None:
                    escaped = True
                elif z not in internal:
                    internal[z] = internal[w] + 1
                    nxt.append(z)
        frontier = nxt
    return sorted(internal), internal, (x, y), escaped


# -- the per-letter ball engine -----------------------------------------------


def _reference_bonds(matrix):
    """For each s and each t finitely bonded to it: (t, the letters t, s,
    t, ... to strip, the word of length m(s, t) - 1 ending in s)."""
    def alternating(a, b, n):
        return tuple((a, b)[i % 2] for i in range(n))

    return [[(t, alternating(t, s, matrix.m(s, t) - 1),
              alternating(s, t, matrix.m(s, t) - 1)[::-1])
             for t in range(matrix.rank) if t != s and matrix.is_finite_bond(s, t)]
            for s in range(matrix.rank)]


def _reference_below(bonds, x, s, is_descent, times):
    """{t: z*t} over the right descents t of z = x*s, for s not a right
    descent of x, each letter stripped through the two closures."""
    below = {s: x}
    for t, strip, tail in bonds[s]:
        y = x
        for a in strip:
            if not is_descent(y, a):
                break
            y = times(y, a)
        else:
            for a in tail:
                y = times(y, a)
            below[t] = y
    return below


def reference_is_descent(ball, x, s):
    """Whether s is a right descent of x, in the ball or beyond it."""
    n = len(ball)
    if x >= n:
        return bool(ball._descents[x - n] >> s & 1)
    y = ball.right[x][s]
    return y != BOUNDARY and ball.length(y) < ball.length(x)


class ReferenceBall(GroupBall):
    """A GroupBall whose steps beyond the radius go letter by letter:
    each letter of a strip is one `reference_is_descent` test and one
    `_times` call, and `_shortlex` tests the generators in order for the
    smallest descent at every step.  `_walk`, `multiply` and the arc
    table reach these steps through `self`, so the same reads on a ball
    and on its `ReferenceBall` copy must leave the same state."""

    def __init__(self, *args):
        super().__init__(*args)
        self._bonds = _reference_bonds(self.matrix)

    def _times(self, x, s):
        n = len(self)
        if x < n:
            y = self.right[x][s]
            if y != BOUNDARY:
                return y
            z = self._rim.get((x, s))
        else:
            z = self._rows[x - n][s]
        if z is not None:
            return z
        below = _reference_below(self._bonds, x, s,
                                 lambda y, a: reference_is_descent(self, y, a),
                                 self._times)
        z = n + len(self._rows)
        row = [None] * self.matrix.rank
        for t, y in below.items():
            row[t] = y
        self._rows.append(row)
        self._lengths.append(self._length(x) + 1)
        self._descents.append(sum(1 << t for t in below))
        for t, y in below.items():  # z is y*t
            if y < n:
                self._rim[(y, t)] = z
            else:
                self._rows[y - n][t] = z
        return z

    def _shortlex(self, letters):
        x = self.identity
        for s in reversed(letters):
            x = self._times(x, s)
        peeled = []
        while x != self.identity:
            s = next(s for s in self.matrix.generators
                     if reference_is_descent(self, x, s))
            peeled.append(s)
            x = self._times(x, s)
        return bytes(peeled)


def reference_copy(ball):
    """A `ReferenceBall` with copies of the ball's tables (its ids kept)
    and nothing yet met beyond the radius."""
    return ReferenceBall(ball.matrix, ball.radius, list(ball.words), list(ball.lengths),
                         [list(r) for r in ball.right], [list(r) for r in ball.left],
                         list(ball.inv), ball.is_complete_group)


def reference_enumerate_ball(matrix, radius):
    """The ball of `enumerate_ball`, as a `ReferenceBall`, built level by
    level with each stripped letter read through the closures
    `is_descent` and `times`; the left table and inverses from the
    parents, and the ShortLex words from the smallest left descents."""
    rank = matrix.rank
    bonds = _reference_bonds(matrix)
    right, lengths, descents, parent = [[None] * rank], [0], [0], [(0, 0)]
    level = [0]

    def is_descent(y, a):
        return descents[y] >> a & 1

    def times(y, a):
        return right[y][a]

    complete = True
    for length in range(radius + 1):
        next_level = []
        for w in level:
            rw = right[w]
            for s in range(rank):
                if rw[s] is not None:
                    continue
                if length == radius:
                    rw[s] = BOUNDARY
                    complete = False
                    continue
                x = len(lengths)
                below = _reference_below(bonds, w, s, is_descent, times)
                row = [None] * rank
                for t, y in below.items():
                    row[t] = y
                    right[y][t] = x
                right.append(row)
                lengths.append(length + 1)
                descents.append(sum(1 << t for t in below))
                parent.append((w, s))
                next_level.append(x)
        level = next_level
        if not level:
            break
    n = len(lengths)
    left = [list(right[0])]
    inv = [0] * n
    for x in range(1, n):
        w, s = parent[x]
        left.append([right[y][s] for y in left[w]])
        inv[x] = left[inv[w]][s]
    words = [b""] * n
    for w in range(1, n):
        d = descents[inv[w]]
        s = (d & -d).bit_length() - 1
        words[w] = bytes((s,)) + words[left[w][s]]
    return ReferenceBall(matrix, radius, words, lengths, right, left, inv, complete)


# -- checks -------------------------------------------------------------------


def reference_ideal_records(ball, names):
    """The records of the named per-ideal checks ("graded",
    "projections") of `coxkit.checks` with every order ideal of the
    reflection order handed to each check in turn: no ideal is skipped
    as the image of another under an automorphism.  It shares the
    checks' own steps and stands in only for the loop of `run_checks`."""
    group = checks._Group(ball)
    live = [checks._CHECKS[name](group) for name in names]
    tpos = t_order_poset(group.table)
    for ideal in order_ideals(tpos):
        s = checks._Slice(group, None, frozenset(tpos.nodes[j] for j in ideal))
        for check in live:
            check.step(s)
    return {name: check.report() for name, check in zip(names, live)}


def reference_shellability_rows(ball):
    """The "intervals" of the `shellability` check with every Coxeter
    element c searched on its own: for each k, the intermediate and then
    the k-absolute order, a row per c above e with the status of
    [e, c], and no status passed from one interval to another."""
    table = reflections_in_ball(ball)
    rows = []
    for k in range(max_k(table) + 1):
        orders = (("intermediate", intermediate_poset(ball, t_k_set(table, k))),
                  ("absolute", k_absolute_poset(k_absolute_length_all(table, k))))
        for flavor, poset in orders:
            for c in ball.coxeter_elements():
                try:
                    interval = order_complex(poset, ball.identity, c)
                except DomainError:
                    continue
                rows.append({"k": k, "order": flavor,
                             "coxeter_element": list(ball.word(c)),
                             "status": shellability(interval).status})
    return rows
