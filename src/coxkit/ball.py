"""Length-bounded balls of Coxeter groups.

A GroupBall holds every element of length <= radius, with ShortLex
normal forms, left/right Cayley tables (boundary marker -1), descent
sets and inverses.  One exact engine builds it for every Coxeter
matrix, from the Cayley table itself (see `enumerate_ball`).  Products
and words that leave the table are followed by the same integer rule
on elements beyond the radius, which the ball adds as it meets them.
The free-word functions of `coxkit.wordcore` run on this engine too,
from a radius-0 ball.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import OutOfBallError, ResourceError
from .matrices import INF, CoxeterMatrix

BOUNDARY = -1


class GroupBall:
    """`words`, `lengths` and `levels` are read by every layer itself: not to be mutated."""

    def __init__(self, matrix: CoxeterMatrix, radius: int, words, lengths, right,
                 left, inv, is_complete_group: bool):
        self.matrix = matrix
        self.radius = radius
        self.words: list[bytes] = words  # ShortLex-least reduced words
        self.lengths: list[int] = lengths
        self.right = right  # right[w][s] = id of w*s, or BOUNDARY
        self.left = left    # left[w][s]  = id of s*w, or BOUNDARY
        self.inv = inv
        self.is_complete_group = is_complete_group
        # elements beyond the radius met by lookups, with ids from
        # len(self) on: their right rows (None = not yet known),
        # lengths and right-descent masks; `_rim` holds w*s for the top
        # level's ascents
        self._bonds = _bonds(matrix.entries)
        self._rows: list[list] = []
        self._lengths: list[int] = []
        self._descents: list[int] = []
        self._rim: dict[tuple[int, int], int] = {}
        # the roots of the reflections, built on first use by
        # coxkit.reflections when every finite bond is 2, 3, 4 or 6
        self._roots = None
        self._sweep = None  # the conjugation sweep of coxkit.reflections._sweep
        self._arcs = None  # the ball's table of rows t*a (coxkit.orders.arc_table)

    # -- basic accessors ------------------------------------------------

    def __len__(self):
        return len(self.lengths)

    @property
    def identity(self) -> int:
        return 0

    def length(self, w: int) -> int:
        return self.lengths[w]

    def word(self, w: int) -> bytes:
        return self.words[w]

    @cached_property
    def levels(self) -> list[list[int]]:
        """levels[l]: the ids of length l, increasing; built on first read
        (a ball read from JSON may number its ids in any order).  It
        holds no int of its own: each id is the object the inverse table
        already holds, inv[inv[w]], so readers that keep ids share them."""
        inv = self.inv
        levels = [[] for _ in range(max(self.lengths) + 1)]
        for w, lw in enumerate(self.lengths):
            levels[lw].append(inv[inv[w]])
        return levels

    def id_of_word(self, letters) -> int:
        """Element id of an arbitrary word, if inside the ball."""
        letters = tuple(letters)
        rank = self.matrix.rank
        for letter in letters:
            if not 0 <= letter < rank:
                raise ValueError(f"letter {letter} out of range for rank {rank}")
        x = self.identity
        for i, letter in enumerate(letters):
            y = self.right[x][letter]
            if y == BOUNDARY:
                y = self._walk(x, letters[i:], self.radius)
                if y is None:
                    raise OutOfBallError(f"word {list(letters)} has length "
                                         f"> radius {self.radius}")
                return y
            x = y
        return x

    def left_descents(self, w: int) -> frozenset[int]:
        return self._descent_set(self.left[w], w)

    def right_descents(self, w: int) -> frozenset[int]:
        return self._descent_set(self.right[w], w)

    def _descent_set(self, row, w):
        lengths, n = self.lengths, self.lengths[w]
        return frozenset(s for s in self.matrix.generators
                         if row[s] != BOUNDARY and lengths[row[s]] < n)

    def rank_sizes(self) -> list[int]:
        return [len(level) for level in self.levels]

    # -- group operations -------------------------------------------------

    def multiply(self, u: int, v: int) -> int:
        """The element u*v, or OutOfBallError if its length exceeds the
        radius.

        The shorter word is walked: for l(u) <= l(v), u's letters down the
        left table from v, and a walk that leaves the table starts again
        with `_walk` from u (only right products are followed beyond the
        radius).  Otherwise v's letters go down the right table from u,
        and a walk that leaves it goes on with `_walk` from the partial
        product: u*v = (u v_1 ... v_i) v_(i+1) ... v_m."""
        words = self.words
        if self.lengths[u] <= self.lengths[v]:
            left = self.left
            x = v
            for letter in reversed(words[u]):
                x = left[x][letter]
                if x == BOUNDARY:
                    return self._walk_or_raise(u, words[v], u, v)
            return x
        right = self.right
        x = u
        letters = iter(words[v])
        for letter in letters:
            y = right[x][letter]
            if y == BOUNDARY:  # walk this letter and the ones still to come
                return self._walk_or_raise(x, bytes((letter, *letters)), u, v)
            x = y
        return x

    def _walk_or_raise(self, x: int, letters, u: int, v: int) -> int:
        x = self._walk(x, letters, self.radius)
        if x is None:
            raise OutOfBallError(f"product of elements {u}, {v} has length "
                                 f"> radius {self.radius}; enlarge the ball")
        return x

    # -- beyond the radius ----------------------------------------------------

    def _walk(self, x: int, letters, limit: int):
        """x times the letters, through elements beyond the radius where
        needed; None as soon as the letters still to come cannot bring the
        product down to length <= limit.

        With `todo` letters still to come after s, l(x s) - todo is the
        least length the product can end with, and it never falls: a
        descent lowers l by 1 and todo by 1, an ascent raises it by 2.  So
        the walk stops as soon as it passes the limit, and it stops before
        it creates: an ascent s with l(x) - todo >= limit would end past
        the limit, which the descent mask tells without a `_times` step,
        so no element beyond the radius is built only to be dropped.
        The verdict is the one of walking to the end, l(x * letters) >
        limit."""
        n = len(self.lengths)
        right, lengths = self.right, self.lengths
        rows, descents = self._rows, self._descents
        todo = len(letters)
        lx = self._length(x)
        if todo and lx - todo > limit:
            return None
        for s in letters:
            todo -= 1
            if x < n:
                y = right[x][s]
                if y != BOUNDARY:
                    ly = lengths[y]
                    if ly > lx and lx - todo >= limit:
                        return None
                    x, lx = y, ly
                    continue
            elif descents[x - n] >> s & 1:
                x = rows[x - n][s]
                lx -= 1
                continue
            # s is an ascent of x, and x*s lies beyond the radius
            if lx - todo >= limit:
                return None
            y = rows[x - n][s] if x >= n else None
            x = self._times(x, s) if y is None else y
            lx += 1
        return x

    def _length(self, x: int) -> int:
        n = len(self.lengths)
        return self.lengths[x] if x < n else self._lengths[x - n]

    def _times(self, x: int, s: int) -> int:
        """x*s for x in the ball or beyond it.  A new z = x*s is added as
        in `enumerate_ball`, from elements of smaller length: the {s, t}
        part of x is stripped by its descent test, written out in two
        branches (inside the ball, a right product that is shorter;
        beyond it, the kept descent mask), and only the tail letters,
        which climb back to z*t, take a `_times` step, the only step that
        can create an element."""
        n = len(self.lengths)
        right, rows = self.right, self._rows
        if x < n:
            y = right[x][s]
            if y != BOUNDARY:
                return y
            z = self._rim.get((x, s))
        else:
            z = rows[x - n][s]
        if z is not None:
            return z
        # z is new: had it been met before, it would have been linked from
        # every z*t with t a right descent, x included
        lengths, descents = self.lengths, self._descents
        lx = lengths[x] if x < n else self._lengths[x - n]
        below = [(s, x)]  # (t, z*t) over the right descents t of z
        for t, strip, tail in self._bonds[s]:
            y = x
            for a in strip:
                if y < n:
                    ya = right[y][a]
                    if ya == BOUNDARY or lengths[ya] > lengths[y]:
                        break
                elif descents[y - n] >> a & 1:
                    ya = rows[y - n][a]
                else:
                    break
                y = ya
            else:
                for a in tail:
                    y = self._times(y, a)
                below.append((t, y))
        z = n + len(rows)
        row = [None] * self.matrix.rank
        mask = 0
        for t, y in below:  # z is y*t
            row[t] = y
            mask |= 1 << t
            if y < n:
                self._rim[(y, t)] = z
            else:
                rows[y - n][t] = z
        rows.append(row)
        self._lengths.append(lx + 1)
        descents.append(mask)
        return z

    def _shortlex(self, letters) -> bytes:
        """ShortLex-least reduced word of the element of `letters`, any
        word over the generators: the reversed letters are walked to w^-1
        with `_times`, then the smallest right descent of w^-1, the lowest
        bit of its descent mask, is peeled off while w^-1 lies beyond the
        radius.  The peeled letters, in order, are the smallest left
        descents of w, w' = s*w, ...; once the walk is back in the ball
        at x, the rest is the ShortLex word of x^-1 (as in
        `enumerate_ball`)."""
        x = self.identity
        times = self._times
        for s in reversed(letters):
            x = times(x, s)
        n = len(self.lengths)
        rows, descents = self._rows, self._descents
        peeled = []
        while x >= n:
            d = descents[x - n]
            s = (d & -d).bit_length() - 1
            peeled.append(s)
            x = rows[x - n][s]
        return bytes(peeled) + self.words[self.inv[x]]

    def inverse(self, w: int) -> int:
        return self.inv[w]

    def bruhat_leq(self, u: int, v: int) -> bool:
        """Bruhat order, via the descent recursion u <= v iff
        (su <= sv if s in D_L(u) else u <= sv) for s in D_L(v); it is a
        tail call, so a loop of at most l(v) steps.  s is the smallest left
        descent of v, the first letter of its ShortLex word."""
        lengths, words, left = self.lengths, self.words, self.left
        while u != v:
            if lengths[u] >= lengths[v]:
                return False
            s = words[v][0]
            su = left[u][s]
            if lengths[su] < lengths[u]:
                u = su
            v = left[v][s]
        return True

    def coxeter_elements(self) -> list[int]:
        """Distinct products of all generators, each used once."""
        from itertools import permutations
        out = set()
        for order in permutations(self.matrix.generators):
            x = self.identity
            ok = True
            for s in reversed(order):
                x = self.left[x][s]
                if x == BOUNDARY:
                    ok = False
                    break
            if ok:
                out.add(x)
        return sorted(out)


# -- construction -------------------------------------------------------------


def _alternating(a: int, b: int, n: int) -> tuple[int, ...]:
    """The alternating word a b a ... of length n."""
    return tuple((a, b)[i % 2] for i in range(n))


@lru_cache(maxsize=64)
def _bonds(entries: tuple[tuple[int, ...], ...]):
    """For each s and each t finitely bonded to it: (t, the letters t, s,
    t, ... to strip, the word of length m(s, t) - 1 ending in s).  Built
    once per matrix (keyed on its entries) and shared by every ball of
    it, radius-0 balls of `coxkit.wordcore` included."""
    return tuple(tuple((t, _alternating(t, s, m - 1), _alternating(s, t, m - 1)[::-1])
                       for t, m in enumerate(row) if t != s and m != INF)
                 for s, row in enumerate(entries))


def enumerate_ball(matrix: CoxeterMatrix, radius: int,
                   cap: int = 2_000_000) -> GroupBall:
    """All elements of length <= radius, as a GroupBall.

    The right Cayley table is filled level by level, in integers only.
    When s is not a right descent of w, x = w*s is one level up, and
    for t != s with m = m(s, t) finite, t is a right descent of x iff
    the {s, t}-parabolic part of w (stripped off as alternating right
    descents t, s, t, ..., read off the descent masks and the right
    table) has length m - 1; then x*t = y * (s t ...) with y the
    stripped w and the alternating word of length m - 1 ending in s
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.3-2.4).  A new
    x is linked from every x*t at once, as its row and descent mask are
    filled, so a pair (w, s) whose product is already known is skipped.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    rank = matrix.rank
    bonds = _bonds(matrix.entries)
    right: list[list] = [[None] * rank]
    lengths = [0]
    descents = [0]  # bit t set iff t is a right descent
    parent = [(0, 0)]  # (w, s) with element = w*s
    level = [0]
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
                if x >= cap:
                    raise ResourceError(
                        f"element cap {cap} exceeded at length {length + 1} "
                        f"(partial size {x})")
                row = [None] * rank
                row[s] = w
                rw[s] = x
                mask = 1 << s
                for t, strip, tail in bonds[s]:
                    y = w
                    for a in strip:
                        if not descents[y] >> a & 1:
                            break
                        y = right[y][a]
                    else:
                        for a in tail:
                            y = right[y][a]
                        row[t] = y
                        right[y][t] = x
                        mask |= 1 << t
                right.append(row)
                lengths.append(length + 1)
                descents.append(mask)
                parent.append((w, s))
                next_level.append(x)
        level = next_level
        if not level:
            break
    # left rows and inverses in one pass over the ids: for x = w*s,
    # t*x = (t*w)*s and x^-1 = s*w^-1.  w and w^-1 are shorter than x, so
    # their rows come first (ids are sorted by length), and t*w is no
    # longer than x, so inside the ball
    n = len(lengths)
    left = [list(right[0])]
    inv = [0] * n
    for x in range(1, n):
        w, s = parent[x]
        left.append([right[y][s] for y in left[w]])
        inv[x] = left[inv[w]][s]
    # ShortLex normal form: smallest left descent first, recursively
    words = [b""] * n
    for w in range(1, n):  # ids are sorted by length
        d = descents[inv[w]]
        s = (d & -d).bit_length() - 1
        words[w] = bytes((s,)) + words[left[w][s]]
    return GroupBall(matrix, radius, words, lengths, right, left, inv, complete)

