"""Combinatorial models of the finite (and infinite dihedral) named types.

These give exact multiplication independent of the ball engine and of
word rewriting: permutations for type A, signed permutations for B/C,
even-signed permutations for D, and an explicit rotation/reflection
model for dihedral groups.  `model_ball` builds a ball from a model
alone, as the oracle the engine is compared with edge for edge.
`longest_first` renumbers a ball through its JSON form, for code that
must not assume ids in length order.
"""
from __future__ import annotations

import re

from coxkit.ball import BOUNDARY, GroupBall
from coxkit.matrices import CoxeterMatrix
from coxkit.serialize import ball_from_json_dict, ball_to_json_dict


class PermutationModel:
    """Type A_n as the symmetric group S_{n+1} in one-line notation
    (0-based tuples); generator j swaps positions j, j+1."""

    def __init__(self, rank: int):
        self.rank = rank
        self.n = rank + 1
        self.identity = tuple(range(self.n))
        self.gens = []
        for j in range(rank):
            g = list(range(self.n))
            g[j], g[j + 1] = g[j + 1], g[j]
            self.gens.append(tuple(g))
        self.order = 1
        for i in range(2, self.n + 1):
            self.order *= i

    def mult(self, u, v):
        return tuple(u[i] for i in v)

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u):
            out[x] = i
        return tuple(out)


class SignedPermutationModel:
    """Type B_n as signed permutations: tuples of the images of 1..n in
    {±1..±n}; generator 0 negates 1, generator j >= 1 swaps j, j+1."""

    def __init__(self, rank: int):
        self.rank = rank
        self.n = rank
        self.identity = tuple(range(1, self.n + 1))
        gens = []
        g0 = list(self.identity)
        g0[0] = -1
        gens.append(tuple(g0))
        for j in range(1, rank):
            g = list(self.identity)
            g[j - 1], g[j] = g[j], g[j - 1]
            gens.append(tuple(g))
        self.gens = gens
        self.order = 2 ** self.n
        for i in range(2, self.n + 1):
            self.order *= i

    def _apply(self, u, i):
        # image of the signed letter i under u
        return u[i - 1] if i > 0 else -u[-i - 1]

    def mult(self, u, v):
        return tuple(self._apply(u, v[i]) for i in range(self.n))

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u):
            if x > 0:
                out[x - 1] = i + 1
            else:
                out[-x - 1] = -(i + 1)
        return tuple(out)


class EvenSignedPermutationModel(SignedPermutationModel):
    """Type D_n: signed permutations with an even number of sign changes.
    Generator 0 maps 1 -> -2, 2 -> -1; generator j >= 1 swaps j, j+1."""

    def __init__(self, rank: int):
        super().__init__(rank)
        g0 = list(self.identity)
        g0[0], g0[1] = -2, -1
        self.gens[0] = tuple(g0)
        self.order //= 2


class DihedralModel:
    """I2(m) (m = 0 for the infinite dihedral group): elements (a, f)
    meaning rotation^a * reflection^f; generator 0 is the reflection
    (0, 1), generator 1 is (1, 1)."""

    def __init__(self, m: int):
        self.m = m  # 0 = infinity
        self.rank = 2
        self.identity = (0, 0)
        self.gens = [(0, 1), (1, 1)]
        self.order = None if m == 0 else 2 * m

    def _norm(self, a):
        return a % self.m if self.m else a

    def mult(self, u, v):
        a, f = u
        b, g = v
        return (self._norm(a + (-b if f else b)), f ^ g)

    def inv(self, u):
        a, f = u
        return u if f else (self._norm(-a), 0)


def model_for(matrix: CoxeterMatrix):
    """A combinatorial model for the matrix's named type, or None."""
    name = matrix.name
    if name is None:
        return None
    m = re.fullmatch(r"I2\((\d+|inf)\)", name)
    if m:
        return DihedralModel(0 if m.group(1) == "inf" else int(m.group(1)))
    m = re.fullmatch(r"([ABCD])(\d+)", name)
    if not m:
        return None
    letter, n = m.group(1), int(m.group(2))
    if letter == "A":
        return PermutationModel(n)
    if letter in ("B", "C"):
        return SignedPermutationModel(n)
    if letter == "D":
        return EvenSignedPermutationModel(n)
    return None


def model_ball(matrix: CoxeterMatrix, radius: int) -> GroupBall:
    """The ball of the given radius, found by breadth-first search in the
    matrix's model: ids in discovery order (level by level, then by
    generator), ShortLex words by smallest left descent first."""
    m = model_for(matrix)
    rank = matrix.rank
    to_model = [m.identity]
    from_model = {m.identity: 0}
    lengths = [0]
    right = [[None] * rank]
    level = [0]
    complete = True
    for length in range(radius + 1):
        next_level = []
        for w in level:
            for s in range(rank):
                if right[w][s] is not None:
                    continue
                if length == radius:
                    right[w][s] = BOUNDARY
                    complete = False
                    continue
                z = m.mult(to_model[w], m.gens[s])
                x = from_model.get(z)
                if x is None:
                    x = len(to_model)
                    to_model.append(z)
                    from_model[z] = x
                    lengths.append(length + 1)
                    right.append([None] * rank)
                    next_level.append(x)
                right[w][s] = x
                right[x][s] = w
        level = next_level
        if not level:
            break
    n = len(to_model)
    inv = [from_model[m.inv(x)] for x in to_model]
    left = [[BOUNDARY if right[inv[w]][s] == BOUNDARY else inv[right[inv[w]][s]]
             for s in range(rank)] for w in range(n)]
    words = [b""] * n
    for w in range(1, n):
        s = min(s for s in range(rank)
                if left[w][s] != BOUNDARY and lengths[left[w][s]] < lengths[w])
        words[w] = bytes([s]) + words[left[w][s]]
    return GroupBall(matrix, radius, words, lengths, right, left, inv, complete)


def longest_first(ball: GroupBall) -> GroupBall:
    """The ball read back from JSON with its ids renumbered so that the
    longest elements come first.  A ball read from JSON may number its
    elements in any order that keeps the identity at 0."""
    n = len(ball)
    new_id = [0] + list(range(n - 1, 0, -1))
    data = ball_to_json_dict(ball)
    data["elements"] = [dict(d, id=new_id[d["id"]]) for d in data["elements"]]
    cayley = [None] * n
    for w, row in enumerate(data["cayley"]):
        cayley[new_id[w]] = [x if x < 0 else new_id[x] for x in row]
    data["cayley"] = cayley
    return ball_from_json_dict(data)
