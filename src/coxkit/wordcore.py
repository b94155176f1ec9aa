"""Word kernel: braid-move closure, reducedness, ShortLex normal forms.

Words are `bytes` over generator indices.  A word is reduced iff its
closure under braid moves contains no word with two equal adjacent
letters; two reduced words represent the same element iff their braid
closures coincide, so the ShortLex-least member of the closure is a
canonical form.  Everything here is exact for arbitrary Coxeter
matrices, including infinite bonds.

The kernel serves the free-word API (`reduce_word`, `normal_form`,
`is_reduced`); balls and their products do not use it.
"""
from __future__ import annotations

from collections import deque

IMPLEMENTATION = "pure"  # exported as coxkit.WORDCORE_IMPLEMENTATION


class ClosureBudgetError(RuntimeError):
    """Braid-closure exploration exceeded the configured word budget."""


def _adjacent_pair(word: bytes) -> int:
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return i
    return -1


class WordKernel:
    """Braid-move engine for one Coxeter matrix (entries 0 = infinite bond)."""

    def __init__(self, entries, budget: int = 100_000):
        self.entries = tuple(tuple(r) for r in entries)
        self.budget = budget
        # per ordered pair (a, b) with finite bond: alternating pattern and image
        self._pats = {}
        rank = len(self.entries)
        for a in range(rank):
            for b in range(rank):
                if a != b and self.entries[a][b] >= 2:
                    m = self.entries[a][b]
                    left = bytes((a, b)[i % 2] for i in range(m))
                    right = bytes((b, a)[i % 2] for i in range(m))
                    self._pats[a * rank + b] = (left, right)
        self._rank = rank

    def _scan(self, word: bytes):
        """Explore the braid closure of `word`.

        Returns ("pair", w) as soon as some braid-equivalent word w has
        an adjacent equal pair, or ("closed", seen) with the full
        closure if none exists (the word is then reduced).
        """
        pats = self._pats
        rank = self._rank
        budget = self.budget
        seen = {word}
        queue = deque((word,))
        while queue:
            w = queue.popleft()
            if _adjacent_pair(w) >= 0:
                return "pair", w
            n = len(w)
            for i in range(n - 1):
                pat = pats.get(w[i] * rank + w[i + 1])
                if pat is None:
                    continue
                left, right = pat
                m = len(left)
                if i + m <= n and w[i:i + m] == left:
                    nb = w[:i] + right + w[i + m:]
                    if nb not in seen:
                        if len(seen) >= budget:
                            raise ClosureBudgetError(
                                f"braid closure exceeded budget of {budget} words")
                        seen.add(nb)
                        queue.append(nb)
        return "closed", seen

    def is_reduced(self, word: bytes) -> bool:
        kind, _ = self._scan(bytes(word))
        return kind == "closed"

    def reduce(self, word: bytes) -> bytes:
        """Some reduced word representing the same element."""
        w = bytes(word)
        while True:
            kind, payload = self._scan(w)
            if kind == "closed":
                return w
            i = _adjacent_pair(payload)
            w = payload[:i] + payload[i + 2:]

    def shortlex(self, word: bytes) -> bytes:
        """ShortLex-least reduced word of the element of `word`."""
        w = self.reduce(word)
        _, seen = self._scan(w)
        return min(seen) if seen else b""
