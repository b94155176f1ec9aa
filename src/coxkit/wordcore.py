"""Free words: reduction, reducedness, ShortLex normal forms.

Words are sequences of generator indices, reduced or not.  They run on
the ball engine: a fresh radius-0 `GroupBall` follows the word beyond
its radius exactly, and `GroupBall._shortlex` reads off the ShortLex
word of its element.  The ball lives for one call, so memory does not
grow across calls on infinite groups.  Everything here is exact for
arbitrary Coxeter matrices, including infinite bonds.
"""
from __future__ import annotations

from .ball import enumerate_ball
from .matrices import CoxeterMatrix

IMPLEMENTATION = "pure"  # exported as coxkit.WORDCORE_IMPLEMENTATION


class ClosureBudgetError(RuntimeError):
    """No longer raised: free words have no budget since they run on the
    ball engine.  Kept for code that imports or catches it."""


class WordKernel:
    """ShortLex words of one Coxeter matrix; the free-word functions
    below go through `shortlex`."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix

    def shortlex(self, word: bytes) -> bytes:
        """ShortLex-least reduced word of the element of `word`."""
        return enumerate_ball(self.matrix, 0)._shortlex(word)


def normal_form(matrix: CoxeterMatrix, letters) -> tuple[int, ...]:
    """ShortLex-least reduced word of the element of `letters`."""
    letters = tuple(letters)
    for x in letters:
        if not 0 <= x < matrix.rank:
            raise ValueError(f"letter {x} out of range for rank {matrix.rank}")
    return tuple(WordKernel(matrix).shortlex(bytes(letters)))


def reduce_word(matrix: CoxeterMatrix, letters) -> tuple[int, ...]:
    """Some reduced word for the element represented by `letters`: its
    ShortLex word."""
    return normal_form(matrix, letters)


def is_reduced(matrix: CoxeterMatrix, letters) -> bool:
    """Whether `letters` is a reduced word, i.e. as long as its element
    (every step of the walk along it is an ascent)."""
    letters = tuple(letters)
    return len(normal_form(matrix, letters)) == len(letters)
