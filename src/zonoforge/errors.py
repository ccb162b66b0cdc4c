"""Exception types shared across the package.

InputError subclasses mark problems with user-supplied data (the CLI maps
them to exit code 2).  ConsistencyError marks a failed internal certificate:
the engine computed the same quantity two ways and got different answers,
which is a bug certificate, never a property of valid input.
"""

from __future__ import annotations


class ZonoforgeError(Exception):
    pass


class InputError(ZonoforgeError):
    pass


class ZeroColumn(InputError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"column {index} is the zero vector")


class RankDeficient(InputError):
    def __init__(self, rank: int, n: int):
        self.rank = rank
        super().__init__(f"configuration has rank {rank}, expected full rank {n}")


class BadB0(InputError):
    pass


class NotIndependent(InputError):
    def __init__(self, cols):
        self.cols = frozenset(cols)
        super().__init__(f"columns {sorted(self.cols)} are not independent")


class MissingB0(InputError):
    def __init__(self):
        super().__init__("this construction needs the basis-extension block b0")


class FamilyNotClosed(InputError):
    def __init__(self, member, missing):
        self.member = frozenset(member)
        self.missing = frozenset(missing)
        super().__init__(
            f"family is not closed: contains {sorted(self.member)} but not "
            f"{sorted(self.missing)} whose span is at least as large; "
            "pass the sets as seeds (iprime_closed=false) to close them"
        )


class ColoopInI(InputError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"column {index} is a coloop (removing it drops the rank); "
            "the semi-internal construction is undefined for such I"
        )


class NotSimple(InputError):
    def __init__(self, witness):
        self.witness = tuple(sorted(witness))
        super().__init__(
            f"arrangement is not simple: hyperplanes {list(self.witness)} meet "
            "in codimension smaller than their number"
        )


class DuplicatePoints(InputError):
    def __init__(self, point):
        super().__init__(f"point set contains a repeated point {point}")


class DimensionMismatch(InputError):
    pass


class UnknownBasis(InputError):
    def __init__(self, cols):
        super().__init__(f"{sorted(cols)} is not a basis of this arrangement's configuration")


class NoStabilization(ZonoforgeError):
    def __init__(self, cap: int, values: tuple, nvars: int, ngens: int):
        self.cap = cap
        self.values = tuple(values)
        self.nvars = nvars
        self.ngens = ngens
        super().__init__(
            f"quotient did not reach dimension 0 by degree {cap}: quotient "
            f"dimensions {list(self.values)} for {ngens} generators in {nvars} variables"
        )


class ConditionFails(ZonoforgeError):
    def __init__(self, witness):
        self.witness = frozenset(witness)
        super().__init__(
            f"normal-power condition fails with witness {sorted(self.witness)}"
        )


class ConsistencyError(ZonoforgeError):
    """Two independent routes to the same quantity disagreed."""
