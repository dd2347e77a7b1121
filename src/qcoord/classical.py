"""Discrete probability: joint pmfs, Shannon quantities, typicality radii.

Joint pmfs are dense numpy tables over a handful of named variables
(alphabet-product size is capped, paper-scale alphabets are tiny).
All information quantities are in bits with 0 log 0 := 0.  Conditioning
is handled by marginalization inside the mutual-information helpers
rather than by a separate conditional-pmf type.  The typicality tests
themselves (type distances, type grids) live in ``protocol`` and
``sampling``; this module holds their radii and the continuity slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quantum import _Immutable

PMF_TOL = 1e-12
MAX_TABLE_ENTRIES = 1_000_000


class PmfError(ValueError):
    """Rejected input: malformed distribution or variable selection."""


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet with an ordered list of symbol ids."""

    name: str
    symbols: tuple

    def __init__(self, name: str, symbols: Sequence):
        symbols = tuple(symbols)
        if not symbols:
            raise PmfError(f"alphabet {name!r} is empty")
        if len(set(symbols)) != len(symbols):
            raise PmfError(f"alphabet {name!r} has duplicate symbols")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "symbols", symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise PmfError(f"symbol {symbol!r} not in alphabet {self.name!r}")


class JointPmf(_Immutable):
    """Dense joint distribution over one or more named variables."""

    __slots__ = ("variables", "table")

    def __init__(self, variables: Sequence[Alphabet], table):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise PmfError(f"duplicate variable names {names}")
        t = np.asarray(table, dtype=float)
        shape = tuple(v.size for v in variables)
        if t.shape != shape:
            raise PmfError(f"table shape {t.shape} does not match alphabets {shape}")
        if t.size > MAX_TABLE_ENTRIES:
            raise PmfError("alphabet product too large")
        # checked before any sum, which huge entries would overflow
        if not np.all(np.isfinite(t) & (t <= 1 + 1e-9)):
            raise PmfError("probability entries must be finite and at most 1")
        if np.any(t < -PMF_TOL):
            raise PmfError("negative probability entry")
        t = np.clip(t, 0.0, None)
        if abs(t.sum() - 1.0) > 1e-9:
            raise PmfError(f"probabilities sum to {t.sum()}, not 1")
        t = t / t.sum()
        t.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "table", t)

    @property
    def names(self) -> tuple:
        return tuple(v.name for v in self.variables)

    def _axes(self, names) -> list:
        own = list(self.names)
        axes = []
        for n in names:
            if n not in own:
                raise PmfError(f"unknown variable {n!r}; have {own}")
            axes.append(own.index(n))
        if len(set(axes)) != len(axes):
            raise PmfError(f"repeated variable in {list(names)}")
        return axes

    def marginal(self, names) -> "JointPmf":
        """Marginal pmf over ``names``, in this pmf's variable order."""
        axes = self._axes(names)
        keep = sorted(axes)
        drop = tuple(i for i in range(len(self.variables)) if i not in keep)
        t = self.table.sum(axis=drop) if drop else self.table
        return JointPmf([self.variables[i] for i in keep], t)

    def __repr__(self):
        return f"JointPmf({'x'.join(self.names)}, shape={self.table.shape})"


def pmf_from_assignments(variables: Sequence[Alphabet], entries: dict) -> JointPmf:
    """Build a JointPmf from {symbol-tuple: probability} sparse entries."""
    variables = tuple(variables)
    t = np.zeros(tuple(v.size for v in variables))
    for key, p in entries.items():
        if not isinstance(key, tuple):
            key = (key,)
        idx = tuple(v.index(s) for v, s in zip(variables, key))
        t[idx] += p
    return JointPmf(variables, t)


def _entropy_of_table(t: np.ndarray) -> float:
    flat = t.ravel()
    pos = flat[flat > 0]
    return float(-(pos * np.log2(pos)).sum())


def entropy(p: JointPmf, names=None) -> float:
    """Shannon entropy (bits) of the marginal over ``names`` (default: all)."""
    if names is None:
        names = p.names
    names = list(names)
    if not names:
        raise PmfError("entropy needs at least one variable")
    return _entropy_of_table(p.marginal(names).table)


def mutual_information(p: JointPmf, names_a, names_b) -> float:
    """I(A;B) = H(A) + H(B) - H(AB) over disjoint variable groups."""
    a, b = list(names_a), list(names_b)
    if set(a) & set(b):
        raise PmfError(f"overlapping groups {a} and {b}")
    return entropy(p, a) + entropy(p, b) - entropy(p, a + b)


def conditional_mutual_information(p: JointPmf, names_a, names_b, names_c) -> float:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C) over disjoint groups."""
    a, b, c = list(names_a), list(names_b), list(names_c)
    groups = [set(a), set(b), set(c)]
    for i in range(3):
        for j in range(i + 1, 3):
            if groups[i] & groups[j]:
                raise PmfError("variable groups must be pairwise disjoint")
    if not c:
        return mutual_information(p, a, b)
    return (
        entropy(p, a + c)
        + entropy(p, b + c)
        - entropy(p, a + b + c)
        - entropy(p, c)
    )


@dataclass(frozen=True)
class ToleranceSchedule:
    """Typicality radii of the coding scheme and the block-analysis radius.

    ``delta`` is the base radius; ``radii`` holds the source, encoder and
    decoder radii, ``multipliers[i]*delta``.  ``gamma`` =
    ``gamma_coeff*delta`` is the output radius of the block analysis; the
    simulation sets the coefficient to the label alphabet-size product by
    default.
    """

    delta: float
    multipliers: tuple = (1.0, 2.0, 8.0)
    gamma_coeff: float = 1.0

    def __post_init__(self):
        m = tuple(float(x) for x in self.multipliers)
        named = [("delta", self.delta), ("gamma_coeff", self.gamma_coeff)]
        for name, value in named + [("multipliers", x) for x in m]:
            if not (math.isfinite(value) and value > 0):
                raise PmfError(f"{name} must be positive and finite")
        if len(m) != 3 or not m[0] < m[1] < m[2]:
            raise PmfError("multipliers must be three strictly increasing "
                           "numbers")
        object.__setattr__(self, "multipliers", m)

    @property
    def radii(self) -> tuple:
        """(source, encode, decode) radii: each multiplier times delta."""
        return tuple(m * self.delta for m in self.multipliers)

    @property
    def gamma(self) -> float:
        return self.gamma_coeff * self.delta


def alpha_n(eps_n: float, *alphabet_sizes: int) -> float:
    """Entropy-continuity slack -3 e log2(e * prod sizes); 0 at e = 0."""
    if eps_n <= 0:
        return 0.0
    prod = float(np.prod([s for s in alphabet_sizes if s]))
    return float(-3.0 * eps_n * np.log2(eps_n * prod))
