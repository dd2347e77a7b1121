"""Exact finite-dimensional quantum state algebra on small dense matrices.

Density operators, Hermitian observables and POVMs are stored as plain
numpy complex arrays (row-major).  Every constructor validates its
invariants (Hermiticity, unit trace, positivity) against explicit numeric
tolerances, so downstream code can assume well-formed states.  The
density-operator checks also run on whole stacks (``validated_states``),
which is how the simulation validates a chunk of per-trial states at once.

Matrix literal format (shared with the JSON configs): nested arrays of
[re, im] pairs, row-major.  E.g. the mixture 1/2|0><0| + 1/2|+><+| is
[[[0.75, 0], [0.25, 0]], [[0.25, 0], [0.25, 0]]].
"""

from __future__ import annotations

import numpy as np

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
TOL_EIG = 1e-10
MAX_DIM = 1024
_MAX_ENTRY = 1 + TOL_TRACE + MAX_DIM * TOL_PSD


class QuantumError(ValueError):
    """Rejected input: an operator that violates a structural invariant."""


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise QuantumError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise QuantumError("matrix entries must be finite")
    return a


def _check_hermitian(a: np.ndarray) -> None:
    """Raise unless every matrix of the stack ``a`` (..., d, d) is
    Hermitian within ``TOL_HERM``."""
    if np.max(np.abs(a - a.conj().swapaxes(-1, -2))) > TOL_HERM:
        raise QuantumError("matrix is not Hermitian within tolerance")


def validated_states(matrices, *others):
    """``DensityOperator``'s checks on a stack of matrices (..., d, d).

    Each matrix must be Hermitian with unit trace; it is symmetrised,
    divided by its trace and must have no eigenvalue below ``-TOL_PSD``.
    Every stack in ``others`` (same shape, Hermitian) rides along in the
    one ``eigvalsh`` call.  Returns the read-only states and the ascending
    eigenvalues of each of ``others``.
    """
    a = np.asarray(matrices, dtype=complex)
    _check_hermitian(a)
    a = 0.5 * (a + a.conj().swapaxes(-1, -2))
    tr = np.trace(a, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TOL_TRACE
    if off.any():
        raise QuantumError(f"trace {float(tr[off].flat[0])} deviates from 1 "
                           "beyond tolerance")
    a = a / tr[..., None, None]
    if others:
        w = np.linalg.eigvalsh(np.stack((a,) + others))
        lowest, w = w[0][..., 0], w[1:]
    else:  # a lone stack, such as one DensityOperator, needs no copy
        lowest, w = np.linalg.eigvalsh(a)[..., 0], ()
    if (lowest < -TOL_PSD).any():
        raise QuantumError("matrix has a negative eigenvalue beyond tolerance")
    a.setflags(write=False)
    return a, w


def trusted_density(matrix: np.ndarray) -> DensityOperator:
    """An unlabelled ``DensityOperator`` around a read-only matrix that
    ``validated_states`` has already checked, without checking it again."""
    state = object.__new__(DensityOperator)
    object.__setattr__(state, "matrix", matrix)
    object.__setattr__(state, "label", "")
    return state


def _restored(cls, *values):
    """A copied or unpickled operator: its matrices were checked when the
    original was made, so they are only made read-only again."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


class _Immutable:
    """Slots that only the constructor sets; a copy or a pickle restores
    them through ``_restored``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _restored, (type(self),
                           *(getattr(self, s) for s in self.__slots__))


class DensityOperator(_Immutable):
    """Positive semidefinite, unit-trace complex matrix on one or more registers.

    Immutable after construction.  ``label`` is free-form bookkeeping for
    register names (e.g. "A", "AB").
    """

    __slots__ = ("matrix", "label")

    def __init__(self, matrix, label: str = ""):
        a = _as_complex_matrix(matrix)
        if a.shape[0] > MAX_DIM:
            raise QuantumError(f"dimension {a.shape[0]} exceeds maximum {MAX_DIM}")
        # no unit-trace PSD matrix has an entry above 1 in magnitude, up to
        # the tolerances below; a huge one would overflow their arithmetic
        if np.abs(a.view(float)).max(initial=0) > _MAX_ENTRY:
            raise QuantumError("a density matrix has no entry above 1")
        a, _ = validated_states(a)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "label", label)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes, label: str = "") -> "DensityOperator":
        """|psi><psi| from a (not necessarily normalized) state vector."""
        v = np.asarray(amplitudes, dtype=complex).ravel()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise QuantumError("zero state vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), label)

    @classmethod
    def maximally_mixed(cls, dim: int, label: str = "") -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim, label)

    @classmethod
    def basis_state(cls, dim: int, index: int, label: str = "") -> "DensityOperator":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.pure(v, label)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim}, label={self.label!r})"


class HermitianObservable(_Immutable):
    """A Hermitian operator whose expectation values are measured."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        a = _as_complex_matrix(matrix)
        _check_hermitian(a)
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class Povm(_Immutable):
    """A finite positive operator-valued measure: PSD elements summing to I."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        mats = []
        for e in elements:
            a = _as_complex_matrix(e)
            _check_hermitian(a)
            if np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0] < -TOL_PSD:
                raise QuantumError("POVM element is not positive semidefinite")
            mats.append(0.5 * (a + a.conj().T))
        if not mats:
            raise QuantumError("POVM needs at least one element")
        total = sum(mats)
        if np.max(np.abs(total - np.eye(mats[0].shape[0]))) > TOL_TRACE:
            raise QuantumError("POVM elements do not sum to the identity")
        for a in mats:
            a.setflags(write=False)
        object.__setattr__(self, "elements", tuple(mats))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @classmethod
    def computational(cls, dim: int) -> "Povm":
        return cls([np.diag(row).astype(complex) for row in np.eye(dim)])


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product of two states; register labels concatenate."""
    if a.dim * b.dim > MAX_DIM:
        raise QuantumError(
            f"tensor dimension {a.dim * b.dim} exceeds maximum {MAX_DIM}"
        )
    return DensityOperator(np.kron(a.matrix, b.matrix), a.label + b.label)


def partial_trace(rho: DensityOperator, dims, keep) -> DensityOperator:
    """Marginal of ``rho`` on the subsystems in ``keep`` (original order kept).

    ``dims`` lists the subsystem dimensions whose product must equal rho.dim.
    """
    dims = list(dims)
    if int(np.prod(dims)) != rho.dim:
        raise QuantumError(f"subsystem dims {dims} do not factor dim {rho.dim}")
    keep = sorted(set(keep))
    if not keep:
        raise QuantumError("must keep at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise QuantumError(f"keep indices {keep} out of range for {len(dims)} parts")
    k = len(dims)
    arr = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(k) if i not in keep]
    # trace from the highest index down so axis numbers stay valid
    remaining = k
    for i in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=i, axis2=i + remaining)
        remaining -= 1
    d = int(np.prod([dims[i] for i in keep]))
    return DensityOperator(arr.reshape(d, d))


def eigen_hermitian(matrix):
    """Spectral decomposition of a Hermitian matrix (within ``TOL_HERM``).

    Returns (eigenvalues descending, eigenvectors as columns aligned with
    the eigenvalues).  Reconstruction error ||V diag(w) V^† - M||_F stays
    below TOL_EIG * dim.
    """
    a = _as_complex_matrix(matrix)
    _check_hermitian(a)
    a = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return w[order].astype(float), v[:, order]


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Normalized trace distance (1/2)||a - b||_1 in [0, 1]."""
    if a.dim != b.dim:
        raise QuantumError("trace_distance requires equal dimensions")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(min(max(0.5 * np.abs(w).sum(), 0.0), 1.0))


def trace_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for raw Hermitian arrays (no state validation)."""
    w = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return float(0.5 * np.abs(w).sum())


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -tr[rho log2 rho] in bits, with 0 log 0 := 0."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = np.where((w < 0) & (w >= -TOL_PSD), 0.0, w)
    pos = w[w > 0]
    return float(-(pos * np.log2(pos)).sum())


def born_distribution(rho: DensityOperator, povm: Povm) -> np.ndarray:
    """Outcome probabilities p(j) = tr(D_j rho)."""
    if rho.dim != povm.dim:
        raise QuantumError("state and POVM dimensions differ")
    p = np.array([float(np.trace(d @ rho.matrix).real) for d in povm.elements])
    p = np.where((p < 0) & (p >= -TOL_PSD), 0.0, p)
    if abs(p.sum() - 1.0) > 10 * TOL_TRACE:
        raise QuantumError("Born probabilities do not sum to 1")
    return p


def observable_expectation(rho: DensityOperator, obs: HermitianObservable) -> float:
    """Expected value tr[O rho] of an observable; the result is real."""
    if rho.dim != obs.dim:
        raise QuantumError("state and observable dimensions differ")
    val = np.trace(obs.matrix @ rho.matrix)
    return float(val.real)


def matrix_to_literal(matrix) -> list:
    """Encode a complex matrix as nested [re, im] pairs (row-major)."""
    a = np.asarray(matrix, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_literal(literal) -> np.ndarray:
    """Decode the nested [re, im] pair format back into a complex matrix."""
    rows = []
    for row in literal:
        rows.append([complex(float(re), float(im)) for re, im in row])
    return np.array(rows, dtype=complex)
