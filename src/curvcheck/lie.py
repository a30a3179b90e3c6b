"""Matrix Lie algebra and group numerics.

An algebra is given by a basis of d x d real matrices.  Structure constants
are fitted by least squares against the basis; every operation that lands a
matrix back in the algebra (brackets, conjugation) re-expands it the same way
and checks the residual, so non-orthonormal and user-supplied bases work
uniformly.

Elements are plain arrays, and a function that needs the algebra takes it
as its first argument.  An algebra element is its basis coefficients
``(k,)``, or a stack of them ``(..., k)``; a group element is an invertible
``d x d`` matrix, or a stack of them, that has passed the determinant floor
of :func:`group_stack`.  Curves through the group are synthesized from the
exponential, never from a logarithm.
"""

from __future__ import annotations

import numpy as np

from . import _records
from .errors import ClosureViolation, DomainError, SingularMatrix

__all__ = [
    "MatrixLieAlgebra",
    "bracket",
    "exp",
    "expm",
    "group_stack",
    "conjugate",
    "builtin_algebra",
    "BUILTIN_ALGEBRAS",
]

_CLOSURE_TOL = 1e-10
_JACOBI_TOL = 1e-10
_DET_FLOOR = 1e-10


class MatrixLieAlgebra(_records.Frozen):
    """Matrix Lie algebra with basis ``E_1..E_k`` of d x d matrices and
    structure constants ``c[a, b, e]`` defined by
    ``[E_a, E_b] = sum_e c[a, b, e] E_e``; built by :meth:`from_basis`,
    which keeps the (d*d, k) stack of the ``basis`` matrices and its
    pseudo-inverse for :meth:`expand` (``_basis_stack``, ``_basis_pinv``)."""

    __slots__ = ("d", "k", "basis", "structure", "_basis_stack", "_basis_pinv")

    def __init__(self, d: int, k: int, basis: tuple, structure, stack, pinv):
        self._set(d, k, basis, structure, stack, pinv)

    @staticmethod
    def from_basis(basis) -> "MatrixLieAlgebra":
        mats = tuple(np.array(b, dtype=float) for b in basis)
        if not mats:
            raise ValueError("basis must contain at least one matrix")
        d = mats[0].shape[0]
        for i, b in enumerate(mats, start=1):
            if b.shape != (d, d):
                raise ValueError(f"basis matrix {i} is not {d}x{d}")
        k = len(mats)
        stack = np.column_stack([b.reshape(-1) for b in mats])  # (d*d, k)
        if np.linalg.matrix_rank(stack) < k:
            raise ValueError("basis matrices are linearly dependent")
        pinv = np.linalg.pinv(stack)
        scale = max(1.0, max(float(np.abs(b).max()) for b in mats))
        structure = np.zeros((k, k, k))
        # a commutator that overflows gives a NaN residual: the "not <="
        # tests below fail it, and numpy's warnings about it are silenced
        with np.errstate(all="ignore"):
            for a in range(k):
                for b in range(a + 1, k):
                    comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                    coeffs, residual = _fit(pinv, stack, comm.reshape(-1))
                    if not residual <= _CLOSURE_TOL * scale * scale:
                        raise ClosureViolation(
                            f"[E{a + 1}, E{b + 1}] leaves the span of the basis "
                            f"(residual {residual:.3e})"
                        )
                    structure[a, b] = coeffs
                    structure[b, a] = -coeffs
            _check_jacobi(structure)
        structure.setflags(write=False)
        return MatrixLieAlgebra(d, k, mats, structure, stack, pinv)

    def matrix(self, coeffs) -> np.ndarray:
        """The matrix ``sum_a c_a E_a`` of coefficients ``c``, or of each row
        of a stack of coefficients ``(..., k)``, as ``(..., d, d)``; raises
        :class:`ValueError` when the last axis does not hold ``k``
        coefficients."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape[-1:] != (self.k,):
            raise ValueError(f"expected {self.k} coefficients, got shape {c.shape}")
        out = np.zeros(c.shape[:-1] + (self.d, self.d))
        for a, e in enumerate(self.basis):
            out += c[..., a, None, None] * e
        return out

    def expand(self, matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """Coefficients of ``matrix`` in the basis, or of each matrix of a
        stack ``(..., d, d)`` as ``(..., k)``, raising
        :class:`ClosureViolation` when a least-squares residual exceeds
        ``tol`` scaled by its matrix's magnitude (the first such matrix of a
        stack is named)."""
        flat = np.asarray(matrix, dtype=float)
        flat = flat.reshape(flat.shape[:-2] + (self.d * self.d,))
        coeffs, residual = _fit(self._basis_pinv, self._basis_stack, flat)
        # fmax gives 1.0 for a matrix with a NaN, as max(1.0, nan) does
        bound = tol * np.fmax(1.0, np.abs(flat).max(axis=-1))
        over = residual > bound
        if over.any():
            first = np.flatnonzero(over)[0]
            raise ClosureViolation(
                f"matrix leaves the span of the algebra basis "
                f"(residual {residual.flat[first]:.3e}, tolerance {bound.flat[first]:.1e})"
            )
        return coeffs


def _fit(pinv, stack, flat):
    """Least-squares coefficients of each flattened matrix of ``flat``
    ``(..., d*d)`` and the largest entry of its residual.  Both products
    are matrix-vector products, one matrix at a time, so a matrix of a stack
    is fitted bit for bit as it is alone (a matrix-matrix product is not)."""
    coeffs = (pinv @ flat[..., None])[..., 0]
    residual = np.abs((stack @ coeffs[..., None])[..., 0] - flat).max(axis=-1)
    return coeffs, residual


def _check_jacobi(c: np.ndarray) -> None:
    # sum_e ( c[a,b,e] c[e,g,h] + c[b,g,e] c[e,a,h] + c[g,a,e] c[e,b,h] ) = 0
    cyc = (
        np.einsum("abe,egh->abgh", c, c)
        + np.einsum("bge,eah->abgh", c, c)
        + np.einsum("gae,ebh->abgh", c, c)
    )
    worst = float(np.abs(cyc).max())
    if not worst <= _JACOBI_TOL:
        raise ClosureViolation(
            f"structure constants violate the Jacobi identity "
            f"(residual {worst:.3e})"
        )


def group_stack(mats) -> np.ndarray:
    """``mats``, a square matrix or a stack ``(..., d, d)`` of them, once each
    has passed the determinant floor that makes it a group element; raises
    :class:`SingularMatrix` with the determinant of the first that has not."""
    mats = np.asarray(mats, dtype=float)
    det = np.abs(np.linalg.det(mats))
    small = det < _DET_FLOOR
    if small.any():
        raise SingularMatrix(
            f"matrix is numerically singular (|det| = {det[small].flat[0]:.3e})"
        )
    return mats


def bracket(algebra: MatrixLieAlgebra, x, y) -> np.ndarray:
    """Coefficients of the matrix commutator ``XY - YX`` of the coefficients
    ``x`` and ``y``, re-expanded in the basis."""
    xm = algebra.matrix(x)
    ym = algebra.matrix(y)
    return algebra.expand(xm @ ym - ym @ xm, _CLOSURE_TOL)


def exp(algebra: MatrixLieAlgebra, x) -> np.ndarray:
    """Group element ``exp(X)`` of coefficients ``x``, or of each row of a
    stack ``(..., k)``, as a read-only ``(..., d, d)`` that has passed
    :func:`group_stack`, by :func:`expm`: scaling and squaring with the
    degree-13 Pade approximant (Higham 2005).  ``exp`` of the zero element is
    exactly the identity."""
    out = group_stack(expm(algebra.matrix(x)))
    out.setflags(write=False)
    return out


#: Coefficients b_0..b_13 of the degree-13 Pade approximant to e^z, and the
#: largest 1-norm at which it is accurate to double precision unscaled
#: (Higham, "The scaling and squaring method for the matrix exponential
#: revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, table 2.3).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(matrix) -> np.ndarray:
    """Exponential of a square matrix, or of each matrix of a stack of shape
    ``(..., d, d)``, by scaling and squaring with the degree-13 Pade
    approximant ``r = (V - U)^{-1} (V + U)``: each matrix is scaled by
    ``2^-s`` until its 1-norm is at most theta_13, ``r`` is formed as
    ``I + 2 (V - U)^{-1} U`` -- so that ``expm(0)`` is exactly the identity
    -- and squared ``s`` times.  A non-finite entry raises
    :class:`DomainError`."""
    a = np.array(matrix, dtype=float)
    shape = a.shape
    a = a.reshape(-1, shape[-1], shape[-1])
    norm = np.abs(a).sum(axis=1).max(axis=1)
    if not np.isfinite(norm).all():
        raise DomainError("matrix exponential of a non-finite matrix")
    squarings = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    a = np.ldexp(a, -squarings[:, None, None])
    b = _PADE13
    ident = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for j in range(squarings.max(initial=0)):
        more = squarings > j
        r[more] = r[more] @ r[more]
    return r.reshape(shape)


def conjugate(algebra: MatrixLieAlgebra, g, coeffs) -> np.ndarray:
    """Coefficients of ``g X g^{-1}`` for the stack of matrices ``g``
    ``(..., d, d)`` and of coefficients ``X`` ``(..., k)``, re-expanded in
    the basis."""
    g = np.asarray(g, dtype=float)
    return algebra.expand(g @ algebra.matrix(coeffs) @ np.linalg.inv(g))


def _so2_basis():
    return (np.array([[0.0, -1.0], [1.0, 0.0]]),)


def _so3_basis():
    e1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    e2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    e3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return (e1, e2, e3)


def _sl2_basis():
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    return (h, e, f)


BUILTIN_ALGEBRAS = {
    "so2": _so2_basis,
    "so3": _so3_basis,
    "sl2": _sl2_basis,
}


_ALGEBRA_ALIASES = {
    "so2": "so2",
    "so(2)": "so2",
    "so3": "so3",
    "so(3)": "so3",
    "sl2": "sl2",
    "sl(2)": "sl2",
    "sl2r": "sl2",
    "sl(2,r)": "sl2",
}


def builtin_algebra(name: str) -> MatrixLieAlgebra:
    """One of the bundled algebras: ``so2`` (abelian), ``so3`` (compact,
    [E1,E2] = E3 cyclically), ``sl2`` (non-compact, [H,E] = 2E)."""
    key = _ALGEBRA_ALIASES.get(name.strip().lower().replace(" ", ""))
    if key is None:
        known = ", ".join(sorted(BUILTIN_ALGEBRAS))
        raise ValueError(f"unknown algebra {name!r} (built in: {known})")
    return MatrixLieAlgebra.from_basis(BUILTIN_ALGEBRAS[key]())
