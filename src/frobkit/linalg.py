"""Dense exact linear algebra over GF(p^e) (and over the prime field for
restriction-of-scalars computations).  Matrices are lists of row lists.  One
elimination loop, _eliminate, serves rref and nullspace on FieldElements and
nullspace_mod_p on ints mod p."""
from __future__ import annotations

from .field import FieldElement, FieldSpec, frobenius_root


def zeros(spec: FieldSpec, rows: int, cols: int) -> list[list[FieldElement]]:
    z = spec.zero()
    return [[z] * cols for _ in range(rows)]


def identity(spec: FieldSpec, d: int) -> list[list[FieldElement]]:
    out = zeros(spec, d, d)
    one = spec.one()
    for i in range(d):
        out[i][i] = one
    return out


def mat_mul(a: list[list[FieldElement]],
            b: list[list[FieldElement]]) -> list[list[FieldElement]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if not rows or not cols:
        return [[] for _ in range(rows)]  # no entry, so no field to read
    spec = a[0][0].spec
    out = zeros(spec, rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + c * bk[j]
    return out


def mat_frobenius_root(a) -> list[list[FieldElement]]:
    """Entrywise unique p-th root."""
    return [[frobenius_root(x) for x in row] for row in a]


def _eliminate(mat: list, ncols: int, p: int) -> tuple[list, list[int]]:
    """Reduce ``mat`` to reduced row echelon form in place; returns (nonzero
    rows, pivot column list).  The entries are ints mod p when p > 0 and
    FieldElements when p == 0, as in polyring._reduce_vector."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p) if p else mat[r][c].inverse()
        mat[r] = ([x * inv % p for x in mat[r]] if p
                  else [x * inv for x in mat[r]])
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                pairs = zip(mat[i], mat[r])
                mat[i] = ([(x - f * y) % p for x, y in pairs] if p
                          else [x - f * y for x, y in pairs])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(rows: list[list[FieldElement]]) -> tuple[list[list[FieldElement]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column list)."""
    mat = [list(r) for r in rows]
    return _eliminate(mat, len(mat[0]) if mat else 0, 0)


def nullspace(a: list[list[FieldElement]], spec: FieldSpec) -> list[list[FieldElement]]:
    """Basis of {x : A x = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [spec.zero()] * ncols
        x[f] = spec.one()
        for row, c in zip(red, pivots):
            x[c] = -row[f]
        basis.append(x)
    return basis


def nullspace_mod_p(a: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the nullspace of an integer matrix over GF(p)."""
    red, pivots = _eliminate([[x % p for x in row] for row in a], ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for row, c in zip(red, pivots):
            x[c] = -row[f] % p
        basis.append(x)
    return basis


def prime_field_kernel(images: list[list[FieldElement]],
                       spec: FieldSpec) -> list[list[FieldElement]]:
    """Kernel of an F_p-linear map from GF(p^e)^n by restriction of scalars
    to F_p.  ``images[i * e + t]`` is the image of g^t e_i, for the power
    basis 1, g, ..., g^(e-1); each kernel vector is returned as its n field
    coordinates.  The power basis is the coefficient basis, so the F_p
    coordinates (y_{i,0}, ..., y_{i,e-1}) are the coefficients of entry i."""
    e = spec.e
    columns = [[c for x in image for c in x.coeffs] for image in images]
    system = list(zip(*columns))
    return [[FieldElement(spec, tuple(sol[i:i + e]))
             for i in range(0, len(sol), e)]
            for sol in nullspace_mod_p(system, len(images), spec.p)]
