"""Dense exact linear algebra over GF(p^e) (and over the prime field for
restriction-of-scalars computations).  Matrices are lists of row lists.  One
elimination loop, _eliminate, serves rref and nullspace on FieldElements and
nullspace_mod_p on packed rows of ints mod p."""
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


def _width(p: int, nrows: int) -> int:
    """Bits per entry of a packed row of an ``nrows``-row matrix over GF(p).
    A pivot row is fully reduced, so each of its entries is below p, and a
    row takes at most one update ``row += (p - f) * pivot_row`` per pivot,
    so at most nrows.  Every entry therefore stays at most
    p - 1 + nrows * (p - 1)^2; w has one bit more than that bound needs, so
    no entry ever carries into the next."""
    return (p - 1 + nrows * (p - 1) ** 2).bit_length() + 1


def _pack(rows: list[list[int]], p: int) -> list[int]:
    """Integer rows as packed rows over GF(p): entry c of a row, reduced
    mod p, sits in bits c*w .. c*w + w - 1 of one int, w = _width."""
    w = _width(p, len(rows))
    packed = []
    for row in rows:
        acc = 0
        for x in reversed(row):
            acc = acc << w | x % p
        packed.append(acc)
    return packed


def _eliminate(mat: list, ncols: int, p: int) -> tuple[list, list[int]]:
    """Reduce ``mat`` to reduced row echelon form in place; returns (nonzero
    rows, pivot column list).  When p == 0 the rows are lists of
    FieldElements, as in polyring._reduce_vector.  When p > 0 they are
    packed rows from _pack, and an entry is reduced mod p only where it is
    read: in the pivot search, for the factor f, and in the pivot row, which
    is reduced and normalized before it is used.  So each returned row
    holds its reduced row's entries only up to multiples of p (the bound on
    them is _width's)."""
    pivots: list[int] = []
    w = _width(p, len(mat)) if p else 0
    mask = (1 << w) - 1
    r = 0
    for c in range(ncols):
        shift = c * w
        pivot = next((i for i in range(r, len(mat))
                      if ((mat[i] >> shift & mask) % p if p else mat[i][c])),
                     None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        row = mat[r]
        if p:
            inv = pow((row >> shift & mask) % p, p - 2, p)
            acc = 0
            for k in range(ncols - 1, c - 1, -1):
                acc = acc << w | (row >> k * w & mask) * inv % p
            row = mat[r] = acc << shift
        else:
            inv = row[c].inverse()
            row = mat[r] = [x * inv for x in row]
        for i in range(len(mat)):
            if i == r:
                continue
            if p:
                f = (mat[i] >> shift & mask) % p
                if f:
                    mat[i] += (p - f) * row
            elif mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], row)]
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
    """Basis of the nullspace of an integer matrix over GF(p).  The rows are
    eliminated packed, and only their free columns are read back."""
    red, pivots = _eliminate(_pack(a, p), ncols, p)
    w = _width(p, len(a))
    mask = (1 << w) - 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for row, c in zip(red, pivots):
            x[c] = -(row >> f * w & mask) % p
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
