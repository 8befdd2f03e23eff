"""Triangular and full integer matrix semigroups.

T_n(Z)* is the semigroup of upper triangular integer matrices with nonzero
determinant.  Its atoms are the matrices with exactly one prime (up to
sign) on the diagonal and units elsewhere; each atom is associated to the
diagonal matrix carrying that prime, and two atoms are associated iff
their (position, prime) profiles agree, which also realizes similarity and
subsimilarity on atoms.  The diagonal map delta(A) = (|a_11|, ..., |a_nn|)
into (N_{>0})^n is an isoatomic weak transfer homomorphism.

M_n(Z)* is the semigroup of integer matrices with nonzero determinant.
Smith Normal Form A = U*C*V (U, V unimodular, descending divisibility
c_{i+1,i+1} | c_{i,i}) makes |det| a transfer homomorphism to N_{>0};
atoms are the matrices of prime |determinant|.

Both semigroups are therefore permutably factorial: an element has one
atom-class multiset, which each handle reads off its map
(``transfer_classes``) with no factorization listed.

Both semigroups list atom left divisors through one Hermite enumerator.
An atom U of prime index p left-divides A iff A's column lattice lies in
U's, an index-p lattice between it and Z^n; up to right units U is that
lattice's Hermite form: diag(1, .., p, .., 1) with p at (k, k) and
residues mod p in row k right of it.  Each form is kept when U^{-1} A is
integral, so each rigid-factorization branch is produced once.  The
residue rows that make it integral are the solutions of a linear system
over F_p, which are listed directly rather than found among all p^(n-1-k)
rows (``_residue_rows``).  On T_n(Z)
the same forms serve, with k at a diagonal position p divides: a right
unit clears column k above the diagonal and moves row k only by multiples
of p, and U^{-1} A is upper triangular with A.  Exhaustiveness is
cross-checked against brute scans in the test suite.

``AtomProfile``, ``SnfResult``, ``TransferMap`` and ``TransferReport``
are named tuples: immutable, compared by value, copied with a field
changed by ``_replace``, and equal to a plain tuple of the same fields.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .arith import big_omega, factor, is_prime
from .handles import DivisorPairs, FactorialVectorHandle, SemigroupHandle

Mat = Tuple[Tuple[int, ...], ...]
# the largest |det| that is factored or tested for primality, by trial
# division: every such test of a determinant or a diagonal entry (which
# divides it) is checked against it first (``_capped``)
_DET_CAP = 1_000_000
_PAIR_LIMIT = 400       # the most sample pairs a transfer-map check visits


class NotAtomError(ValueError):
    pass


class DetTooLargeError(ValueError):
    pass


def _capped(d: int) -> int:
    """|d|, once it is known not to exceed the cap."""
    d = abs(d)
    if d > _DET_CAP:
        raise DetTooLargeError(f"|det| = {d} exceeds cap {_DET_CAP}")
    return d


# basic exact matrix helpers ---------------------------------------------

def mat(rows: Sequence[Sequence[int]]) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def mat_det(a: Mat) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        det += (-1) ** j * a[0][j] * mat_det(minor)
    return det


def is_upper_triangular(a: Mat) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i))


def parse_matrix(text: str) -> Mat:
    """Rows separated by ';', entries by spaces: "2 5; 0 3".  A malformed
    row or entry is named by its position, counted from 1."""
    rows = [r.split() for r in text.split(";")]
    if rows == [[]]:
        raise ValueError("empty matrix")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(rows):
            raise ValueError(f"row {i} has {len(row)} "
                             f"entr{'y' if len(row) == 1 else 'ies'}, "
                             f"expected {len(rows)}")
        for j, entry in enumerate(row, start=1):
            try:
                int(entry)
            except ValueError:
                raise ValueError(f"row {i}, column {j}: {entry!r} is not an "
                                 "integer") from None
    return mat(rows)


def format_matrix(a: Mat) -> str:
    return "; ".join(" ".join(str(x) for x in row) for row in a)


def _solve_upper(u: Mat, a: Mat) -> Optional[Mat]:
    """Solve U X = A exactly for upper triangular U; None unless X is integral."""
    n = len(u)
    x = [[0] * n for _ in range(n)]
    for col in range(n):
        for row in range(n - 1, -1, -1):
            s = a[row][col] - sum(u[row][k] * x[k][col] for k in range(row + 1, n))
            if s % u[row][row] != 0:
                return None
            x[row][col] = s // u[row][row]
    return tuple(tuple(r) for r in x)


# triangular matrices -----------------------------------------------------


class AtomProfile(NamedTuple):
    """Associate-class data of a triangular atom: the diagonal position
    carrying the prime, and the prime itself."""
    position: int   # 1-based
    prime: int


def tri_is_unit(a: Mat) -> bool:
    return is_upper_triangular(a) and all(a[i][i] in (1, -1) for i in range(len(a)))


def tri_is_atom(a: Mat) -> Optional[AtomProfile]:
    """Atom test per the diagonal criterion: exactly one diagonal entry is
    (up to sign) prime, every other diagonal entry is a unit."""
    if not is_upper_triangular(a) or _capped(mat_det(a)) == 0:
        return None
    profile = None
    for i in range(len(a)):
        d = abs(a[i][i])
        if d == 1:
            continue
        if not is_prime(d) or profile is not None:
            return None
        profile = AtomProfile(i + 1, d)
    return profile


def tri_associate_normal_form(a: Mat) -> Tuple[Mat, Tuple[Mat, Mat]]:
    """Associate normal form of a triangular atom: the diagonal matrix with
    its prime at (m, m) and ones elsewhere, together with unit matrices
    (E, F) certifying E * a * F = normal form.

    Row i < m is cleared by right multiplication, column j > m by left
    multiplication, exactly the elimination by unit matrices from the
    structure theory of T_n.
    """
    n = len(a)
    m = annihilator_profile(a).position - 1
    # normalize diagonal signs first
    signs = tuple(tuple((1 if a[i][i] > 0 else -1) if i == j else 0
                        for j in range(n)) for i in range(n))
    left = signs
    cur = mat_mul(signs, a)
    right = mat_identity(n)
    for i in range(m):                      # clear row i right of the diagonal
        c = tuple(tuple((1 if r == s else 0) - (cur[i][s] if r == i and s > i else 0)
                        for s in range(n)) for r in range(n))
        cur = mat_mul(cur, c)
        right = mat_mul(right, c)
    for j in range(m + 1, n):               # clear column j above the diagonal
        c = tuple(tuple((1 if r == s else 0) - (cur[r][j] if s == j and r < j else 0)
                        for s in range(n)) for r in range(n))
        cur = mat_mul(c, cur)
        left = mat_mul(c, left)
    return cur, (left, right)


def annihilator_profile(a: Mat) -> AtomProfile:
    """Profile (m, p) classifying the annihilator ideal of a triangular
    atom; two atoms are associated (equivalently similar, subsimilar) iff
    their profiles agree."""
    profile = tri_is_atom(a)
    if profile is None:
        raise NotAtomError(f"{a} is not an atom of T_n(Z)")
    return profile


def tri_atoms_associated(a: Mat, b: Mat) -> bool:
    return annihilator_profile(a) == annihilator_profile(b)


def delta_map(a: Mat) -> Tuple[int, ...]:
    """The diagonal weak transfer homomorphism delta: T_n(Z)* -> (N_{>0})^n."""
    return tuple(abs(a[i][i]) for i in range(len(a)))


def _residue_rows(a: Mat, k: int, p: int) -> Iterator[Tuple[int, ...]]:
    """The residues r_{k+1}, .., r_{n-1} mod p of row k of a Hermite form
    U (p at (k, k)) with U^{-1} a integral, in lexicographic order.

    The rows of U other than k are identity rows, so U^{-1} a is integral
    iff a[k][c] = sum_{j>k} r_j a[j][c] (mod p) for every column c: a
    linear system over F_p.  Gauss-Jordan elimination pivots on the last
    unknowns first, so each pivot unknown is fixed by the free unknowns
    before it; two solutions then first differ at a free unknown, and
    counting the free unknowns up lists the solutions in lexicographic
    order."""
    n = len(a)
    m = n - 1 - k
    # one equation per column c: coefficients of r_{k+1}, .., r_{n-1}, rhs
    rows = [[a[j][c] % p for j in range(k + 1, n)] + [a[k][c] % p]
            for c in range(n)]
    pivots: List[int] = []          # the pivot unknown of rows 0, 1, ..
    for var in range(m - 1, -1, -1):
        top = len(pivots)
        sel = next((i for i in range(top, n) if rows[i][var]), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = pow(rows[top][var], -1, p)
        piv = rows[top] = [x * inv % p for x in rows[top]]
        for i in range(n):
            f = rows[i][var]
            if i != top and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], piv)]
        pivots.append(var)
    if any(row[m] for row in rows[len(pivots):]):
        return          # an equation 0 = nonzero: no residue row divides
    free = [j for j in range(m) if j not in pivots]
    r = [0] * m
    for values in itertools.product(range(p), repeat=len(free)):
        for j, x in zip(free, values):
            r[j] = x
        for var, row in zip(pivots, rows):
            r[var] = (row[m] - sum(row[j] * r[j] for j in free)) % p
        yield tuple(r)


def _hermite_divisors(a: Mat,
                      pairs: Sequence[Tuple[int, int]]) -> List[Tuple[Mat, Mat]]:
    """The atoms U left-dividing a, with quotients U^{-1} a, in Hermite form
    for each (position k, prime p) pair in the given order: p at (k, k)
    and residues mod p in row k right of it, in lexicographic order."""
    n = len(a)
    found: List[Tuple[Mat, Mat]] = []
    for k, p in pairs:
        for residues in _residue_rows(a, k, p):
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            u[k][k] = p
            u[k][k + 1:] = residues
            um = tuple(tuple(row) for row in u)
            found.append((um, _solve_upper(um, a)))
    return found


def tri_left_divisors(a: Mat) -> List[Tuple[Mat, Mat]]:
    """All atoms U left-dividing a in T_n(Z)*, one per right-associate
    class, with quotients: the Hermite forms at each position m and prime
    p | a_mm, m first and then p."""
    d = abs(mat_det(a))
    if d == 0 or not is_upper_triangular(a):
        raise ValueError("need an upper triangular matrix with nonzero det")
    _capped(d)
    return _hermite_divisors(a, [(m, p) for m in range(len(a))
                                 for p in sorted(factor(a[m][m]))])


class _MatrixHandle(SemigroupHandle):
    """What T_n(Z)* and M_n(Z)* share: n x n integer matrices under the
    matrix product, whose units are not trivial."""

    reduced = False
    _symbol = ""
    _requirement = ""   # the error message for a non-element

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n
        self.name = f"{self._symbol}_{n}(Z)*"

    def matrix(self, rows) -> Mat:
        m = mat(rows)
        self.require_element(m)
        return m

    def require_element(self, x: Mat) -> None:
        if len(x) != self.n or not self._in_shape(x) or mat_det(x) == 0:
            raise ValueError(self._requirement)

    def _in_shape(self, x: Mat) -> bool:
        return True

    def identity(self) -> Mat:
        return mat_identity(self.n)

    def multiply(self, x: Mat, y: Mat) -> Mat:
        return mat_mul(x, y)

    def length_cap(self, x: Mat) -> int:
        return big_omega(_capped(mat_det(x)))

    def format_element(self, x: Mat) -> str:
        return "[" + format_matrix(x) + "]"


class TriangularMatrixHandle(_MatrixHandle):
    """T_n(Z)* as a SemigroupHandle; its units are the triangular matrices
    with +-1 on the diagonal."""

    _symbol = "T"
    _requirement = "need an upper triangular matrix with nonzero det"

    def _in_shape(self, x: Mat) -> bool:
        return is_upper_triangular(x)

    def is_unit(self, x: Mat) -> bool:
        return tri_is_unit(x)

    def is_atom(self, x: Mat) -> bool:
        return tri_is_atom(x) is not None

    def atom_class(self, u: Mat) -> Tuple[int, int]:
        profile = annihilator_profile(u)
        return (profile.position, profile.prime)

    def left_divisor_atoms(self, x: Mat) -> DivisorPairs:
        return tri_left_divisors(x), True

    def transfer_classes(self, x: Mat) -> Tuple[Tuple[int, int], ...]:
        # delta is a weak transfer to (N_{>0})^n, whose atom with p in slot
        # i is the image of the atoms of class (i + 1, p) (``atom_class``):
        # x has the one class multiset (i + 1, p), v_p(|x_ii|) times, for
        # each i and p
        self.require_element(x)
        _capped(mat_det(x))
        return tuple((i + 1, p) for i in range(self.n)
                     for p, e in sorted(factor(x[i][i]).items())
                     for _ in range(e))

    def right_normalize_key(self, x: Mat) -> Mat:
        """Canonical representative of x up to right units (memo key: the
        factorization class structure is invariant under right units)."""
        n = self.n
        cols = [list(col) for col in zip(*x)]
        # sign-normalize diagonals, then reduce each column mod earlier diag
        for j in range(n):
            if cols[j][j] < 0:
                cols[j] = [-v for v in cols[j]]
        for j in range(1, n):
            for i in range(j):
                d = cols[i][i]
                t = (cols[j][i] % d) - cols[j][i]
                if t:
                    k = t // d
                    cols[j] = [v + k * w for v, w in zip(cols[j], cols[i])]
        return tuple(zip(*[tuple(c) for c in cols]))


class SnfResult(NamedTuple):
    """A = U * C * V with U, V unimodular and C diagonal: c_{i+1,i+1} |
    c_{i,i} from ``snf``, c_{i,i} | c_{i+1,i+1} from ``snf_ascending``."""
    u: Mat
    c: Mat
    v: Mat


def snf(a: Mat) -> SnfResult:
    """Smith Normal Form with the descending divisibility convention: the
    ascending form of ``snf_ascending`` with its diagonal reversed.  The
    reversal permutation R is its own inverse, so A = U C V gives
    A = (U R)(R C R)(R V): U's columns, C's rows and columns and V's rows
    in reverse order."""
    u, c, v = snf_ascending(a)
    return SnfResult(tuple(row[::-1] for row in u),
                     tuple(row[::-1] for row in c[::-1]), v[::-1])


def snf_ascending(a: Mat) -> SnfResult:
    """Smith Normal Form with the usual ascending convention d_1 | d_2 |
    ..., by exact row and column reduction while accumulating the inverse
    operations."""
    n = len(a)
    if mat_det(a) == 0:
        raise ValueError("need nonzero determinant")
    m = [list(row) for row in a]
    left = [list(row) for row in mat_identity(n)]    # accumulates U with A = U M V
    right = [list(row) for row in mat_identity(n)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        for col in range(n):                         # left *= swap^{-1} = swap
            left[col][i], left[col][j] = left[col][j], left[col][i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        right[i], right[j] = right[j], right[i]

    def add_row(src, dst, k):                        # row_dst += k * row_src
        for col in range(n):
            m[dst][col] += k * m[src][col]
        for row in range(n):                         # left: col_src -= k * col_dst
            left[row][src] -= k * left[row][dst]

    def add_col(src, dst, k):
        for row in m:
            row[dst] += k * row[src]
        for col in range(n):
            right[src][col] -= k * right[dst][col]

    def negate_row(i):
        for col in range(n):
            m[i][col] = -m[i][col]
        for row in range(n):
            left[row][i] = -left[row][i]

    for t in range(n):
        while True:
            pivots = [(abs(m[i][j]), i, j) for i in range(t, n)
                      for j in range(t, n) if m[i][j] != 0]
            _, pi, pj = min(pivots)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if m[t][t] < 0:
                negate_row(t)
            done = True
            for i in range(t + 1, n):
                if m[i][t] % m[t][t] != 0:
                    add_row(t, i, -(m[i][t] // m[t][t]))
                    done = False
            for j in range(t + 1, n):
                if m[t][j] % m[t][t] != 0:
                    add_col(t, j, -(m[t][j] // m[t][t]))
                    done = False
            if not done:
                continue
            for i in range(t + 1, n):
                if m[i][t] != 0:
                    add_row(t, i, -(m[i][t] // m[t][t]))
            for j in range(t + 1, n):
                if m[t][j] != 0:
                    add_col(t, j, -(m[t][j] // m[t][t]))
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
    return SnfResult(tuple(map(tuple, left)), tuple(map(tuple, m)),
                     tuple(map(tuple, right)))


def det_transfer(a: Mat) -> int:
    """|det|: the transfer homomorphism M_n(Z)* -> N_{>0}."""
    d = mat_det(a)
    if d == 0:
        raise ValueError("zero determinant")
    return abs(d)


def mat_is_atom(a: Mat) -> bool:
    return is_prime(_capped(det_transfer(a)))


def mat_left_divisors(a: Mat) -> List[Tuple[Mat, Mat]]:
    """Atom left divisors of a in M_n(Z)*, one per index-p column lattice
    between A's column lattice and Z^n: the Hermite forms at each prime
    p | det and position k, p first and then k."""
    d = abs(mat_det(a))
    if d == 0:
        raise ValueError("zero determinant")
    _capped(d)
    return _hermite_divisors(a, [(k, p) for p in sorted(factor(d))
                                 for k in range(len(a))])


class FullMatrixHandle(_MatrixHandle):
    """M_n(Z)* as a SemigroupHandle."""

    _symbol = "M"
    _requirement = "need a square integer matrix with nonzero det"

    def is_unit(self, x: Mat) -> bool:
        return abs(mat_det(x)) == 1

    def is_atom(self, x: Mat) -> bool:
        return mat_is_atom(x)

    def atom_class(self, u: Mat) -> int:
        # two atoms share a Smith Normal Form diag(p, 1, ..., 1), hence are
        # associated, iff their |det|s agree
        p = _capped(det_transfer(u))
        if not is_prime(p):
            raise NotAtomError(f"{u} is not an atom of M_n(Z)")
        return p

    def left_divisor_atoms(self, x: Mat) -> DivisorPairs:
        return mat_left_divisors(x), True

    def transfer_classes(self, x: Mat) -> Tuple[int, ...]:
        # |det| is a transfer homomorphism onto the factorial monoid N_{>0}
        # (``det_transfer_map``) and an atom's class is its prime |det|:
        # x has the one class multiset, the primes of |det x|
        self.require_element(x)
        d = _capped(mat_det(x))
        return tuple(p for p, e in sorted(factor(d).items()) for _ in range(e))


# transfer maps and their verification ------------------------------------


class TransferMap(NamedTuple):
    """A computable homomorphism into a target handle."""
    name: str
    source: SemigroupHandle
    target: SemigroupHandle
    fn: object

    def apply(self, x):
        return self.fn(x)

    def _image_classes(self, z) -> Tuple:
        """phi*(z): the sorted multiset of target classes of the images of
        the atoms of the rigid factorization z."""
        atom_class, apply = self.target.atom_class, self.apply
        return tuple(sorted(atom_class(apply(u)) for u in z.atoms))


def delta_transfer_map(handle: TriangularMatrixHandle) -> TransferMap:
    target = FactorialVectorHandle(handle.n)
    return TransferMap("delta", handle, target, delta_map)


def det_transfer_map(handle: FullMatrixHandle) -> TransferMap:
    target = FactorialVectorHandle(1)
    return TransferMap("det", handle, target, lambda a: (det_transfer(a),))


def identity_transfer_map(handle: SemigroupHandle) -> TransferMap:
    return TransferMap("identity", handle, handle, lambda x: x)


class TransferReport(NamedTuple):
    map_name: str
    unit_preservation_ok: bool
    atom_preservation_ok: bool
    lifting_ok: bool          # (WT2) on the sample
    isoatomic_ok: bool
    homomorphism_ok: bool
    sample_size: int
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (self.unit_preservation_ok and self.atom_preservation_ok
                and self.lifting_ok and self.isoatomic_ok
                and self.homomorphism_ok)


def verify_transfer_properties(tmap: TransferMap,
                               sample: Sequence) -> TransferReport:
    """Check (T1) unit fibers, atom preservation, the (WT2) lifting of
    target factorizations up to permutation, isoatomicity, and the
    homomorphism law, over the given sample of source elements."""
    from .factorizations import permutable_class_multisets, rigid_factorizations

    src, tgt = tmap.source, tmap.target
    units_ok = atoms_ok = lifting_ok = iso_ok = hom_ok = True
    counterexample = None
    sample = list(sample)

    for a in sample:
        fa = tmap.apply(a)
        if src.is_unit(a) != tgt.is_unit(fa):
            units_ok = False
            counterexample = f"(T1) unit fiber fails at {src.format_element(a)}"
            break
        if not src.is_unit(a) and src.is_atom(a) != tgt.is_atom(fa):
            atoms_ok = False
            counterexample = f"atom preservation fails at {src.format_element(a)}"
            break

    if counterexample is None:
        for a in sample:
            if src.is_unit(a):
                continue
            tgt_sets, _ = permutable_class_multisets(tgt, tmap.apply(a))
            fs = rigid_factorizations(src, a)
            images = {tmap._image_classes(z) for z in fs}
            if fs.complete and not tgt_sets <= images:
                lifting_ok = False
                missing = sorted(tgt_sets - images)[0]
                counterexample = (f"(WT2) target factorization {missing} of "
                                  f"{src.format_element(a)} does not lift")
                break

    if counterexample is None:
        atoms = [a for a in sample if not src.is_unit(a) and src.is_atom(a)]
        for u, v in itertools.islice(itertools.combinations(atoms, 2),
                                     _PAIR_LIMIT):
            tu, tv = tmap.apply(u), tmap.apply(v)
            if tgt.atom_class(tu) == tgt.atom_class(tv) \
                    and not src.atoms_associated(u, v):
                iso_ok = False
                counterexample = (f"isoatomicity fails: {src.format_element(u)}"
                                  f" vs {src.format_element(v)}")
                break

    if counterexample is None:
        for a, b in itertools.islice(itertools.product(sample, sample),
                                     _PAIR_LIMIT):
            lhs = tmap.apply(src.multiply(a, b))
            rhs = tgt.multiply(tmap.apply(a), tmap.apply(b))
            if tgt.key(lhs) != tgt.key(rhs):
                hom_ok = False
                counterexample = "homomorphism law fails"
                break

    return TransferReport(tmap.name, units_ok, atoms_ok, lifting_ok, iso_ok,
                          hom_ok, len(sample), counterexample)
