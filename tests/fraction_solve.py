"""Reference linear algebra for the tests: Gauss-Jordan elimination in
Fractions and ComplexRationals, pivoting on the largest absolute value.

This is the solver the package used before its fraction-free elimination
(dunkl.exact.solve_columns); the tests check that solver, the class solve
and the dense inverses against it.
"""
from dunkl.exact import SingularMatrixError


def fraction_solve_columns(matrix, rhs_columns):
    """The solutions of A x = b, one list per right-hand side, for a matrix
    (list of rows) and columns of Fraction or ComplexRational entries."""
    n = len(matrix)
    m = len(rhs_columns)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if not aug[pivot_row][col]:
            raise SingularMatrixError(f"singular at column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor:
                ratio = factor / piv
                row_r = aug[r]
                row_c = aug[col]
                for c in range(col, n + m):
                    row_r[c] = row_r[c] - ratio * row_c[c]
    return [[aug[i][n + j] / aug[i][i] for i in range(n)] for j in range(m)]


def fraction_invert_matrix(matrix):
    """The exact inverse, as a list of rows."""
    n = len(matrix)
    eye = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    cols = fraction_solve_columns(matrix, eye)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
