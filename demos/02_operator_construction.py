"""From a Gram matrix to a non-negative operator: the constructive core.

The scalarized Gram factors into coordinate vectors xi_a with
<xi_a, xi_b> = gamma[a, b]; the data then define the shift A xi_k = xi_{k+N}
on the span of the early vectors.  The shift is non-negative exactly when
its leading block A11 is, and its deficiency index is the number of
coordinates outside the domain.
"""

import numpy as np

from stieltjesmp import (
    analyze,
    build_shift,
    build_space,
    check_solvable,
    moment_sequence,
)

seq = moment_sequence([[[2.0]], [[3.0]], [[5.0]]])  # atoms {1, 2}, unit weights
rep = build_space(*check_solvable(seq).plain)  # the factor that decided solvability
X = rep.vectors
print("Gram rank (space dimension):", rep.dim)
print("Gram reproduction error:",
      f"{np.abs(X.conj().T @ X - rep.gram.gamma).max():.2e}")

op = build_shift(rep)
q1 = op.domain_dim
print("\nshift operator on D(A) = span{xi_0}:")
print("  consistency residual:", f"{op.consistency_residual:.2e}")
print("  (A xi_0, xi_0) =", np.vdot(X[:, 0], op.matrix @ X[:, 0]).real,
      " (equals S_1)")
print("  spectrum of A11:", np.linalg.eigvalsh(op.matrix[:q1, :q1]),
      " (non-negative, so A is; on the 1-dim domain it is S_1/S_0 = 1.5)")

pic = analyze(seq).picture
print("\ndeficiency index q = d - q1 =", pic.defect_dim, f"(d = {op.dim}, q1 = {q1})")
print("  the defect space at -1 is orthogonal to ran(A + E):",
      f"{np.abs(pic.defect_basis.conj().T @ (op.matrix + np.eye(op.dim))[:, :q1]).max():.2e}")

# a degenerate truncation that does NOT determine the shift: the Gram kernel
# forces xi_0 = xi_1 but the data demand A xi_0 != A xi_1.  These data fail
# the range condition, so analyze refuses them first; build_shift is called
# directly here to show its own check
from stieltjesmp import InconsistentTruncation

bad = moment_sequence([[[1.0]], [[1.0]], [[1.0]], [[1.0]], [[2.0]]])
try:
    build_shift(build_space(*check_solvable(bad).plain))
except InconsistentTruncation as exc:
    print("\ndegenerate truncation rejected as expected:\n ", exc)
