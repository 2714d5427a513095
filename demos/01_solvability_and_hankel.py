"""Solvability of matrix moment data through block Hankel positivity.

We build the moments of a known discrete matrix measure, inspect the two
block Hankel families, and watch the solvability verdict flip when a moment
is pushed past the feasible boundary.
"""

import numpy as np

from stieltjesmp import (
    build_gamma,
    check_solvable,
    moment_sequence,
    moments_of_measure,
    scalarize,
    solution_measure,
)

# a 2x2 matrix measure: three atoms with full-rank weights, one cross-coupled
W_cross = np.array([[0.5, 0.25], [0.25, 0.5]])
measure = solution_measure(
    2, [(1.0, np.diag([1.0, 0.3])), (2.0, np.diag([0.4, 1.0])), (4.0, W_cross)]
)
seq = moments_of_measure(measure, p_max=5)

print("moment data S_0 .. S_5 of a three-atom 2x2 measure")
print("S_0 =\n", seq.moments[0].real)
print("S_3 =\n", seq.moments[3].real)

print("\nplain block Hankel of order 2 (blocks S_{i+j}):")
G2 = build_gamma(seq, 2)
print(np.array_str(G2.real, precision=3))

gram = scalarize(seq)
print("\nscalarized Gram: size", gram.size, "- entry (a, b) = s_{r+t; j, k}")
print("shift identity gamma[a+N, b] == gamma[a, b+N] holds bit-for-bit:",
      all(
          gram.gamma[a + 2, b] == gram.gamma[a, b + 2]
          for a in range(gram.size - 2)
          for b in range(gram.size - 2)
      ))

# one natural-order factor per Hankel family decides every order: entry k is
# the smallest relative pivot, pivot / max(G_jj, 1), of the order-k Hankel
report = check_solvable(seq)
print("\nsolvability verdict:", report.verdict)
print("min relative pivots (plain):  ", np.round(report.plain_min_pivots, 8))
print("min relative pivots (shifted):", np.round(report.shifted_min_pivots, 8))

# rank-deficient data are solvable but sit on the feasibility boundary: the
# verdict is "marginal" because the factor drops a column (a zero pivot)
thin = moments_of_measure(
    solution_measure(2, [(1.0, np.diag([1.0, 0.0]))]), p_max=2
)
thin_report = check_solvable(thin)
print("\nrank-one weight at a single atom:", thin_report.verdict,
      "- min relative pivots (plain):", np.round(thin_report.plain_min_pivots, 8))

# now break the data: drag S_4 down until the order-2 Hankel dips negative
mats = [S.copy() for S in seq.moments]
mats[4] -= 0.35 * np.eye(2) * np.linalg.norm(mats[4])
broken = moment_sequence(mats, N=2)
print("after perturbing S_4 downward:", check_solvable(broken).verdict)
