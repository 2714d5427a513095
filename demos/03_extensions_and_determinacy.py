"""The Cayley picture: extremal extensions, the gap, and determinacy.

The shift trades for a Hermitian contraction T on D(T) = (A + E) D(A); its
self-adjoint contractive extensions fill the operator interval between the
Friedrichs corner t_mu and the Krein corner t_M.  The moment problem is
determinate exactly when the interval collapses, and that happens exactly
when the defect is trivial: on a non-trivial defect space the gap between the
corners is positive definite.
"""

import numpy as np

from stieltjesmp import analyze, moment_sequence
from stieltjesmp.extensions import resolvent_from_contraction, spectral_solution
from stieltjesmp.solutions import verify_moments

for label, mats in [
    ("single atom at 1 (S = [1,1,1])", [[[1.0]], [[1.0]], [[1.0]]]),
    ("unit mass at 0 (S = [1,0,0])", [[[1.0]], [[0.0]], [[0.0]]]),
    ("two atoms {1,2} (S = [2,3,5])", [[[2.0]], [[3.0]], [[5.0]]]),
]:
    a = analyze(moment_sequence(mats))
    v = a.verdict
    print(f"{label}:")
    print(f"  defect {v.defect_dim}, gap norm {v.gap_norm:.6f} ->",
          "determinate" if v.determinate else "indeterminate")

a = analyze(moment_sequence([[[2.0]], [[3.0]], [[5.0]]]))
pic = a.picture
print("\ntwo-atom instance, extremal contraction spectra:")
print("  eig t_mu:", np.round(np.linalg.eigvalsh(pic.t_mu), 6))
print("  eig t_M: ", np.round(np.linalg.eigvalsh(pic.t_M), 6))

print("\nthe segment t_mu + s C that solve_tau_grid walks sits inside [t_mu, t_M]:")
worst = np.inf
for s in np.linspace(0.0, 1.0, 11):
    t = pic.t_mu + s * pic.C
    worst = min(
        worst,
        np.linalg.eigvalsh(t - pic.t_mu).min(),
        np.linalg.eigvalsh(pic.t_M - t).min(),
    )
print("  worst interval eigenvalue over s = 0, 0.1, ..., 1:", f"{worst:.2e}")

print("\nresolvent ordering (A_mu + x)^-1 <= (A + x)^-1 <= (A_M + x)^-1 at x = 1:")
R_mu = resolvent_from_contraction(pic.t_mu, -1.0)
R_M = resolvent_from_contraction(pic.t_M, -1.0)
t_mid = 0.5 * (pic.t_mu + pic.t_M)
R_mid = resolvent_from_contraction(t_mid, -1.0)
print("  min eig (mid - mu):", f"{np.linalg.eigvalsh(R_mid - R_mu).min():.2e}")
print("  min eig (M - mid): ", f"{np.linalg.eigvalsh(R_M - R_mid).min():.2e}")

print("\nthe Friedrichs corner of a truncated problem pushes mass to infinity:")
m_mu = spectral_solution(pic.t_mu, a.rep, 1)
print("  finite part:", [(round(l, 6), round(float(W[0, 0].real), 6)) for l, W in m_mu.atoms],
      "+ flagged mass at infinity")
print("  round trip:", verify_moments(m_mu, a.seq)["errors"],
      "(top moment short by the escaped mass)")

m_M = spectral_solution(pic.t_M, a.rep, 1)
print("the Krein corner parks an atom at the origin instead:")
print("  atoms:", [(round(l, 6), round(float(W[0, 0].real), 6)) for l, W in m_M.atoms])
print("  round trip errors:", np.round(verify_moments(m_M, a.seq)["errors"], 12))
