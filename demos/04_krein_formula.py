"""The resolvent formula: one parameter, one solution.

For an indeterminate problem the gamma field and Weyl function
turn the extension interval into a clean parameterization:

    R(tau, z) = R_z(t_mu) - gamma(z) (tau(z) + M(z) - M(0))^{-1} gamma(zbar)*

Hermitian constants tau <= 0 sweep the in-space extensions (tau = 0 is the
Krein corner, the ideal parameter is the Friedrichs corner); rational
parameters with PSD residues and positive poles reach solutions living in
larger spaces.
"""

import numpy as np

from stieltjesmp import analyze, make_tau, moment_sequence, solve_tau_grid
from stieltjesmp.extensions import spectral_solution
from stieltjesmp.krein import check_stieltjes_class, extension_of_constant_tau, solution_transform
from stieltjesmp.solutions import transform_of_measure

a = analyze(moment_sequence([[[2.0]], [[3.0]], [[5.0]]]))
gw = a.gamma_weyl
pic = a.picture

print("Weyl function on the spectral gap (-inf, 0): increasing, M(0) finite")
for x in (-3.0, -1.0, -0.3, -0.01):
    print(f"  M({x:+.2f}) = {gw.M(x)[0, 0].real:+.6f}")
print(f"  M(0)     = {gw.M0[0, 0].real:+.6f}   (= 40/39 for this instance)")

print("\ncanonical correspondence: the constant parameter of each extension"
      " t(s) = t_mu + s (t_M - t_mu) that solve_tau_grid walks")
for entry in solve_tau_grid(a, 4):
    tau_c = entry["tau_constant"][0, 0].real
    tau = make_tau({"type": "constant", "matrix": [[tau_c]]})
    err = max(
        np.abs(
            solution_transform(gw, tau, a.rep, 1, z)
            - transform_of_measure(entry["measure"], z)
        ).max()
        for z in (1j, 2j, -1 + 1j)
    )
    print(f"  s = {entry['s']:.2f}: tau = {tau_c:+.6f}, formula vs measure: {err:.2e}")

print("\nideal parameter = Friedrichs corner exactly:")
tau_inf = make_tau({"type": "infinite"})
err = np.abs(
    solution_transform(gw, tau_inf, a.rep, 1, 1j)
    - transform_of_measure(spectral_solution(pic.t_mu, a.rep, 1), 1j)
).max()
print("  |F(inf, i) - F_i(t_mu)| =", f"{err:.2e}")

print("\ndistinct parameters give distinct measures:")
for c in (-3.0, -1.0, 0.0):
    t = extension_of_constant_tau(gw, make_tau({"type": "constant", "matrix": [[c]]}))
    meas = spectral_solution(t, a.rep, 1)
    print(f"  tau = {c:+.1f}: atoms",
          [(round(l, 4), round(float(W[0, 0].real), 4)) for l, W in meas.atoms])

print("\nadmissibility is read off the normal form (tau(0) <= 0, no pole below 0):")
for desc, tau in [
    ("constant -1        ", make_tau({"type": "constant", "matrix": [[-1.0]]})),
    ("constant +1        ", make_tau({"type": "constant", "matrix": [[1.0]]})),
    ("pole at +1.5, PSD W", make_tau({"type": "rational", "tau0": [[-1.0]],
                                      "poles": [{"p": 1.5, "W": [[0.5]]}]})),
    ("pole at -1.0, PSD W", make_tau({"type": "rational", "tau0": [[0.0]],
                                      "poles": [{"p": -1.0, "W": [[2.0]]}]})),
    ("pole at -300, small", make_tau({"type": "rational", "tau0": [[-1.0]],
                                      "poles": [{"p": -300.0, "W": [[1e-3]]}]})),
]:
    ok, margin = check_stieltjes_class(tau)
    print(f"  {desc}: {'in class    ' if ok else 'out of class'} "
          f"(margin {margin:+.3e})")
