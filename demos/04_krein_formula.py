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

from stieltjesmp import analyze, make_tau, moment_sequence
from stieltjesmp.extensions import resolvent_from_contraction, spectral_solution
from stieltjesmp.krein import (
    check_stieltjes_class,
    constant_tau_of_extension,
    extension_of_constant_tau,
    krein_resolvent,
)

a = analyze(moment_sequence([[[2.0]], [[3.0]], [[5.0]]]))
gw = a.gamma_weyl
pic = a.picture

print("Weyl function on the spectral gap (-inf, 0): increasing, M(0) finite")
for x in (-3.0, -1.0, -0.3, -0.01):
    print(f"  M({x:+.2f}) = {gw.M(x)[0, 0].real:+.6f}")
print(f"  M(0)     = {gw.M0[0, 0].real:+.6f}   (= 40/39 for this instance)")

print("\ncanonical correspondence: solve the constant parameter of each"
      " extension t(s) = t_mu + s (t_M - t_mu)")
for s in (0.25, 0.5, 0.75, 1.0):
    t = 0.5 * ((pic.t_mu + s * (pic.t_M - pic.t_mu)) + (pic.t_mu + s * (pic.t_M - pic.t_mu)).conj().T)
    tau_c = constant_tau_of_extension(gw, t)[0, 0].real
    err = max(
        np.abs(
            krein_resolvent(gw, make_tau({"type": "constant", "matrix": [[tau_c]]}), z)
            - resolvent_from_contraction(t, z)
        ).max()
        for z in (1j, 2j, -1 + 1j)
    )
    print(f"  s = {s:.2f}: tau = {tau_c:+.6f}, formula vs direct resolvent: {err:.2e}")

print("\nideal parameter = Friedrichs corner exactly:")
tau_inf = make_tau({"type": "infinite"})
err = np.abs(
    krein_resolvent(gw, tau_inf, 1j) - resolvent_from_contraction(pic.t_mu, 1j)
).max()
print("  |R(inf, i) - R_i(t_mu)| =", f"{err:.2e}")

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
