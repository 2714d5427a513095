"""End to end: every solution an exact, verified spectral measure; files written.

The solve pipeline emits only measures that survive the moment round-trip
gate.  Generalized solutions (rational parameters) are the exact spectral
measures of exit-space extensions, Hermitian contractions on C^d + C^r, so
no transform needs inverting: the measure's own transform matches the
resolvent formula of its parameter to roundoff.
"""

import os
import tempfile

import numpy as np

from stieltjesmp import (
    analyze,
    make_tau,
    moment_sequence,
    solution_transform,
    solve_tau_grid,
    solve_with_tau,
    transform_of_measure,
)
from stieltjesmp.cli import main

a = analyze(moment_sequence([[[2.0]], [[3.0]], [[5.0]]]))

print("canonical family along the extension segment (every entry gated):")
for entry in solve_tau_grid(a, 4):
    m = entry["measure"]
    print(f"  s = {entry['s']:.2f}: atoms",
          [(round(l, 4), round(float(W[0, 0].real), 4)) for l, W in m.atoms],
          "| worst moment error", f"{max(entry['verification']['errors']):.2e}")

print("\na generalized solution from a rational parameter (pole at +1.5):")
tau = make_tau({"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]})
entry = solve_with_tau(a, tau)
m = entry["measure"]
print("  atoms:", [(round(l, 6), round(float(W[0, 0].real), 6)) for l, W in m.atoms])
print("  spectral measure of a 3 x 3 exit-space contraction (exact:",
      f"{entry['exact']}); moment errors:",
      [f"{e:.2e}" for e in entry["verification"]["errors"]])

print("\nits transform against the resolvent formula of the parameter:")
zs = (1j, 2j, -1 + 1j, 0.5 + 0.5j)
gap = max(
    np.abs(solution_transform(a.gamma_weyl, tau, a.rep, 1, z) - transform_of_measure(m, z)).max()
    for z in zs
)
print(f"  max |solution_transform - transform_of_measure| over {len(zs)} z: {gap:.2e}")

print("\nthe batch interface ties it together (JSON in, JSON/CSV out):")
with tempfile.TemporaryDirectory() as tmp:
    mfile = os.path.join(tmp, "moments.json")
    gfile = os.path.join(tmp, "truth.json")
    sfile = os.path.join(tmp, "solutions.json")
    main(["gen", "--atoms", "1:1,2:1", "--out-moments", mfile, "--out-measure", gfile])
    print("  gen -> check exit:",
          main(["check", mfile, "--out", os.path.join(tmp, "check.json")]))
    code = main(["solve", mfile, "--tau-grid", "3", "--out", sfile,
                 "--cumulative-csv", os.path.join(tmp, "cum")])
    print("  solve exit:", code, "| files:",
          sorted(os.path.basename(p) for p in os.listdir(tmp)))
