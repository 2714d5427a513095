"""End to end: every solution verified, transforms inverted, files written.

The solve pipeline emits only measures that survive the moment round-trip
gate.  Generalized solutions (rational parameters) are the exact spectral
measures of exit-space extensions, Hermitian contractions on C^d + C^r.
Stieltjes-Perron inversion with Richardson extrapolation is the ``invert``
command: it recovers a measure from any sampled transform.
"""

import os
import tempfile

from stieltjesmp import analyze, make_tau, moment_sequence, solve_tau_grid, solve_with_tau
from stieltjesmp.cli import main
from stieltjesmp.solutions import perron_invert, transform_of_measure

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

print("\nStieltjes-Perron inversion (the invert command) of a two-pole transform:")
from stieltjesmp.solutions import solution_measure

target = solution_measure(1, [(1.0, [[1.0]]), (2.0, [[1.0]])])
recovered = perron_invert(
    lambda z: transform_of_measure(target, z), grid=(-0.5, 4.0)
)
for (lam, W), (lam0, W0) in zip(recovered.atoms, target.atoms):
    print(f"  atom {lam0:.1f}: position error {abs(lam - lam0):.2e}, "
          f"weight error {abs(W[0, 0] - W0[0, 0]):.2e}")

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
