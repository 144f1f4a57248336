"""How long does a finite lattice look infinite?

Exact evolution on rings and open chains of the same size, compared with the
truncated size-free series.  The agreement window stretches as the lattice
grows: boundary effects need time to propagate to the observed site.
Moderate sizes keep this demo fast; push L up (budget: dimension 8000) to
watch the window widen further.
"""

import numpy as np

from blockade.dynamics import evolve, g2, taylor_oracle, universal_window
from blockade.series import density, eval_even_series, universality_threshold
from blockade.words import line, ring

L = 12
times = [round(0.25 * i, 10) for i in range(17)]  # 0 .. 4

ring_vals = evolve(ring(L), density(), times).values
line_vals = evolve(line(L), density(), times).values

# size-free series truncated at the certified threshold of this ring
jmax = universality_threshold(ring(L), density())
coeffs = taylor_oracle(ring(L), density(), jmax).coefficients

print(f"density on {L} sites: ring vs open chain vs truncated series")
print(f"{'t':>5} {'ring':>10} {'chain':>10} {'series':>10}")
for t, rv, lv in zip(times, ring_vals, line_vals):
    print(f"{t:>5} {rv:>10.6f} {lv:>10.6f} {eval_even_series(coeffs, t):>10.6f}")

# --- the universal window grows with the size ----------------------------------

grid = np.arange(0.0, 8.0, 0.05)
for pair in ((8, 10), (10, 12), (12, 14)):
    w = universal_window(ring(pair[0]), ring(pair[1]), grid, epsilon=1e-3)
    print(f"densities of {pair[0]}- and {pair[1]}-site rings split by 1e-3 at t = {w}")

# --- normalised pair correlations ----------------------------------------------

ts = [0.1, 0.5, 1.0, 2.0]
print("\nnormalised pair correlation on the 12-site ring:")
for d in (2, 3):
    vals = g2(ring(L), d, ts).values
    print(f"  d={d}: " + "  ".join(f"g2({t})={v:.4f}" for t, v in zip(ts, vals)))
print("(tends to 1 at short times: distant sites evolve almost independently)")
