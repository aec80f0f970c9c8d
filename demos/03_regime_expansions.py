"""Regime classification and the shape of the expansion in each regime.

The comparison of the hazard rate with t^-1 log t decides everything:

  supercritical (h above the scale): only maximal weights contribute, each
      with a full Laplace character of its residual sum;
  subcritical (h below): the largest m weight classes contribute their
      scaled tails, order zero;
  critical (h ~ lam t^-1 log t): weights down to c1 exp(-k/lam) contribute,
      with character orders reduced by the floor rule, and the significance
      bookkeeping reproduces the two-term case analysis exactly.
"""

import math

import lighttails as lt


def show(exp):
    print(f"    regime = {exp.regime.kind.value}"
          + (f" (lambda = {exp.regime.lam})" if exp.regime.lam else ""))
    for t in exp.terms:
        print(f"    term: scale {t.scale:<8.4g} D^{t.deriv_index}  "
              f"coeff {t.coeff:+.6g}  (character order {t.operator_order})")
    print(f"    remainder: {exp.remainder.describe()}")


print("=== supercritical: stretched exponential, weights (1, 1/2), order 3")
w = lt.weibull_type(0.4)
seq = lt.WeightSequence([1.0, 0.5])
show(lt.expand(w, seq, 3))

print("\n=== supercritical with a duplicated top weight (1, 1, 1/2), order 0")
show(lt.expand(w, lt.WeightSequence([1.0, 1.0, 0.5]), 0))

print("\n=== subcritical: two-piece log-scale tail, weights (1, 1/2, geometric)")
mix = lt.log_power_mixture(
    [(1.0, 1.0, [(1.0, 1.5)]),
     (1.0, 1.0, [(1.0, 1.5), (1.0, 0.25)])], t0=2.0)
seq_gen = lt.WeightSequence([1.0, 0.5], ratio=0.5)
show(lt.expand(mix, seq_gen, 2))

print("\n=== critical gate: squared-log tail (lambda = 1), order 1")
ln = lt.lognormal_type(0.5)
for c2, note in [(0.3, "below the threshold e^-1: derivative correction wins"),
                 (0.5, "above the threshold: the second scale wins"),
                 (math.exp(-1.0), "at the boundary: both kept, order floors to 0")]:
    print(f"  second weight {c2:.4f} ({note}):")
    show(lt.expand(ln, lt.WeightSequence([1.0, c2]), 1))

print("\n=== critical regime with a geometric tail of weights, order 2")
seq_geo = lt.WeightSequence([1.0], ratio=0.5)
show(lt.expand(ln, seq_geo, 2))
