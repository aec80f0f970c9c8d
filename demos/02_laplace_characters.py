"""Truncated differential-operator algebra on moment coefficients.

The character of order m of a distribution is sum_i ((-1)^i/i!) mu_i D^i.
Convolving distributions composes their characters (a morphism into the
truncated polynomial algebra), which is why residual-sum moments are all the
expansion engine ever needs.  Residual moments themselves come through
cumulants: additive over independent factors and degree-n homogeneous under
scaling, so geometric weight tails sum in closed form.
"""

import lighttails as lt

print("=== composition is convolution")
ma = (1.0, 1.0, 2.0)       # moments of A
mb = (1.0, 3.0, 10.0)      # moments of B
ca = lt.character_from_moments(ma, 2)
cb = lt.character_from_moments(mb, 2)
print(f"  char(A)            = {ca.coeffs}")
print(f"  char(B)            = {cb.coeffs}")
print(f"  char(A) o char(B)  = {lt.compose(ca, cb).coeffs}")
conv = lt.convolve_moments(ma, mb)
print(f"  moments of A + B   = {conv}")
print(f"  char(A + B)        = {lt.character_from_moments(conv, 2).coeffs}")

print("\n=== residual moments of a geometric weighted sum")
dist = lt.weibull_type(0.5, symmetric=True)
seq = lt.WeightSequence([1.0], ratio=0.5)   # weights 1, 1/2, 1/4, ...
print("  innovation: weibull_type(a=0.5)_symmetric; weights 2^-(i-1)")
print(f"  power sums without the top entry: "
      f"C2 = {seq.residual_power_sum(1, 2):.12f} (1/3), "
      f"C4 = {seq.residual_power_sum(1, 4):.12f} (1/15)")
mv = lt.residual_moments(dist, seq, 1, 4)
mu2, mu4 = dist.moment(2), dist.moment(4)
print(f"  residual mu_2 = {mv[2]:.12e}   C2 * mu_2 = {mu2 / 3:.12e}")
print(f"  residual mu_4 = {mv[4]:.12e}   "
      f"3(C2^2 - C4) mu_2^2 + C4 mu_4 = {3 * (1/9 - 1/15) * mu2**2 + mu4 / 15:.12e}")
print(f"  odd residual moments: {mv[1]}, {mv[3]} (symmetric innovation)")

print("\n=== applying a character to a scaled tail")
d = lt.weibull_type(0.5)
ch = lt.character_from_moments((1.0, 0.4), 1)
t = 50.0
value = lt.apply_character(ch, d, 1.0, t)
print(f"  (1 - 0.4 D) S at t = {t}: {value:.10e}")
print(f"  S(t) (1 + 0.4 h(t)):     {d.sf(t) * (1 + 0.4 * d.upper.hazard(t)):.10e}")
