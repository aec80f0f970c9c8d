"""Polynomials expressing survival-function derivatives through the hazard rate.

Writing S(t) = S(t0) * exp(-integral of h), each derivative of S factors as
S^(k) = P_k * S where P_k is a polynomial in h and its derivatives.  The
recursion is

    P_0 = 1,    P_{k+1} = P_k' - h * P_k,

with the convention that differentiating the variable h^(j) yields h^(j+1).
The first few are P_1 = -h, P_2 = -h' + h^2, P_3 = -h'' + 3 h h' - h^3.

A monomial is stored as a tuple of exponents (e0, e1, ...) meaning
h^e0 * (h')^e1 * ..., its last exponent nonzero; a polynomial maps
monomials to (integer-valued) float coefficients.  Every monomial of P_k
has weight sum(e_j * (j + 1)) == k, so the term count stays O(partitions
of k) rather than the full composition count.

Key order is part of the contract: poly_values sums the monomials in dict
order, so evaluated bits depend on it.  P_{k+1} lists the keys of P_k' in the
order differentiation first makes them, then the keys of -h * P_k not already
there, in P_k's order.  No coefficient cancels, so no key is ever dropped: by
induction every coefficient of a degree-s monomial has sign (-1)^s, since
differentiating keeps a monomial's degree and multiplies by a positive
exponent, while -h raises the degree by one and flips the sign, so every sum
adds terms of one sign.
"""

from __future__ import annotations

from functools import lru_cache

Monomial = tuple[int, ...]
HazardPolynomial = dict[Monomial, float]


def _next_poly(poly: HazardPolynomial) -> HazardPolynomial:
    """P' - h * P: differentiating a factor h^(j) moves one exponent from slot
    j to slot j + 1, so the last exponent never becomes 0."""
    out: HazardPolynomial = {}
    for mono, coeff in poly.items():
        for j, ej in enumerate(mono):
            if ej:
                key = mono[:j] + (ej - 1, (mono + (0,))[j + 1] + 1) + mono[j + 2:]
                out[key] = out.get(key, 0.0) + coeff * ej
    for mono, coeff in poly.items():
        key = (mono[0] + 1,) + mono[1:] if mono else (1,)
        out[key] = out.get(key, 0.0) - coeff
    return out


@lru_cache(maxsize=None)
def survival_derivative_polys(k_max: int) -> tuple[dict, ...]:
    """Return (P_0, ..., P_{k_max}); cached, coefficients are exact integers."""
    polys = [{(): 1.0}]
    for _ in range(k_max):
        polys.append(_next_poly(polys[-1]))
    return tuple(polys)


def poly_values(poly: HazardPolynomial, power):
    """Evaluate elementwise, where power(j, e) gives the array h^(j)(t) ** e."""
    total = 0.0
    for mono, coeff in poly.items():
        term = coeff
        for j, ej in enumerate(mono):
            if ej:
                term = term * power(j, ej)
        total = total + term
    return total

