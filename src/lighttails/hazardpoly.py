"""Polynomials expressing survival-function derivatives through the hazard rate.

Writing S(t) = S(t0) * exp(-integral of h), each derivative of S factors as
S^(k) = P_k * S where P_k is a polynomial in h and its derivatives.  The
recursion is

    P_0 = 1,    P_{k+1} = P_k' - h * P_k,

with the convention that differentiating the variable h^(j) yields h^(j+1).
The first few are P_1 = -h, P_2 = -h' + h^2, P_3 = -h'' + 3 h h' - h^3.

A monomial is stored as a tuple of exponents (e0, e1, ...) meaning
h^e0 * (h')^e1 * ..., with trailing zeros trimmed; a polynomial maps
monomials to (integer-valued) float coefficients.  Every monomial of P_k
has weight sum(e_j * (j + 1)) == k, so the term count stays O(partitions
of k) rather than the full composition count.
"""

from __future__ import annotations

from functools import lru_cache

Monomial = tuple[int, ...]
HazardPolynomial = dict[Monomial, float]


def _trim(exponents: list[int]) -> Monomial:
    while exponents and exponents[-1] == 0:
        exponents.pop()
    return tuple(exponents)


def poly_derivative(poly: HazardPolynomial) -> HazardPolynomial:
    """Differentiate, mapping each factor h^(j) to h^(j+1) via the chain rule."""
    out: HazardPolynomial = {}
    for mono, coeff in poly.items():
        for j, ej in enumerate(mono):
            if ej == 0:
                continue
            exps = list(mono)
            exps[j] -= 1
            if len(exps) < j + 2:
                exps.extend([0] * (j + 2 - len(exps)))
            exps[j + 1] += 1
            key = _trim(exps)
            out[key] = out.get(key, 0.0) + coeff * ej
    return {k: v for k, v in out.items() if v != 0.0}


def poly_times_minus_hazard(poly: HazardPolynomial) -> HazardPolynomial:
    out: HazardPolynomial = {}
    for mono, coeff in poly.items():
        key = (mono[0] + 1,) + mono[1:] if mono else (1,)
        out[key] = out.get(key, 0.0) - coeff
    return out


def poly_add(a: HazardPolynomial, b: HazardPolynomial) -> HazardPolynomial:
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0.0) + coeff
    return {k: v for k, v in out.items() if v != 0.0}


@lru_cache(maxsize=None)
def survival_derivative_polys(k_max: int) -> tuple[dict, ...]:
    """Return (P_0, ..., P_{k_max}); cached, coefficients are exact integers."""
    polys = [{(): 1.0}]
    for _ in range(k_max):
        prev = polys[-1]
        polys.append(poly_add(poly_derivative(prev), poly_times_minus_hazard(prev)))
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

