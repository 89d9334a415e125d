"""Independent 40-digit references for the radial profiles, from mpmath.

The cylinder functions at x = iX are rebuilt from mpmath.besseli and
mpmath.besselk with the documented conventions

    J_nu(iX)  = e^{+i pi nu/2} I_nu(X)
    H1_nu(iX) = (2/(i pi)) e^{-i pi nu/2} K_nu(X)
    H2 = 2 J - H1,   N = (H1 - J)/i

and x dF/dx comes from the derivative averages I' = (I_{nu-1} + I_{nu+1})/2
and K' = -(K_{nu-1} + K_{nu+1})/2, not from the one-sided order shift the
package uses, so the reference shares no recurrence with the code it checks.
"""

from __future__ import annotations

import mpmath

DIGITS = 40

# branch name -> (cylinder kind, sign of the imaginary base order)
BRANCHES = {
    "bessel+": ("J", +1),
    "bessel-": ("J", -1),
    "hankel1": ("H1", +1),
    "hankel2": ("H2", +1),
    "neumann+": ("N", +1),
    "neumann-": ("N", -1),
}


def _cylinder(kind, nu, X):
    """(C_nu(iX), X d/dX C_nu(iX)) for one cylinder kind."""
    if kind == "J":
        phase = mpmath.exp(0.5j * mpmath.pi * nu)
        value = phase * mpmath.besseli(nu, X)
        deriv = phase * X * (mpmath.besseli(nu - 1, X)
                             + mpmath.besseli(nu + 1, X)) / 2
        return value, deriv
    if kind == "H1":
        factor = (2 / (1j * mpmath.pi)) * mpmath.exp(-0.5j * mpmath.pi * nu)
        value = factor * mpmath.besselk(nu, X)
        deriv = -factor * X * (mpmath.besselk(nu - 1, X)
                               + mpmath.besselk(nu + 1, X)) / 2
        return value, deriv
    j_val, j_der = _cylinder("J", nu, X)
    h_val, h_der = _cylinder("H1", nu, X)
    if kind == "H2":
        return 2 * j_val - h_val, 2 * j_der - h_der
    return (h_val - j_val) / 1j, (h_der - j_der) / 1j


def profile_G(branch: str, omega: float, X: float):
    """Reference (G1, G2) at X, with G2 = (x/omega) dG1/dx, as Python complex."""
    kind, sign = BRANCHES[branch]
    with mpmath.workdps(DIGITS):
        w = mpmath.mpf(omega)
        value, deriv = _cylinder(kind, sign * 1j * w, mpmath.mpf(X))
        return complex(value), complex(deriv / w)
