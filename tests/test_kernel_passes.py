"""How many ascending-series passes and K route calls each public kernel
call makes.

The counts do not depend on the machine, so they are a fixed table:
each hankel2 or neumann+- `eval_G` sums I_nu once for J_nu and for
K_nu's reflection route, and `wronskian_IK` sums each of its three I
orders once.  The quadrature and contour counts pin how often the
costly K routes run.

    PYTHONPATH=src python tests/test_kernel_passes.py

prints the table.
"""

import numpy as np
import pytest

from lobwave import specfun
from lobwave.modes import ModeParams, eval_G
from lobwave.specfun import BasisBranch, wronskian_IK

# the counted routes, by the name the count is printed under
_ROUTES = {
    "_i_series": "I series",
    "_i_series_grid": "I series",
    "_k_quadrature": "K quadrature",
    "_k_contour": "K contour",
}

# (omega, X): one float cell per K route, two of them reflection-route
# cells (w > 3, and X <= 0.1), and one grid crossing three routes
_CELLS = (
    (5.0, 2.0),
    (2.0, 0.05),
    (2.0, 1.0),
    (2.0, 5.0),
    (2.0, (0.05, 1.0, 5.0)),
)


def route_calls(call):
    """{route name: calls} while call() runs."""
    counts = dict.fromkeys(_ROUTES.values(), 0)
    saved = {name: getattr(specfun, name) for name in _ROUTES}

    def counting(name):
        def route(*args):
            counts[_ROUTES[name]] += 1
            return saved[name](*args)
        return route

    try:
        for name in _ROUTES:
            setattr(specfun, name, counting(name))
        call()
    finally:
        for name, route in saved.items():
            setattr(specfun, name, route)
    return counts


def _calls(omega, X):
    """(label, call) for each branch's eval_G and for wronskian_IK at one
    cell; X = kappa e^z with z = 0 on a float and kappa = 1 on a grid."""
    if isinstance(X, tuple):
        p, z, X = ModeParams(omega, 1.0, 0.0), np.log(X), np.array(X)
    else:
        p, z = ModeParams(omega, X, 0.0), 0.0
    calls = [(branch.value, lambda b=branch: eval_G(b, p, z))
             for branch in BasisBranch]
    calls.append(("wronskian_IK", lambda: wronskian_IK(omega, X)))
    return calls


# (I series, K quadrature, K contour) per call, at each of _CELLS in
# turn.  The reflection route sums I_nu and, where Re nu != 0, I_{-nu};
# at Re nu = 0, I_{-nu} is conj I_nu.
_EXPECTED = {
    # J alone: I at nu, at nu +- 1, and at nu again
    "bessel+": ((3, 0, 0), (3, 0, 0), (3, 0, 0), (3, 0, 0), (3, 0, 0)),
    "bessel-": ((3, 0, 0), (3, 0, 0), (3, 0, 0), (3, 0, 0), (3, 0, 0)),
    # K alone: on the reflection route I_nu; I_{nu+1} and I_{-nu-1}; I_nu
    "hankel1": ((4, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 3), (4, 3, 3)),
    # J and K share each I order: the reflection route adds I_{-nu-1} alone
    "hankel2": ((4, 0, 0), (4, 0, 0), (3, 3, 0), (3, 0, 3), (4, 3, 3)),
    "neumann+": ((4, 0, 0), (4, 0, 0), (3, 3, 0), (3, 0, 3), (4, 3, 3)),
    "neumann-": ((4, 0, 0), (4, 0, 0), (3, 3, 0), (3, 0, 3), (4, 3, 3)),
    # I at nu, nu - 1 and nu + 1, shared with K; the reflection route adds
    # I_{1-nu} and I_{-1-nu}
    "wronskian_IK": ((5, 0, 0), (5, 0, 0), (3, 3, 0), (3, 0, 3), (5, 3, 3)),
}


@pytest.mark.parametrize("cell", range(len(_CELLS)))
def test_each_i_order_is_summed_once_per_call(cell):
    omega, X = _CELLS[cell]
    for label, call in _calls(omega, X):
        counts = route_calls(call)
        got = (counts["I series"], counts["K quadrature"], counts["K contour"])
        assert got == _EXPECTED[label][cell], label


def test_a_grid_of_many_blocks_calls_each_route_once_per_share():
    # 201 X over the 3-point cell's range: each route takes its whole
    # share in one call and blocks it itself, so the counts are the 3-point
    # cell's
    omega, X = _CELLS[-1]
    grid = tuple(np.geomspace(X[0], X[-1], 201).tolist())
    for label, call in _calls(omega, grid):
        counts = route_calls(call)
        got = (counts["I series"], counts["K quadrature"], counts["K contour"])
        assert got == _EXPECTED[label][-1], label


def test_counting_restores_the_routes():
    before = {name: getattr(specfun, name) for name in _ROUTES}
    route_calls(lambda: wronskian_IK(2.0, 1.0))
    assert {name: getattr(specfun, name) for name in _ROUTES} == before


if __name__ == "__main__":
    for omega, X in _CELLS:
        for label, call in _calls(omega, X):
            counts = "  ".join(f"{route} {n}" for route, n in route_calls(call).items())
            print(f"{counts}  {label} omega={omega} X={X}")
