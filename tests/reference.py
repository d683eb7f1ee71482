"""Numerical derivatives, kept as references for the closed forms in
`magsphere`: complex step where the function takes complex input (V = cot,
or any kernel that does not call V), central differences otherwise."""

import numpy as np

from magsphere.reduced import rhs


def derivative_matrix(f, x, analytic: bool) -> np.ndarray:
    """df/dx at states x of shape (5, ...), with shape (..., 5, 5); f maps
    x to five components (array or tuple).

    Complex step (one call of f per column) when f accepts complex input,
    otherwise central differences with step 1e-6 (two calls per column).
    """
    x = np.asarray(x, dtype=float)
    last = (*range(1, x.ndim), 0)          # puts the component axis of f(x) last
    D = np.empty(x.shape[1:] + (5, 5))
    f_array = lambda z: np.asarray(f(z)).transpose(last)
    for j in range(5):
        if analytic:
            z = x.astype(complex)
            z[j] += 1e-200j
            D[..., j] = f_array(z).imag / 1e-200
        else:
            e = np.zeros_like(x)
            e[j] = 1e-6
            D[..., j] = (f_array(x + e) - f_array(x - e)) / 2e-6
    return D


def jacobian_matrix(x, params, V) -> np.ndarray:
    """d(rhs)/dx at states x of shape (5, ...), with shape (..., 5, 5):
    complex step for V = cot, central differences for a table."""
    return derivative_matrix(lambda z: rhs(z, params, V), x, V.analytic)
