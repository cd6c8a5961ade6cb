"""sinech: sine-spectral simulation and verification toolkit for the
2D Cahn-Hilliard equation with inertia,

    u_tt + u_t + A(Au + f(u)) = g,    u = Delta u = 0 on the boundary,

on the square (0, side)^2, where A = -Delta with Dirichlet conditions.
Everything lives in the orthonormal sine eigenbasis of A, which makes
operator powers, Galerkin projections, and the phase-space norms exact.
"""

__version__ = "0.1.0"
