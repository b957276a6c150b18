"""Exact-arithmetic classification of rank-3 hyperbolic generalized
Cartan matrices of elliptic (and parabolic) type with a lattice Weyl
vector, twisted to symmetric matrices."""
