"""Exact q-series toolkit for theta functions, the E8 lattice and
equivariant index series of circle actions with isolated fixed points.

Every name is imported from its module (e8theta.theta, e8theta.index, ...);
the package root re-exports nothing."""
