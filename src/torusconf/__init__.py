"""Exact mod-2 cohomology of two-point configuration spaces of tori.

The package computes, by explicit GF(2) elimination, the cohomology of the
space of ordered pairs of distinct points of a d-torus as a module over the
coordinate swap, cross-checks the closed-form summand counts against that
brute force, and assembles the spectral-sequence tables of the associated
Borel construction for d = 2, 3.
"""

__version__ = "0.1.0"
