"""Exact verification toolkit for weight-k congruences on Gamma0 groups.

The package splits into an exact layer (field arithmetic, projective
matrices, a small group-ring calculus with machine-checkable congruence
certificates) and a numeric layer (high-precision q-expansion checks that
tie the formal certificates to actual modular forms).

The package root exports nothing: import each name from the module that
defines it, e.g. ``from gamma13.level13 import build_f_certificate``.
Importing ``gamma13`` alone loads no submodule.
"""
