"""Exact-arithmetic workbench for N-homogeneous algebras and their duals."""

__version__ = "0.1.0"
