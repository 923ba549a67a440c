"""Exact holomorph arithmetic, regular-subgroup classification, and
normality scans for circulant graphs."""

__version__ = "0.1.0"
