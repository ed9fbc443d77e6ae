"""Exact computer algebra for singular plane octics and their stratum catalogue."""
