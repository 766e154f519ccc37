"""Parity oracles: earlier implementations of kernels that were replaced.

Each module keeps the replaced code verbatim so tests can assert that the
production kernel returns the same results, bit for bit.
"""
