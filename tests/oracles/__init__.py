"""Parity oracles: earlier implementations of kernels that were replaced.

Each module keeps the replaced code verbatim so tests can assert that the
production kernel returns the same results, bit for bit.  Two exceptions:

* :mod:`tests.oracles.linkgain` is matched to ``rtol=1e-12`` on the gains and
  1e-12 dB on the shadowing, because the production map sums the shadowing
  in one AR(1) state instead of two and builds the gain with ``exp`` instead
  of ``10.0 **``, which round differently;
* :mod:`tests.oracles.powercontrol` keeps the Yates sweeps that the exact
  piecewise-linear solves replaced.  Run to ``tolerance=1e-13`` they are
  matched to ``rtol=1e-9`` (``atol=0``) on the powers and the finite Eb/Io,
  with ``nan`` in the same places and equal outage flags: the sweeps only
  approach the fixed point that the production solvers compute exactly.
"""
