"""Acceleration mode of the package.

The package has one interpreted numpy code path; nothing is compiled.  The
constant stays only because the benchmark's environment fingerprint
(``perfbench/run.py:fingerprint``) reads it.
"""

NUMBA_ENABLED = False
