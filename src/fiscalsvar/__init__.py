"""Government-spending multipliers from small quarterly VARs.

Pipeline: raw country CSVs -> transformed panel -> VAR with exogenous
controls -> recursive identification -> IRFs -> cumulative multipliers,
with residual-bootstrap bands and a synthetic-data oracle for validation.

The modules are imported by name (``fiscalsvar.var``, ``fiscalsvar.cli``,
...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
