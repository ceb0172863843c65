"""The kernel flag of benchmark result records.

The package has one numpy path: the pre-ranks and the fan scores live in
``scores``, the profit pools in ``trading``.  ``USE_NUMBA`` stays only
because the pipeline benchmark's environment record (``pipebench/run.py``)
reads it; no module of the package imports this one.
"""

USE_NUMBA = False
