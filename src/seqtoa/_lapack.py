"""The one owner of numpy's LAPACK gufuncs, for every stacked kernel.

Each ``np.linalg`` factorization, solve or inverse wraps a gufunc of
``numpy.linalg._umath_linalg``: it checks types, copies, sets an errstate that
turns one failed member into ``LinAlgError`` for the whole stack, and calls the
gufunc; on a batch of one that overhead is a third of the call.  The package's
stacked kernels call ``gufuncs`` directly, so each member gets the wrapper's
result bit for bit, under one rule: a member that fails comes back NaN (rank
-1 for ``lstsq``) and raises the FP-invalid flag, the caller's own rank,
conditioning or finiteness check fails that member alone, and ``ERRSTATE``,
entered once per public call, keeps the flag from escaping as a warning.
The tests pin each gufunc the package calls to its wrapper.
"""

import numpy as np
from numpy.linalg import _umath_linalg as gufuncs

ERRSTATE = np.errstate(all="ignore")
