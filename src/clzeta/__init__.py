"""clzeta: exact Cohen-Lenstra generating functions with brute-force oracles.

Submodules:

* :mod:`clzeta.arith` -- prime test, integer roots, one prime-factor sieve.
* :mod:`clzeta.series` -- truncated multivariate power series over Q, exact.
* :mod:`clzeta.partitions` -- partitions and module statistics (|Aut|, |End|).
* :mod:`clzeta.dirichlet` -- formal Dirichlet prefixes, zeta factories.
* :mod:`clzeta.formulas` -- the closed-form generating functions.
* :mod:`clzeta.oracle` -- exhaustive counting engines.
* :mod:`clzeta.verify` -- named suites comparing formulas against oracles.
"""

from .partitions import Partition
from .series import INF, TruncSeries, VarSpec, pochhammer

__version__ = "0.1.0"

__all__ = ["INF", "Partition", "TruncSeries", "VarSpec", "pochhammer", "__version__"]
