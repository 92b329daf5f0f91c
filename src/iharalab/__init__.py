"""Reduced-cycle matrix identities, Ihara zeta series, and spectral limits.

The package computes exact counts of reduced (non-backtracking, tailless)
cycles on regular graphs through matrix recurrences, cross-checks them
against brute-force enumeration and the determinant form of the zeta
function, builds Ramanujan Cayley graphs from quaternion generators, and
verifies the Cesaro-limit and trace-formula behavior of the associated
principal-part matrices.  The API lives in the submodules; importing the
package loads every one of them.
"""

from . import chebyshev, errors, graphs, limits, lps, nbt, oracle, qext, series, spectral, suite, zeta

__version__ = "0.1.0"
