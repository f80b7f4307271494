"""Dunkl operators, the intertwining operator, and its Gaussian kernel.

The API lives in the submodules (``dunkl.operators``, ``dunkl.kernel``,
``dunkl.config``, ...); importing the bare package loads none of them.  The
package is pure Python: it needs no third-party module at run time.
"""

__version__ = "0.1.0"
