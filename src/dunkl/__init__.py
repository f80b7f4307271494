"""Dunkl operators, the intertwining operator, and its Gaussian kernel.

The API lives in the submodules (``dunkl.operators``, ``dunkl.kernel``,
``dunkl.config``, ...); importing the bare package loads none of them, so
the exact commands of ``dunkl.cli`` never import numpy.
"""

__version__ = "0.1.0"
