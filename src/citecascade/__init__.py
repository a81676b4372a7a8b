"""Citation-cascade corpus construction, co-citation mapping, and overlay comparison.

The command line (:mod:`citecascade.cli`) is the interface; each layer is its own module.
"""

__version__ = "0.1.0"
