"""Citation-cascade corpus construction, co-citation mapping, and overlay comparison.

The command line (:mod:`citecascade.cli`) is the interface; each layer is its own module.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy(name: str):
    """The module ``name``, registered in ``sys.modules`` but run on its first attribute access.

    Registering it, rather than importing inside the function that uses it, puts every
    layer in ``sys.modules`` as soon as its importer loads, so a wrapper from outside
    (such as a tracer that walks ``sys.modules``) sees, loads and wraps each one.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module
