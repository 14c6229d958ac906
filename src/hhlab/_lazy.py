"""Modules imported on first use.

With scipy 1.17, importing ``scipy.sparse``, ``scipy.sparse.csgraph`` or
``scipy.linalg`` passes through scipy's array-API shim, which imports
``numpy.f2py`` and ``numpy.testing``: about 0.2 s and 30 MB of a cold start.
The bound commands (``integral``, ``bound``, ``sweep``) need numpy alone, so
hhlab's modules reach scipy through :class:`LazyModule` proxies, and no
hhlab module loads any scipy module when imported.  The commands that solve
something pay the import at their first sparse or BLAS call.
"""

import importlib
import types

__all__ = ["LazyModule"]


class LazyModule(types.ModuleType):
    """Stands in for the module named ``name`` until one of its attributes
    is read.

    The first read of a name imports the module with
    :func:`importlib.import_module` and keeps the value on the proxy, so
    later reads are plain attribute lookups that return the real objects.
    Names beginning with ``__`` raise AttributeError without importing
    anything, so introspection (``inspect``, ``copy``, ``callable``, a walk
    of ``vars`` that reads ``__module__``) loads nothing.
    """

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self.__name__), attr)
        setattr(self, attr, value)
        return value

    def __repr__(self):
        return f"<lazy module {self.__name__!r}>"
