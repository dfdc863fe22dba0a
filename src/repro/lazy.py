"""Package attributes that import their submodule on first use (PEP 562).

A package ``__init__`` that imports its submodules eagerly makes every
importer pay for all of them: ``import repro.runner.faults`` would load
the whole simulator.  The packages that bundle subsystems instead
install :func:`lazy_attributes` as their module ``__getattr__``.
"""

import sys


def _load(module):
    # ``__import__``, not ``importlib.import_module``: only the
    # interpreter's own import path is reported by ``-X importtime``
    __import__(module)
    return sys.modules[module]


def lazy_attributes(package, owners):
    """A module ``__getattr__`` for ``package``.

    ``owners`` maps each public name to the submodule that defines it; a
    name that is itself a submodule maps to ``None``.  Names are not
    cached in the package: every access reads the submodule's current
    binding, so a wrapper later installed on the submodule is what
    ``package.name`` returns.
    """

    def __getattr__(name):
        if name not in owners:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        owner = owners[name]
        if owner is None:
            return _load("%s.%s" % (package, name))
        return getattr(_load("%s.%s" % (package, owner)), name)

    return __getattr__
