"""Trace coordinates, numerical monodromy and the dodecahedral lattice representation.

Importing the package loads no submodule: only ``abelmono`` needs numpy, and
the exact-algebra modules and the CLI's exact verbs run without it.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "abeldomain",
    "abelmono",
    "algebra",
    "charvar",
    "covering",
    "dodeca",
    "lorentz",
    "spingraft",
]
