"""A typed multi-layer string diagram calculus with rewriting, explanation
checking, and finite profunctor-style semantics.

The package exports only ``__version__``; import the module you need, e.g.
``from layerprop import rewrite as rw``.  Importing the package loads none
of them."""

__version__ = "0.1.0"
