"""Imported before any test module: `dflsim` pins BLAS to one thread
(see `dflsim/__init__.py`), which only takes effect if it runs before
numpy first loads, and several test modules import numpy first."""
import dflsim  # noqa: F401
