"""Legacy setup shim.

The project has no packaging metadata: there is no ``pyproject.toml``, and
this shim declares nothing.  The code runs from the source tree with
``PYTHONPATH=src`` (see the Makefile and the CI workflow), so nothing needs
installing.
"""

from setuptools import setup

setup()
