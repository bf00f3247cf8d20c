"""Setup shim.

The project is declared in ``pyproject.toml``.  This file only exists so
that ``python setup.py install`` still works offline where pip's PEP 517
builds cannot run because the ``wheel`` package is missing.
"""

from setuptools import setup

setup()
