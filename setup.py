"""Setup shim.

The primary metadata lives in ``pyproject.toml``.  This file exists so the
package remains installable in fully offline environments whose setuptools
predates vendored wheel support (``pip install -e .`` needs the ``wheel``
package for PEP 660 builds; ``python setup.py develop`` does not).
The Python floor is repeated here for setuptools too old to read the
``[project]`` table; keep it equal to ``requires-python`` (3.10: the step
records are ``slots=True`` dataclasses).
"""

from setuptools import setup

setup(python_requires=">=3.10")
