"""Setuptools packaging for the ``repro`` package under ``src/``.

This file is the only packaging metadata in the repository (there is no
``pyproject.toml`` or ``setup.cfg``).  Installing is optional: the tests,
examples and benchmarks run straight from the checkout with
``PYTHONPATH=src``.  ``pip install -e .`` (or ``python setup.py develop`` on
machines without the ``wheel`` package, e.g. offline environments) puts the
package on the path instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
