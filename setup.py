"""Setuptools shim.

Metadata lives in pyproject.toml; this file exists so that
``pip install -e .`` works through the legacy editable path in offline
environments without the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Design and Analysis of an APU for Exascale "
        "Computing' (HPCA 2017)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.21", "scipy>=1.7"],
)
