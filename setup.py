"""Setuptools packaging for the reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so ``pip install -e .``
works in offline environments without the ``wheel`` package -- legacy
editable installs need exactly this file.  NumPy is a required dependency
of the package; only ``repro.analysis`` -- and so the ``repro-lint`` console
script, the installable face of ``python -m repro.analysis`` -- imports
without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro-matching",
    version="0.8.0",
    description="Reproduction: incremental (1+eps)-approximate matching "
                "(dynamic, MPC and CONGEST models)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-lint=repro.analysis.cli:main",
        ],
    },
)
