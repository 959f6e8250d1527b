"""Packaging metadata for the reproduction harness.

The project is a pure-Python package with no third-party runtime
dependencies; ``pip install -e .`` installs the library plus the ``repro``
console script (so the CLI works without ``PYTHONPATH=src``).
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).resolve().parent
README = HERE / "README.md"

# Single source of truth for the version: src/repro/__init__.py.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-two-bit-register",
    version=VERSION,
    description=(
        "Executable reproduction of Mostefaoui & Raynal (PODC 2016): two-bit "
        "messages suffice for crash-tolerant atomic registers — plus a sharded "
        "multi-key store built from them"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="repro maintainers",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3 :: Only",
        "Topic :: System :: Distributed Computing",
        "Topic :: Scientific/Engineering",
    ],
    keywords="atomic register, linearizability, distributed algorithms, "
    "discrete-event simulation, ABD, PODC",
)
