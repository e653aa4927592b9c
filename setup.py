"""Build script for the optional compiled hypergraph search kernel.

The package is fully functional without the extension; `ordcore._kernels`
falls back to the pure Python implementation when the compiled module is
missing or when a hypergraph is too large for 64-bit masks.
"""

import sys

from setuptools import Extension, setup


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        print("Cython not available, building without compiled kernels", file=sys.stderr)
        return []
    return cythonize(
        [
            Extension(
                "ordcore._kernels._ckernels",
                ["src/ordcore/_kernels/_ckernels.pyx"],
            )
        ],
        language_level=3,
    )


setup(ext_modules=extensions())
