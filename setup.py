# Builds the optional C kernel for the matrix-point oracle.  The extension is
# optional: without a C compiler the build skips it and the package uses the
# pure-Python kernel.  Build in place with:  python setup.py build_ext --inplace

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "clzeta.oracle._kernels",
            sources=["src/clzeta/oracle/_kernels.c"],
            optional=True,
        )
    ]
)
