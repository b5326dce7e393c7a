import numpy as np
from setuptools import Extension, setup

kernel = Extension(
    "coricci.transport._mcf_cy",
    ["src/coricci/transport/_mcf_cy.c"],
    include_dirs=[np.get_include()],
    extra_compile_args=["-O3"],
    # Without a compiler the install still succeeds; coricci then selects
    # its pure-Python kernel at import time.
    optional=True,
)

setup(ext_modules=[kernel])
