import hashlib

from setuptools import Extension, setup

SOURCE = "src/respfit/_stepper.c"
with open(SOURCE, "rb") as fh:
    # exposed as respfit._stepper.SOURCE_SHA256, so a stale build can be told
    # apart from one of the source on disk
    SOURCE_SHA256 = hashlib.sha256(fh.read()).hexdigest()

setup(
    ext_modules=[
        Extension(
            "respfit._stepper",
            [SOURCE],
            define_macros=[("STEPPER_SOURCE_SHA256", f'"{SOURCE_SHA256}"')],
            # The compiled stepper must stay bit-identical to the pure-Python
            # twin: FP contraction (fused multiply-add) or -ffast-math would
            # change results. x86-64 baseline GCC emits no FMA, so the tests
            # there cannot catch a missing -ffp-contract=off.
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ],
)
