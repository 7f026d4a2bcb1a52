from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "respfit._stepper",
            ["src/respfit/_stepper.c"],
            # The compiled stepper must stay bit-identical to the pure-Python
            # twin: FP contraction (fused multiply-add) or -ffast-math would
            # change results. x86-64 baseline GCC emits no FMA, so the tests
            # there cannot catch a missing -ffp-contract=off.
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ],
)
