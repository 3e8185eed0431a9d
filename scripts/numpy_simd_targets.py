#!/usr/bin/env python3
"""List the SIMD targets numpy dispatches to at run time, or check that none is on.

    export NPY_DISABLE_CPU_FEATURES="$(python scripts/numpy_simd_targets.py)"
    python scripts/numpy_simd_targets.py --check

With every dispatch target switched off, numpy runs the kernels of its
compiled baseline, so a bit-for-bit test run that way does not depend on
the CPU it runs on. The target names differ between numpy versions (numpy
2.4 groups them as X86_V3, X86_V4, AVX512_ICL, AVX512_SPR; older versions
dispatch to SSE41, AVX, FMA3, AVX2, AVX512F, AVX512_SKX and more, over a
lower baseline) and numpy ignores names it does not know, so the list is
read from numpy rather than written down.

Without arguments, prints the targets separated by spaces. With --check,
prints the ones still enabled and exits 1 if there are any, else exits 0.
Exits 2 on any other argument.
"""

import sys

import numpy

if int(numpy.__version__.split(".")[0]) >= 2:
    from numpy._core import _multiarray_umath as umath
else:
    from numpy.core import _multiarray_umath as umath


def main(argv):
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    targets = list(umath.__cpu_dispatch__)
    if not argv:
        print(" ".join(targets))
        return 0
    enabled = [name for name in targets if umath.__cpu_features__.get(name)]
    print(f"numpy {numpy.__version__}, baseline: {' '.join(umath.__cpu_baseline__)}")
    print("dispatch targets still enabled:", " ".join(enabled) or "none")
    return 1 if enabled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
