"""``python3 -m perfbench``: one benchmark run, or ``--aa`` for an A/A table."""

import os
import sys

if __name__ == "__main__":
    # One BLAS thread, set before numpy is imported anywhere, so the
    # process really is single-threaded.
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"
    # The program under test lives in src/ beside this package; the
    # driver's command names no path outside perfbench/, so find it here.
    _src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.isdir(_src) and _src not in sys.path:
        sys.path.insert(0, _src)
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        sys.exit("perfbench: the program under test (src/repro) is neither beside perfbench/ nor installed")
    from perfbench.cli import main

    sys.exit(main())
