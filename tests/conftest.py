import ctypes
from pathlib import Path

import hypothesis
import numpy as np

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


def _openblas_threads() -> str:
    """Threads of the OpenBLAS bundled with numpy once the package has
    pinned it, read through its own getter; `unknown` where numpy links
    another BLAS."""
    import alignrec  # noqa: F401  (pins OpenBLAS on import)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*.so*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_int
                return str(getter())
    return "unknown"


def pytest_report_header(config):
    # The recorded digests hold at one BLAS thread (OpenBLAS rounds products
    # differently with one thread than with several).
    return f"numpy OpenBLAS threads: {_openblas_threads()}"
