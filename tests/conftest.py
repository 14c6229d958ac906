"""Suite-wide pytest hooks."""

import os

import numpy as np
import scipy


def pytest_report_header(config):
    """Library versions and the BLAS thread setting: the wall-clock budgets of
    the acceptance tests depend on the thread count."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"hhlab: numpy {np.__version__}, scipy {scipy.__version__}, "
            f"OPENBLAS_NUM_THREADS={threads}, cpu_count={os.cpu_count()}")
