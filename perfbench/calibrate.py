"""Host-speed calibration kernel, served to run.py from a process of its own.

Reads one line per sample from stdin and answers with the kernel's time in
seconds.  It imports numpy but never delayplatoon, so nothing the package
does in the benchmark process can change its timing.
"""

import sys
import time

import numpy as np


def kernel(grid: np.ndarray) -> float:
    """Interpreted float arithmetic (like the stepper) and vectorized complex
    exponentials (like the root scan)."""
    s = x = 0.0
    for k in range(30_000):
        x = 0.5 * x + 1.0 / (k + 1.0)
        s += x * x
    z = np.exp(1j * grid) * grid
    return s + float(np.abs(z).sum())


def main() -> int:
    grid = np.linspace(0.0, 50.0, 100_000)
    kernel(grid)
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel(grid)
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
