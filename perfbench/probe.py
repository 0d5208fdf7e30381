"""Host-speed probe for ``run.py``: a fixed piece of work in a fresh interpreter.

    python3 -I perfbench/probe.py

It runs no memkernel code.  It imports numpy and scipy.linalg, then does a
fixed mix of the kinds of work the samples do: an interpreted Python loop,
small matrix products, a streaming pass over a 40 MB array, 1600x1600
matrix-vector products, and filling freshly allocated 20 MB arrays.  The
last part is there because memkernel allocates its dense convolution
matrices anew on every call, so page faults take much of
``long_horizon``'s time.  run.py times the whole process; see
``PROBE_REF_S`` there for how the time is used.
"""

import numpy as np
import scipy.linalg  # noqa: F401  (its import is part of the probe)

x = 0
for i in range(400_000):
    x += i * i
a = np.full((100, 100), 0.5)
for _ in range(800):
    a @ a
big = np.full(5_000_000, 1.0)
for _ in range(4):
    (big * 1.0001).sum()
m, v = np.full((1600, 1600), 0.25), np.full(1600, 1.0)
for _ in range(40):
    m @ v
for _ in range(20):
    np.ones(m.shape)
