"""Fixed reference work, timed by the benchmark next to every pass.

    python3 perfbench/reference.py

It does not import veronese, so no change to the program moves its time; it
only tracks how fast the host is at that moment.  Its work has the same kinds
as the workloads' commands: interpreter start and numpy import, batched
einsum contractions over small tensors, batched small linear solves, and
float-to-text formatting.  It prints one checksum line, the same on every run.
"""

import numpy as np

rng = np.random.default_rng(20181224)
components = rng.standard_normal((45, 13, 13))
points = rng.standard_normal((400, 13))

total = 0.0
for _ in range(4):
    images = np.einsum("kij,pi,pj->pk", components, points, points)
    tangent = np.einsum("kij,pi,bj->pbk", components, points, points[:4])
    gram = np.einsum("pbk,pck->pbc", tangent, tangent) + 13.0 * np.eye(4)
    total += float(np.linalg.solve(gram, tangent[:, :, :1]).sum()) + float(images.sum())

rows = "\n".join(",".join(map(repr, row)) for row in images[:, :20].tolist())
print(f"{total:.6e} {len(rows)}")
