"""Deterministic benchmark inputs, generated from the workload seed.

Trees are built here with numpy, not with the library, so that set-up does
not depend on the code under test and the output checks in ``oracle.py``
share nothing with it.  The distributions follow ``metrictrees.sampling``:
uniform random attachment with edge lengths uniform on [0.2, 2.5], and
points that sit on a node with probability 1/4 and otherwise uniformly inside
a random edge.

Internally a tree keeps its generation labels, in which ``parent[i] < i`` and
node 0 is the root.  The file a request reads shows the nodes under a random
permutation (``perm[internal] == file id``), lists the edges in random order
and orientation, and writes each edge point from a randomly chosen end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oracle import TreeMetric, matrix_verdict

WORKLOADS = ("shallow", "deep", "recognize")
SIZES = {"shallow": (500, 2000, 8000), "deep": (500, 2000, 8000), "recognize": (20, 30, 40)}
TREE_KINDS = ("measure", "cover_radius", "cover_diameter", "kappa")
MATRIX_KINDS = ("check", "build")
# two of every three matrices are additive; the third has one pair perturbed
MATRIX_VARIANTS = (True, True, False)
N_POINTS = 24
LENGTHS = (0.2, 2.5)


@dataclass(frozen=True)
class Slot:
    """One request: which input it reads and how it is generated."""

    workload: str
    kind: str
    size: int
    round: int
    index: int  # position inside the round's generation order
    additive: bool = True  # recognize only

    @property
    def name(self) -> str:
        return f"r{self.round:03d}-{self.index:02d}-{self.kind}-{self.size}"

    @property
    def suffix(self) -> str:
        if self.workload != "recognize":
            return ".tree"
        return ".csv" if (self.round + self.index) % 2 == 0 else ".tri"


def round_slots(workload: str, rnd: int, seed: int) -> list[Slot]:
    """The requests of one round, in the order they are sent.

    A round holds every (kind, size) combination in equal numbers, so a
    loop that stops at a round boundary always runs the intended mix.
    """
    if workload == "recognize":
        combos = [(k, s, a) for k in MATRIX_KINDS for s in SIZES[workload] for a in MATRIX_VARIANTS]
    else:
        combos = [(k, s, True) for k in TREE_KINDS for s in SIZES[workload]]
    slots = [Slot(workload, k, s, rnd, i, a) for i, (k, s, a) in enumerate(combos)]
    order = _rng(seed, workload, rnd, 9999).permutation(len(slots))
    return [slots[i] for i in order]


def warmup_slots(workload: str, rnd: int) -> list[Slot]:
    """One request of each kind, at the smallest size."""
    small = SIZES[workload][0]
    kinds = MATRIX_KINDS if workload == "recognize" else TREE_KINDS
    return [Slot(workload, k, small, rnd, i) for i, k in enumerate(kinds)]


def _rng(seed: int, workload: str, rnd: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), rnd, index])


# --------------------------------------------------------------------- #
# Trees                                                                   #
# --------------------------------------------------------------------- #


@dataclass
class TreeCase:
    metric: TreeMetric
    perm: np.ndarray  # internal label -> file id
    pt_node: np.ndarray  # internal node below each point
    pt_up: np.ndarray  # distance from that node up toward its parent
    diam: float  # largest distance between two of the points

    def text(self, rng: np.random.Generator) -> str:
        m = self.metric
        perm = self.perm
        child = np.arange(1, m.n)
        flip = rng.random(m.n - 1) < 0.5
        tail = np.where(flip, perm[child], perm[m.parent[child]])
        head = np.where(flip, perm[m.parent[child]], perm[child])
        order = rng.permutation(m.n - 1)
        lines = [
            f"edge {u} {v} {length!r}"
            for u, v, length in zip(
                tail[order].tolist(), head[order].tolist(), m.length[child][order].tolist()
            )
        ]
        from_child = rng.random(len(self.pt_node)) < 0.5
        for k, (c, up) in enumerate(zip(self.pt_node.tolist(), self.pt_up.tolist())):
            if up == 0.0:
                lines.append(f"point p{k} node {perm[c]}")
            elif from_child[k]:
                lines.append(f"point p{k} edge {perm[c]} {perm[m.parent[c]]} {up!r}")
            else:
                offset = float(m.length[c]) - up
                lines.append(f"point p{k} edge {perm[m.parent[c]]} {perm[c]} {offset!r}")
        return "\n".join(lines) + "\n"


def make_tree(slot: Slot, seed: int) -> tuple[TreeCase, np.random.Generator]:
    rng = _rng(seed, slot.workload, slot.round, slot.index)
    n = slot.size
    if slot.workload == "shallow":
        i = np.arange(1, n)
        parent = np.concatenate(([-1], (rng.random(n - 1) * i).astype(np.int64)))
    else:  # caterpillar: spine 0..n/2-1, tooth n/2 + j hangs off spine node j
        half = n // 2
        parent = np.concatenate(([-1], np.arange(half - 1), np.arange(half)))
    length = np.concatenate(([0.0], rng.uniform(*LENGTHS, n - 1)))
    metric = TreeMetric(parent, length)
    perm = rng.permutation(n)

    on_node = rng.random(N_POINTS) < 0.25
    pt_node = np.where(on_node, rng.integers(0, n, N_POINTS), rng.integers(1, n, N_POINTS))
    pt_up = np.where(on_node, 0.0, rng.uniform(0.0, 1.0, N_POINTS) * length[pt_node])
    d = metric.pairwise(pt_node, pt_up)
    return TreeCase(metric, perm, pt_node, pt_up, float(d.max())), rng


def tree_argv(slot: Slot, case: TreeCase, path: str, kappa_seed: int) -> list[str]:
    if slot.kind == "measure":
        return ["measure", path, "--n", "4"]
    if slot.kind == "cover_radius":
        return ["cover", path, "--radius", repr(case.diam / 8)]
    if slot.kind == "cover_diameter":
        return ["cover", path, "--diameter", repr(case.diam / 4)]
    return ["kappa", path, "--trials", "1", "--seed", str(kappa_seed)]


# --------------------------------------------------------------------- #
# Distance matrices                                                       #
# --------------------------------------------------------------------- #


@dataclass
class MatrixCase:
    labels: list[str]
    values: np.ndarray
    additive: bool  # ground truth from the benchmark's own scans
    scale: float

    def text(self, suffix: str) -> str:
        vals = self.values.tolist()
        if suffix == ".csv":
            rows = ["," + ",".join(self.labels)]
            rows += [lab + "," + ",".join(map(repr, row)) for lab, row in zip(self.labels, vals)]
        else:
            rows = [" ".join([lab, *map(repr, row[:i])]) for i, (lab, row) in enumerate(zip(self.labels, vals))]
        return "\n".join(rows) + "\n"


def make_matrix(slot: Slot, seed: int) -> MatrixCase:
    """Distances between labels on random points of a random tree.

    Labels sit inside edges three times in four, so reconstruction has to
    split edges.  A non-additive matrix has one symmetric pair scaled up by
    2-20 %, redrawn until the matrix is still a metric but fails the
    four-point condition, so that "no" answers come from the four-point
    scan and not from the triangle scan.
    """
    rng = _rng(seed, slot.workload, slot.round, slot.index)
    k = slot.size
    i = np.arange(1, k)
    parent = np.concatenate(([-1], (rng.random(k - 1) * i).astype(np.int64)))
    length = np.concatenate(([0.0], rng.uniform(*LENGTHS, k - 1)))
    metric = TreeMetric(parent, length)
    on_node = rng.random(k) < 0.25
    node = np.where(on_node, rng.integers(0, k, k), rng.integers(1, k, k))
    up = np.where(on_node, 0.0, rng.uniform(0.05, 0.95, k) * length[node])
    values = metric.pairwise(node, up)
    labels = [f"L{j}" for j in range(k)]
    while True:
        case = values.copy()
        if not slot.additive:
            a, b = rng.choice(k, 2, replace=False)
            case[a, b] = case[b, a] = case[a, b] * rng.uniform(1.02, 1.2)
        is_metric, additive = matrix_verdict(case)
        if is_metric and additive == slot.additive:
            return MatrixCase(labels, case, additive, float(case.max()))
        if slot.additive:
            raise RuntimeError(f"generated tree metric {slot.name} fails the truth scan")
