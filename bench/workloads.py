"""Seeded scenario generator for the benchmark workloads.

Each workload is a list of scenario files in the repository's own JSON
schema (docs/schema.md).  The program under test only ever sees these
files.  The bundled scenarios are copied byte for byte on every seed;
the other scenarios are built from the seed, but every choice the seed
makes keeps the amount of work nearly fixed (same box side band, same
window sizes, same enumeration budgets), so that run-to-run spread
measures the machine and not the draw.  The run order is fixed too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUNDLED_DIR = ROOT / "scenarios"

DEFAULT_SEED = 0


@dataclass(frozen=True)
class ScenarioFile:
    """One generated scenario: file name stem, exact bytes, expected status."""

    name: str
    text: bytes
    expected: str
    why: str


def _bundled(name: str, expected: str, why: str) -> ScenarioFile:
    return ScenarioFile(name, (BUNDLED_DIR / f"{name}.json").read_bytes(), expected, why)


def _generated(obj: dict, expected: str, why: str) -> ScenarioFile:
    text = (json.dumps(obj, indent=1) + "\n").encode("utf-8")
    return ScenarioFile(obj["name"], text, expected, why)


def _folner(name: str, fiber: dict, params: dict) -> dict:
    return {"name": name, "task": "folner", "seed": 0, "fiber": fiber, "params": params}


def _graph(mu_count: int, edges) -> dict:
    return {"mu": ["1"] * mu_count, "edges": [[u, v, "1"] for u, v in edges]}


K4 = _graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TRIANGLE = _graph(3, [(0, 1), (0, 2), (1, 2)])


def _torus(rows: int, cols: int) -> dict:
    def vid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    edges = set()
    for r in range(rows):
        for c in range(cols):
            for u, v in ((vid(r, c), vid(r, c + 1)), (vid(r, c), vid(r + 1, c))):
                edges.add((min(u, v), max(u, v)))
    return _graph(rows * cols, sorted(edges))


# ---------------------------------------------------------------------------
# workloads


def tree_inclusion(rng: random.Random) -> list[ScenarioFile]:
    return [_bundled(
        "tree_counterexample", "ok",
        "F3 on the cover of K4: exhausted search, diagnostic witness, tree windows to radius 12",
    )]


def folner_search(rng: random.Random) -> list[ScenarioFile]:
    files = [
        _bundled("z_folner", "ok", "bundled: Z box certificate"),
        _bundled("z2_folner", "ok", "bundled: Z^2 box certificate"),
        _bundled("f2_on_z_folner", "ok", "bundled: quotient box certificate"),
        _generated(
            _folner("z3_eps20", {"kind": "lattice", "dimension": 3}, {"epsilon": "0.05"}),
            "inconclusive",
            "Z^3 at 1/20 as it is: the first box overruns max_points, then balls and 200k subsets",
        ),
    ]
    for rank in (2, 3):
        files.append(_generated(
            _folner(f"free{rank}_enum", {"kind": "free_group", "rank": rank}, {
                "epsilon": "0.5",
                "budget": {"max_radius": 6, "subset_size_cap": 12, "max_subsets": 50000},
            }),
            "inconclusive",
            f"F{rank}: orbit balls to radius 6, then 50k connected subsets, exhausted",
        ))
    files.append(_generated(
        _folner("z3_box", {"kind": "lattice", "dimension": 3}, {"epsilon": "0.15"}),
        "ok", "Z^3 box of 64k points: one large certificate verified and listed",
    ))

    # ceil(4 / eps) stays within 200..205, so the box holds 40k..42k points
    eps = rng.choice(("0.0196", "0.0197", "0.0198", "0.0199", "0.02"))
    files.append(_generated(
        _folner("z2_box", {"kind": "lattice", "dimension": 2}, {"epsilon": eps}),
        "ok", "Z^2 box of about 41k points at a seeded epsilon",
    ))

    # a signed coordinate permutation of a fixed family keeps the image size
    swap = rng.random() < 0.5
    signs = (rng.choice((1, -1)), rng.choice((1, -1)))
    vectors = []
    for x, y in ((1, 0), (0, 1), (1, 1)):
        if swap:
            x, y = y, x
        vectors.append([signs[0] * x, signs[1] * y])
    rng.shuffle(vectors)
    files.append(_generated(
        _folner("quotient_box", {"kind": "quotient", "vectors": vectors}, {"epsilon": "0.07"}),
        "ok", "F3 acting on Z^2 through seeded vectors: a 22k-point quotient box",
    ))

    pool = ("0.5", "0.4", "0.25", "0.2", "0.1", "0.08", "0.05", "0.04")
    epsilons = sorted(rng.sample(pool, 4), key=float, reverse=True)
    files.append(_generated(
        _folner("z2_epsilons", {"kind": "lattice", "dimension": 2}, {"epsilons": epsilons}),
        "ok", "a decreasing epsilon sequence, one certificate per ratio",
    ))

    # the rotation alone reaches the whole orbit within radius degree // 2 <= 12
    degree = rng.randint(20, 24)
    rotation = [(i + 1) % degree for i in range(degree)]
    shuffle = list(range(degree))
    rng.shuffle(shuffle)
    files.append(_generated(
        _folner("perm_orbit", {
            "kind": "finite_permutation", "degree": degree,
            "generators": [rotation, shuffle],
        }, {"epsilon": rng.choice(("0.1", "0.2"))}),
        "ok", "a finite permutation action: orbit balls until the orbit closes",
    ))
    return files


def cover_spectral(rng: random.Random) -> list[ScenarioFile]:
    files = [
        _bundled("k4_tree_spectrum", "ok", "bundled: tree-cover windows up to radius 4"),
        _bundled("torus_corollary", "ok", "bundled: balanced 4x4 torus"),
        _bundled("triangle_interval", "ok", "bundled: stability interval on a Z cover"),
        _bundled("triangle_transfer", "ok", "bundled: transfer over Z with a window"),
        _generated({
            "name": "k4_z2_transfer", "task": "transfer", "seed": 0,
            "base": K4, "potential": ["-0.05"] * 4,
            "fiber": {"kind": "lattice", "dimension": 2},
            "voltages": [[1, 2, [1]], [1, 3, [2]]],
            "params": {"a": "1", "alpha": 2},
        }, "ok", "K4 over Z^2 at V=-0.05: a 14,641-tile witness from a closed-form box"),
        _generated({
            "name": "z1_window_4000", "task": "spectrum", "seed": 0,
            "base": TRIANGLE, "potential": ["0.1", "0.2", "-0.3"],
            "fiber": {"kind": "lattice", "dimension": 1},
            "voltages": [[0, 1, [1]]],
            "params": {"a_samples": ["1"], "radii": [2000]},
        }, "ok", "a 4003-vertex Z window: shift-invert far above DENSE_LIMIT"),
    ]

    potential = [rng.choice(("-0.2", "-0.1", "0.1", "0.2", "0.3")) for _ in range(4)]
    a_samples = sorted(rng.sample(("-1", "-0.5", "0.5", "1", "2"), 2), key=float)
    files.append(_generated({
        "name": "k4_z2_windows", "task": "spectrum", "seed": rng.randint(0, 99),
        "base": K4, "potential": potential,
        "fiber": {"kind": "lattice", "dimension": 2},
        "voltages": [[1, 2, [1]], [1, 3, [2]]],
        "params": {"a_samples": a_samples, "radii": [36, 40]},
    }, "ok", "K4 over Z^2 windows of 1876 (dense) and 2283 (sparse) vertices"))

    for label in ("a", "b"):
        rows, cols = rng.choice(((20, 30), (24, 25), (25, 24), (30, 20)))
        n = rows * cols
        signs = ["1"] * (n // 2) + ["-1"] * (n // 2)
        rng.shuffle(signs)
        files.append(_generated({
            "name": f"torus_{label}", "task": "corollary", "seed": 0,
            "base": _torus(rows, cols), "potential": signs, "params": {},
        }, "ok", f"balanced {rows}x{cols} torus: dense bisection of the stability interval"))

    potential = list(rng.choice((("1", "-1", "0"), ("0.5", "-1", "0.5"), ("1", "-0.5", "-0.5"))))
    rng.shuffle(potential)
    files.append(_generated({
        "name": "triangle_interval_seeded", "task": "interval", "seed": 0,
        "base": TRIANGLE, "potential": potential,
        "fiber": {"kind": "lattice", "dimension": 1},
        "voltages": [[0, 1, [1]]],
        "params": {
            "a_samples": sorted(rng.sample(("-1", "-0.5", "0", "0.5", "1"), 3), key=float),
            "radius": rng.randint(140, 160), "alpha": 2,
        },
    }, "ok", "interval bisection with windows and transfers at seeded couplings"))
    return files


# why each workload is in the benchmark; BENCHMARK.json repeats these lines
WHY = {
    "cover_spectral": "spectrum and geometry layers: windows on both sides of DENSE_LIMIT, bisection, assembly",
    "folner_search": "folner and actions layers only: verifying large sets and scoring many small ones",
    "tree_inclusion": "the pathological bundled case: collar ball, cutoff and subset search on F3",
}

WORKLOADS = {
    "cover_spectral": cover_spectral,
    "folner_search": folner_search,
    "tree_inclusion": tree_inclusion,
}


def generate(workload: str, seed: int) -> list[ScenarioFile]:
    """Scenario files of one workload, in the order they run.

    The order is fixed, so the first eigensolve and the peak of the
    memory high-water mark land on the same scenario for every seed.
    """
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write(files: list[ScenarioFile], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in files:
        path = directory / f"{item.name}.json"
        path.write_bytes(item.text)
        paths.append(path)
    return paths
