"""Hull equivalence sweep: PYTHONPATH=src python3 .github/equivalence.py --base REV [--quick]

Loads src/simplexmix/hull.py and simplex.py at git revision REV as second modules (neither has a relative
import) and compares them with the working tree, cloud by cloud: ``sample`` output (uniform and Dirichlet),
``PointSet.points`` and ``extremal_set`` indices, all byte for byte.  For each family it prints the clouds
compared, the differences, the routes the clouds took on each side and each side's time in ``sample``,
``PointSet`` and ``extremal_set``.  Exits non-zero, naming the first clouds that differ, on any difference.
"""

import argparse
import contextlib
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.spatial

import simplexmix.hull as tree_hull
import simplexmix.simplex as tree_simplex

ROOT = Path(__file__).resolve().parents[1]
SAMPLERS = {  # name: alpha for J, or None for the uniform sampler
    "uniform": None,
    "dirichlet:0.3": lambda J: (0.3,) * J,
    "dirichlet:0.001": lambda J: (0.001,) * J,
    "dirichlet:2,1,...": lambda J: (2.0,) + (1.0,) * (J - 1),
    "dirichlet:0.05,1,...": lambda J: (0.05,) + (1.0,) * (J - 1),
}
LATTICES = {2: 20, 3: 8, 4: 5, 5: 4}  # dimension: points per axis


def load(rev: str, name: str) -> types.ModuleType:
    """src/simplexmix/<name>.py at ``rev``, as a module of its own."""
    path = f"src/simplexmix/{name}.py"
    source = subprocess.run(["git", "show", f"{rev}:{path}"], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    module = types.ModuleType(f"base_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(source, f"{rev}:{path}", "exec"), module.__dict__)
    return module


class CountedNumpy:
    """numpy, as a module's ``np``, counting the calls of the functions that mark ``_dedup``'s exits."""

    NAMES = ("diff", "union1d")

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.NAMES:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@contextlib.contextmanager
def patched(module, **attrs):
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def routes(hull, cloud: np.ndarray) -> tuple[str, str]:
    """The exit ``_dedup`` took on ``cloud`` and the route of ``extremal_set``, by wrapping the functions
    ``hull`` calls: "screen", "pairs" or "pass"; then "chart" or "svd" for the coordinates, each qhull run
    ("Q0" or "merged", "!" when it raised) and "perpoint" when every point took the distance test."""
    counted, events = CountedNumpy(), []
    with patched(hull, np=counted):
        ps = hull.PointSet(cloud)
    dedup = "pass" if counted.calls["union1d"] else "pairs" if counted.calls["diff"] > 1 else "screen"

    def spy(name, event):
        fn = getattr(hull, name)

        def wrapper(*args):
            out = fn(*args)
            events.append(event(args, out))
            return out

        return wrapper

    spies = {  # a base that lacks one of these functions shows no event for it
        "_chart": lambda args, out: "chart" if out is not None else "",
        "_affine_coordinates": lambda args, out: "svd",
        # every row, with rows=None at an older base, and no qhull run that succeeded
        "_perpoint_keep": lambda args, out: "perpoint" if len(args) == 1 or args[1] is None or (
            len(args[1]) == len(args[0]) and not {"Q0", "merged"} & set(events)) else "",
    }
    spies = {name: spy(name, event) for name, event in spies.items() if hasattr(hull, name)}

    def qhull_run(fn):
        def wrapper(z, *args, **kwargs):  # _qhull(z, options) or ConvexHull(z, qhull_options=options)
            events.append("Q0" if [*args, *kwargs.values()] == ["Q0"] else "merged")
            try:
                return fn(z, *args, **kwargs)
            except scipy.spatial.QhullError:
                events[-1] += "!"
                raise

        return wrapper

    # a base older than hull._qhull runs qhull through scipy.spatial.ConvexHull
    if hasattr(hull, "_qhull"):
        spies["_qhull"], convex_hull = qhull_run(hull._qhull), {}
    else:
        convex_hull = {"ConvexHull": qhull_run(scipy.spatial.ConvexHull)}
    with patched(hull, **spies), patched(scipy.spatial, **convex_hull):
        try:
            hull.extremal_set(ps)
        except ValueError:
            events.append("raised")
    return dedup, " ".join(filter(None, events)) or "direct"


def families(quick: bool):
    """(name, clouds) per family, each cloud (SamplerSpec fields, n) to sample or (None, rows) as built.
    The built families are integer lattices, with and without 1e-9 noise, and the dedup pass's worst case,
    a chain of rows 1.5 * tol apart along its projection direction, alone and beside a uniform cloud."""
    seeds = range(3) if quick else range(60)
    for J in range(3, 7):
        for name, alpha in SAMPLERS.items():
            kind, alpha = ("uniform", None) if alpha is None else ("dirichlet", alpha(J))
            for n in (100, 316, 1000, 3162):
                yield f"J={J} {name} n={n}", [({"kind": kind, "J": J, "seed": seed, "alpha": alpha}, n) for seed in seeds]
    for d, k in LATTICES.items():
        grid = np.stack(np.meshgrid(*[np.arange(float(k))] * d), axis=-1).reshape(-1, d)
        for noise in (0.0, 1e-9):
            clouds = []
            for seed in seeds[:2] if quick else seeds[:20]:
                rng = np.random.default_rng(seed)
                rows = grid[rng.permutation(len(grid))[: len(grid) // 2 + 1]]
                clouds.append((None, rows + noise * rng.standard_normal(rows.shape)))
            yield f"lattice d={d}" + (" +1e-9 noise" if noise else ""), clouds
    uniform = tree_simplex.sample(tree_simplex.SamplerSpec("uniform", 3, 7), 1000)
    for m in (1000,) if quick else (1000, 10000):
        chain = np.full(3, 1.0 / 3.0) + np.arange(float(m))[:, None] * 1.5 * tree_hull.EXTREME_TOL * tree_hull._direction(3)
        chains = [chain[np.random.default_rng(seed).permutation(m)] for seed in seeds[:2]]
        yield f"chain m={m}", [(None, c) for c in chains]
        yield f"chain m={m} + uniform n=1000", [(None, np.vstack([uniform, c])) for c in chains]


def timed(times: Counter, key: str, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times[key] += time.perf_counter() - start
    return out


def compare(base, clouds) -> tuple[list[int], dict, dict]:
    """The clouds that differ, by index and what differs, and each side's routes and times.  A sampled
    cloud is the working tree's draw; both sides then merge and count the same rows."""
    sides = {"base": base, "tree": (tree_hull, tree_simplex)}
    diffs, routes_seen, times = [], {side: Counter() for side in sides}, {side: Counter() for side in sides}
    for i, (spec, cloud) in enumerate(clouds):  # cloud is n when spec is given
        # alternate which side runs first, so neither always meets warm caches
        order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
        outs = {side: {} for side in sides}
        if spec is not None:
            for side in order:
                simplex = sides[side][1]
                outs[side]["sample"] = timed(times[side], "sample", simplex.sample, simplex.SamplerSpec(**spec), cloud)
            cloud = outs["tree"]["sample"]
        for side in order:
            hull = sides[side][0]
            ps = timed(times[side], "PointSet", hull.PointSet, cloud)
            try:
                idx = timed(times[side], "extremal_set", hull.extremal_set, ps).indices
            except ValueError as exc:
                idx = np.frombuffer(str(exc).encode(), dtype=np.uint8)
            outs[side].update({"PointSet.points": ps.points, "extremal_set": idx})
            routes_seen[side][routes(hull, cloud)] += 1
        for what, a in outs["base"].items():
            b = outs["tree"][what]
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                diffs.append((i, what))
    return diffs, routes_seen, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare the working tree with")
    parser.add_argument("--quick", action="store_true", help="3 seeds per sampled family and fewer built clouds")
    args = parser.parse_args()
    base = load(args.base, "hull"), load(args.base, "simplex")
    total, all_diffs, sweep_start = 0, [], time.perf_counter()
    print(f"{'family':<34} {'clouds':>6} {'diffs':>5}  ms base/tree: sample, PointSet, extremal_set")
    for name, clouds in families(args.quick):
        diffs, routes_seen, times = compare(base, clouds)
        total += len(clouds)
        all_diffs += [f"{name} cloud {i} ({'seed ' + str(clouds[i][0]['seed']) if clouds[i][0] else 'built'}): {what}"
                      for i, what in diffs]
        ms = "  ".join(f"{key} {1e3 * times['base'][key]:.1f}/{1e3 * times['tree'][key]:.1f}"
                       for key in ("sample", "PointSet", "extremal_set") if times["tree"][key])
        print(f"{name:<34} {len(clouds):>6} {len(diffs):>5}  {ms}")
        same = routes_seen["base"] == routes_seen["tree"]
        for side in ("tree",) if same else ("base", "tree"):
            shown = ", ".join(f"{dedup} | {route}: {k}" for (dedup, route), k in sorted(routes_seen[side].items()))
            print(f"    routes ({'both' if same else side}): {shown}")
    print(f"{total} clouds, {len(all_diffs)} differences, {time.perf_counter() - sweep_start:.1f} s")
    for line in all_diffs[:20]:
        print(f"DIFFERS {line}")
    return 1 if all_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
