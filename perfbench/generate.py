"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its instance number: draws come from
`random.Random` seeded with an integer and floats are written with `repr`,
so the text repeats byte for byte.  (`math.sin` comes from the platform's C
library; reference.json stores each input's sha256, so a platform that
writes other bytes is caught by the gate.)
"""

from __future__ import annotations

import math
import random

RIGID_AGENTS = 20
RIGID_DT = 0.01
RIGID_DURATION = 4.0
RIGID_OFFSET_BOUND = 0.3    # at the default 2.0 most instances diverge within 1 s

TRAJ_NEIGHBORS = (1, 2, 3, 5)
TRAJ_SAMPLES = 24000
TRAJ_DT = 0.01


def _rigid_shape(rng: random.Random) -> list[tuple[float, float]]:
    """Grow a planar point set: each new point lands 6..12 from a random
    existing point and at least 5 from all of them, and makes a proper
    triangle (angle 25..155 degrees) with its two nearest predecessors."""
    pts = [(0.0, 0.0)]
    ang = rng.uniform(0.0, 2.0 * math.pi)
    dist = rng.uniform(6.0, 12.0)
    pts.append((dist * math.cos(ang), dist * math.sin(ang)))
    while len(pts) < RIGID_AGENTS:
        bx, by = pts[rng.randrange(len(pts))]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(6.0, 12.0)
        cand = (bx + dist * math.cos(ang), by + dist * math.sin(ang))
        near = sorted(range(len(pts)), key=lambda j: math.dist(cand, pts[j]))
        if math.dist(cand, pts[near[0]]) < 5.0:
            continue
        a, b = pts[near[0]], pts[near[1]]
        u = (a[0] - cand[0], a[1] - cand[1])
        v = (b[0] - cand[0], b[1] - cand[1])
        cos_t = (u[0] * v[0] + u[1] * v[1]) / (math.hypot(*u) * math.hypot(*v))
        if not math.cos(math.radians(155.0)) < cos_t < math.cos(math.radians(25.0)):
            continue
        pts.append(cand)
    return pts


def rigid_ini(instance: int) -> str:
    """Scenario config for a 20-agent, 37-edge minimally rigid graph.

    Henneberg construction: agent k >= 3 joins its two nearest predecessors,
    so every agent after the first two adds one vertex and two edges.
    Target distances come from the generated shape; the spawn perturbs the
    shape by at most 1.0 per coordinate and the filters start within
    RIGID_OFFSET_BOUND of the truth.  Only keys that `config_from_ini`
    documents are used.
    """
    rng = random.Random(instance)
    shape = _rigid_shape(rng)
    edges = [(0, 1)]
    for k in range(2, RIGID_AGENTS):
        near = sorted(range(k), key=lambda j: math.dist(shape[k], shape[j]))[:2]
        edges.extend((j, k) for j in sorted(near))
    spawn = [(x + rng.uniform(-1.0, 1.0), y + rng.uniform(-1.0, 1.0)) for x, y in shape]
    lines = [
        "[graph]",
        f"agents = {RIGID_AGENTS}",
        "edges = " + ", ".join(f"{t + 1}-{h + 1}" for t, h in edges),
        "",
        "[distances]",
    ]
    lines += [f"d_{t + 1}_{h + 1} = {math.dist(shape[t], shape[h])!r}" for t, h in edges]
    lines += [
        "",
        "[controller]",
        "variant = algorithm1",
        "",
        "[init]",
        f"offset_bound = {RIGID_OFFSET_BOUND!r}",
        "positions = " + "; ".join(f"{x!r}, {y!r}" for x, y in spawn),
        "",
        "[sim]",
        f"dt = {RIGID_DT!r}",
        f"duration = {RIGID_DURATION!r}",
        f"seed = {instance}",
        "",
    ]
    return "\n".join(lines)


def trajectory_lines(instance: int, n: int):
    """Lines of a trajectory CSV for `check-observability --trajectory` with
    n neighbors, yielded one by one so the file never sits in memory.

    The agent turns at a constant rate; every neighbor but one moves with a
    constant body-frame velocity, and the last one stays put, so its
    Gramian block loses a direction and the command exits 3.  Offsets follow
    the exact flow of the written velocities between samples.
    """
    rng = random.Random(1000 * instance + n)
    theta0 = rng.uniform(-math.pi, math.pi)
    w = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3)
    p0 = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(n)]
    vel = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n - 1)] + [(0.0, 0.0)]
    header = ["t", "theta"]
    header += [f"{c}{k + 1}" for k in range(n) for c in ("x", "y")]
    header += ["w"] + [f"{c}{k + 1}" for k in range(n) for c in ("vx", "vy")]
    yield ",".join(header) + "\n"
    vcols = ",".join(f"{vx!r},{vy!r}" for vx, vy in vel)
    for i in range(TRAJ_SAMPLES):
        t = i * TRAJ_DT
        theta = theta0 + w * t
        # integral of R(theta0 + w s) over [0, t], applied to each body velocity
        sx = (math.sin(theta) - math.sin(theta0)) / w
        cx = (math.cos(theta0) - math.cos(theta)) / w
        pos = ",".join(f"{x0 + sx * vx - cx * vy!r},{y0 + cx * vx + sx * vy!r}"
                       for (x0, y0), (vx, vy) in zip(p0, vel))
        yield f"{t!r},{theta!r},{pos},{w!r},{vcols}\n"
