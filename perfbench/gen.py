"""Seeded inputs for the benchmark workloads.

Standard library only; nothing here imports `coxtoric`.  Fans are built
by stellar subdivision of complete fans, which keeps them valid by
construction, and are emitted in the fan JSON schema with rays in
first-appearance order over the maximal cones (the order `coxtoric` uses
for coordinates).  The same seed always gives byte-identical inputs.
"""

import random

import oracle

CORPUS = {
    "a1": (1, [[1]], [[0]]),
    "a2": (2, [[1, 0], [0, 1]], [[0, 1]]),
    "a3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]]),
    "p1": (1, [[1], [-1]], [[0], [1]]),
    "p2": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]]),
    "p1xp1": (2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]),
    **{f"f{a}": (2, [[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]])
       for a in range(4)},
    "quadric_cone": (2, [[1, 0], [1, 2]], [[0, 1]]),
    "p112": (2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [2, 0]]),
    "bl0_a2": (2, [[1, 0], [1, 1], [0, 1]], [[0, 1], [1, 2]]),
}

# pipeline_ladder: the generated fans of one round, (family, size), with
# the corpus fans spread evenly between them.  Every round draws fresh
# fans, so a pool of a few rounds holds several fans of each size and its
# quantiles do not hang on one seeded draw.  Polygons with 10 rays and
# stellar fans with 7 (0.23 s and 0.38 s an op) are left out, so that a
# run can pass over the pool three times or more.
PIPELINE_LADDER = (
    ("affine", 4), ("polygon", 8), ("stellar3", 6),
    ("affine", 5), ("polygon", 6), ("stellar3", 5),
)
# An odd number of sizes puts the median inside one size.  Past n = 15 the
# cost of one matrix is so heavy-tailed that a pool's throughput hangs on
# the few slow matrices its seed drew: at n = 17 the slowest 1% of
# matrices take 8% of the time, and the slowest one 13x the median.
LATTICE_LADDER = (5, 7, 9, 11, 12, 13, 15)
DIAG_SIZES = (2, 3, 4, 5, 6)


def _combine(rng, rays):
    """Primitive generator of a random positive combination of `rays`."""
    coeffs = [rng.randint(1, 3) for _ in rays]
    return tuple(oracle.primitive([sum(c * r[i] for c, r in zip(coeffs, rays))
                                   for i in range(len(rays[0]))]))


def fan_dict(rank, rays, cones):
    """Fan JSON with rays renumbered in first-appearance order."""
    order = []
    for cone in cones:
        for i in cone:
            if i not in order:
                order.append(i)
    index = {old: new for new, old in enumerate(order)}
    return {"rank": rank,
            "rays": [list(rays[i]) for i in order],
            "max_cones": [[index[i] for i in cone] for cone in cones]}


def polygon_fan(rng, k):
    """Complete rank-2 fan with k rays: a triangle fan, subdivided k-3 times."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < k:
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, _combine(rng, [rays[i], rays[j]]))
    return fan_dict(2, rays, [[i, (i + 1) % k] for i in range(k)])


def stellar3_fan(rng, m):
    """Complete simplicial rank-3 fan with m rays, from the fan of P^3 by
    stellar subdivisions of random maximal cones and walls."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    while len(rays) < m:
        cone = cones[rng.randrange(len(cones))]
        if rng.random() < 0.5:
            rays.append(_combine(rng, [rays[i] for i in cone]))
            new = len(rays) - 1
            cones.remove(cone)
            cones += [[cone[0], cone[1], new], [cone[1], cone[2], new], [cone[0], cone[2], new]]
        else:
            wall = rng.sample(cone, 2)
            rays.append(_combine(rng, [rays[i] for i in wall]))
            new = len(rays) - 1
            for c in [c for c in cones if wall[0] in c and wall[1] in c]:
                cones.remove(c)
                cones += [[x if x != w else new for x in c] for w in wall]
    return fan_dict(3, rays, cones)


def affine_fan(n):
    return fan_dict(n, [[int(i == j) for j in range(n)] for i in range(n)], [list(range(n))])


def pipeline_weights(rng, fan):
    """An effective weight action of torus rank n-1 for which the pipeline's
    hypotheses hold: Q*W^T has rank n-1 (so the meet with im Q^T is one
    dimensional) and the weight columns generate Z^(n-1)."""
    n, m = fan["rank"], len(fan["rays"])
    q = oracle.fan_q_matrix(fan)
    while True:
        w = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n - 1)]
        if (oracle.maximal_minor_gcd(w) == 1
                and oracle.rank(oracle.matmul(q, oracle.transpose(w))) == n - 1):
            return {"rank": n - 1, "weights": w}


def pipeline_round(rng):
    """One round as a list of (name, fan, weights): the corpus fans in
    order, merged evenly with the fans of PIPELINE_LADDER.  weights is None
    for rank-1 fans, whose zero-row weight matrix the CLI's JSON cannot
    express, so they get only a `cox` request."""
    makers = {"affine": affine_fan, "polygon": lambda k: polygon_fan(rng, k),
              "stellar3": lambda m: stellar3_fan(rng, m)}
    corpus = [((i + 0.5) / len(CORPUS), name, fan_dict(*spec))
              for i, (name, spec) in enumerate(CORPUS.items())]
    ladder = [((j + 0.5) / len(PIPELINE_LADDER), f"{family}_{size}", makers[family](size))
              for j, (family, size) in enumerate(PIPELINE_LADDER)]
    out = []
    for _, name, fan in sorted(corpus + ladder, key=lambda item: item[0]):
        weights = pipeline_weights(rng, fan) if fan["rank"] > 1 else None
        out.append((name, fan, weights))
    return out


def lattice_matrix(rng, n):
    """(A, b): a random (n-2) x n matrix with entries in [-10, 10] and a
    right-hand side b = A*x0 that is solvable over the integers."""
    a = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n - 2)]
    x0 = [rng.randint(-3, 3) for _ in range(n)]
    return a, oracle.apply(a, x0)


def diag_request(rng, m):
    """A `coxtoric diag`-style request on m coordinates.

    Half give a corank-one relation lattice (one primitive column, one
    signed half the time), half a weight action of rank m-1.  Each carries
    three monomial matrices and one character-root isogeny problem.
    """
    req = {}
    if rng.random() < 0.5:
        while True:
            sign = rng.choice((1, -1)) if rng.random() < 0.5 else None
            a = [rng.randint(0, 4) * sign if sign else rng.randint(-4, 4) for _ in range(m)]
            if any(a):
                req["relations"] = oracle.primitive(a)
                break
    else:
        while True:
            w = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m - 1)]
            if oracle.rank(w) == m - 1:
                req["rank"], req["weights"] = m - 1, w
                break
    req["monomial_matrices"] = [
        {"perm": rng.sample(range(m), m),
         "scalars": [f"{rng.randrange(q)}/{q}" for q in rng.choices((1, 2, 3, 4, 6), k=m)]}
        for _ in range(3)]
    r = rng.randint(1, 4)
    req["xi"] = [rng.randint(-6, 6) for _ in range(r)]
    req["d"] = rng.randint(1, 6)
    return req


def generate(workload, seed, rounds):
    """`rounds` passes over the workload's ladder, as a list of inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "pipeline_ladder":
        return [item for _ in range(rounds) for item in pipeline_round(rng)]
    if workload == "lattice_ladder":
        return [lattice_matrix(rng, n) for _ in range(rounds) for n in LATTICE_LADDER]
    if workload == "diag_suite":
        return [diag_request(rng, m) for _ in range(rounds) for m in DIAG_SIZES]
    raise ValueError(f"unknown workload {workload!r}")
