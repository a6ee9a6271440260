"""Seeded job lists for the three benchmark workloads.

Standard library only: the orchestrator, the session child and the oracle
all rebuild the same list from (workload, seed). The seed changes weights
(among ones of similar cost), weight values, family parameters within
narrow windows and picked edges or vertices; it never changes the job mix
(job kinds, classes, objectives and the size band of each slot), so the
cost of a pass stays within a few percent from seed to seed.

A weight is a plain dict so the oracle can evaluate it without fspectra:

    {"kind": "named", "name": "sombor"}
    {"kind": "const", "c": 1.234}
    {"kind": "table", "entries": [[x, y, v], ...]}   (x <= y)
"""

import random

WORKLOADS = ("class_sweep", "weight_sweep", "point_queries")

SEARCH_CLASSES = ("trees", "unicyclic", "bicyclic")

# Named weights other than randic. Randic makes every connected graph tie
# (rho == 1), so it appears only where that tie is the point (weight_sweep).
NAMED = ("sombor", "abc", "zagreb1", "zagreb2", "recip-randic")

# Large-gap shapes converge in a few hundred power iterations under any of
# these (abc, const and zagreb2 would triple or halve that). All three are
# increasing in x, the hypothesis of best_cycle_subdivision.
LIGHT_POOL = ("sombor", "zagreb1", "recip-randic")

# Degrees in a graph of order 9 are at most 8; tables cover every pair.
TABLE_MAX_DEGREE = 8


def weight_spec(w):
    """The fspectra weight-spec string of a weight dict."""
    if w["kind"] == "named":
        return w["name"]
    if w["kind"] == "const":
        return f"const:{w['c']!r}"
    return "table:" + ";".join(f"{x},{y}={v!r}" for x, y, v in w["entries"])


def named(name):
    return {"kind": "named", "name": name}


def _const(rng):
    return {"kind": "const", "c": round(rng.uniform(0.5, 3.0), 3)}


def _table(rng, drop_from=None):
    """Seeded table a + b(x + y) + cxy on degree pairs up to TABLE_MAX_DEGREE.

    A smooth increasing table keeps power-iteration counts within a few
    percent from seed to seed; independent random entries made them vary
    by a quarter. With ``drop_from``, pairs whose larger degree is >=
    drop_from are left out, so graphs with such a vertex are skipped.
    """
    a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5)
    entries = []
    for x in range(1, TABLE_MAX_DEGREE + 1):
        for y in range(x, TABLE_MAX_DEGREE + 1):
            if drop_from is None or y < drop_from:
                entries.append([x, y, round(a + b * (x + y) + c * x * y, 3)])
    return {"kind": "table", "entries": entries}


def _class_sweep(rng):
    # Weights whose power-iteration counts agree within a few percent, so
    # the seed does not move the cost of a pass.
    def search_weight():
        pick = rng.randrange(len(LIGHT_POOL) + 1)
        return named(LIGHT_POOL[pick]) if pick < len(LIGHT_POOL) else _table(rng)

    # A constant weight made verify forbidden-subgraphs (the median job)
    # about 8% slower than the named ones.
    def theorem_weight():
        return named(LIGHT_POOL[rng.randrange(len(LIGHT_POOL))])

    jobs = []
    # Objectives are fixed per class: a max search returns star-like winners
    # whose canonical form costs about 0.5 s more than a min search's.
    for cls, order, objective in (("trees", 9, "max"), ("unicyclic", 9, "max"),
                                  ("bicyclic", 9, "min"), ("pendant-free-bicyclic", 12, "min")):
        w = search_weight()
        jobs.append({
            "id": f"extremal-{cls}-{order}",
            "kind": "extremal",
            "class": cls.replace("-", "_"),
            "order": order,
            "weight": w,
            "objective": objective,
            "argv": ["extremal", "--class", cls, "--order", str(order),
                     "--weight", weight_spec(w), "--objective", objective],
        })
    # The cheapest cold call: start-up, import and one fast solve. It also
    # gives the pass an odd job count, so the median is one job's latency.
    s = rng.randint(18, 22)
    family, w = f"theta:{s},{s},{s + rng.randint(-1, 1)}", search_weight()
    jobs.append({
        "id": "rho-theta",
        "kind": "rho",
        "family": family,
        "weight": w,
        "argv": ["rho", "--family", family, "--weight", weight_spec(w)],
    })
    for theorem, n_range in (("main-bicyclic", "8..12"), ("forbidden-subgraphs", "8")):
        w = theorem_weight()
        jobs.append({
            "id": f"verify-{theorem}",
            "kind": "verify",
            "theorem": theorem,
            "weight": w,
            "argv": ["verify", "--theorem", theorem, "--n", n_range,
                     "--weights", weight_spec(w)],
        })
    return jobs


def _weight_sweep(rng):
    # (weight, class for min, class for max). Per pass: three bicyclic, six
    # unicyclic and seven tree queries. Sorted by cost that is six cheap
    # tree queries, six unicyclic-like ones and four heavy ones, so both the
    # median and the tail level fall inside a group. Randic ties every
    # graph of a class (rho = 1), which stresses winner sorting and report
    # re-solves; it runs on unicyclic (240-way tie) because the bicyclic
    # tie alone would take half of a pass.
    schedule = [
        (named("sombor"), "bicyclic", "unicyclic"),
        (named("abc"), "unicyclic", "trees"),
        (named("zagreb2"), "trees", "bicyclic"),
        (_const(rng), "unicyclic", "bicyclic"),
        (_table(rng), "trees", "unicyclic"),
        (_table(rng), "unicyclic", "trees"),
        (_table(rng, drop_from=7), "trees", "trees"),
        (named("randic"), "unicyclic", "trees"),
    ]
    jobs = []
    for i, (w, min_class, max_class) in enumerate(schedule):
        for objective, cls in (("min", min_class), ("max", max_class)):
            jobs.append({
                "id": f"extremal-{i}-{objective}-{cls}",
                "kind": "extremal",
                "class": cls,
                "order": 9,
                "weight": w,
                "objective": objective,
            })
    return jobs


def _point_queries(rng):
    def around(n, spread):
        return n + rng.randint(-spread, spread)

    def any_named():
        pick = rng.randrange(len(NAMED) + 1)
        return named(NAMED[pick]) if pick < len(NAMED) else _const(rng)

    def arms(base, spread, count):
        return ",".join(str(around(base, spread)) for _ in range(count))

    def sym(base, spread, tail):
        s = around(base, spread)
        return f"{s},{s},{around(tail, spread)}"

    slots = []

    def fixed(kind, families):
        # Jobs near the median keep fixed parameters and a fixed weight per
        # slot: their cost moves by a third with a parameter step (theta
        # 13,13,13 against 13,13,15), so the seed must not touch them.
        for fam in families:
            slots.append((kind, fam, named(LIGHT_POOL[len(slots) % len(LIGHT_POOL)])))

    # Slow-converging paths: power iteration needs O(n^2) steps whatever
    # the weight. These are the tail of the latency distribution.
    for n in (110, 140, 170, 200, 240):
        slots.append(("rho", f"path:{around(n, 2)}", any_named()))
    # The fifth-slowest job of a pass: p90 of a pass's 43 jobs falls among
    # its samples, so like the median jobs it is fixed.
    fixed("certify", ("path:90",))
    slots.append(("subdivide", f"path:{around(120, 2)}", any_named()))
    # Large-gap graphs of order 40..250: the median job.
    fixed("rho", ("theta:60,60,61", "infty:40,40,40", "infty-star:50,60", "double-star:100,100",
                  "star:250", "c3:40,40,40", "c4:30,30,30,30", "theta122:50,50",
                  "sn-plus-e:150", "cycle:200", "path:40"))
    fixed("certify", ("theta:20,20,21", "infty-star:20,25", "c3:10,10,10", "double-star:20,20"))
    fixed("split", ("theta:12,12,14", "infty:10,10,10", "infty-star:12,15"))
    fixed("subdivide", ("theta:30,30,30",))
    # Kelmans on hub-heavy graphs: the result keeps a large spectral gap.
    fixed("kelmans", ("double-star:8,8", "c3:5,5,5", "c4:4,4,4,4"))
    fixed("best_cycle", ("theta:15,15,16", "infty:12,12,12", "c3:8,8,8", "c4:6,6,6,6"))
    # Dense eigensolves cost the same whatever the weight.
    for fam in (
        f"theta:{around(20, 1)},{around(20, 1)},{around(21, 1)}",
        f"infty:{sym(15, 1, 15)}",
        f"double-star:{around(25, 2)},{around(25, 2)}",
        f"c3:{arms(15, 1, 3)}",
        f"path:{around(60, 3)}",
        f"cycle:{around(50, 3)}",
    ):
        slots.append(("spectrum", fam, any_named()))
    for fam in (
        f"path:{around(30, 2)}",
        f"theta:{arms(10, 1, 3)}",
        f"c3:{arms(10, 1, 3)}",
        f"infty-star:{around(10, 1)},{around(12, 1)}",
    ):
        slots.append(("interlacing", fam, any_named()))

    jobs = []
    for i, (kind, family, w) in enumerate(slots):
        job = {"id": f"{kind}-{i}", "kind": kind, "family": family, "weight": w}
        # Picks in [0, 1) choose an edge or vertices of the built graph.
        if kind in ("subdivide", "interlacing"):
            job["edge_pick"] = rng.random()
        if kind == "kelmans":
            job["u_pick"] = rng.random()
            job["v_pick"] = rng.random()
        jobs.append(job)
    return jobs


_BUILDERS = {
    "class_sweep": _class_sweep,
    "weight_sweep": _weight_sweep,
    "point_queries": _point_queries,
}


def build(workload, seed):
    """The fixed job list of one pass of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def job_mix(jobs):
    """The seed-independent shape of a job list: kind and class or family kind."""
    out = []
    for job in jobs:
        shape = job.get("class") or job.get("theorem") or job["family"].split(":")[0]
        out.append((job["kind"], shape))
    return out
