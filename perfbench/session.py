"""Benchmark session: one long-lived process that runs a workload's jobs.

    python3 perfbench/session.py --workload W --seed N --seconds S [--trace]
    python3 perfbench/session.py --workload W --seed N --setup-only
    python3 perfbench/session.py --classes

The session builds its job list from the seed, imports fspectra and does the
warm set-up the workload allows, then prints ``READY``; the parent times
spawn-to-READY as set-up. Then it runs whole passes over the job list in a
closed loop (one job at a time) until the time budget is used, and prints
one JSON line with per-job timings, the answers (in full for the first pass,
as digests afterwards), peak RSS and, when tracing, the spans.

``--classes`` prints the search classes the oracle needs, as edge lists.
"""

import argparse
import hashlib
import json
import re
import resource
import sys
import time
import traceback

import jobs as joblib
import speed

# Minimum passes per run; the tail percentile level is fixed from them.
MIN_PASSES = {"class_sweep": 4, "weight_sweep": 3, "point_queries": 3}

# report_tsv prints its own run time; answers are compared without it.
ELAPSED = re.compile(r"\telapsed=[0-9.]+s")


def _plain(obj):
    """JSON fallback for numpy scalars."""
    return obj.item()


def digest(answer):
    text = json.dumps(answer, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def edge_list(G):
    return [list(e) for e in G.sorted_edges()]


class Runner:
    """Job executors for the in-process workloads. Every fspectra call goes
    through a module attribute at call time, so trace wrappers see it."""

    def __init__(self, workload, job_list):
        import fspectra

        self.fs = fspectra
        self.workload = workload
        self.jobs = job_list
        self.weights = [fspectra.parse_weight(joblib.weight_spec(j["weight"])) for j in job_list]

    def setup(self):
        if self.workload == "weight_sweep":
            self.fs.search.class_graphs("trees", 9)
            self.fs.search.class_graphs("unicyclic", 9)
            self.fs.search.class_graphs("bicyclic", 9)

    def classes(self):
        """The enumerated classes used by this workload's jobs, as edge lists."""
        names = sorted({(j["class"], j["order"]) for j in self.jobs if "class" in j})
        return {
            f"{c}:{n}": [[G.n, edge_list(G)] for G in self.fs.search.class_graphs(c, n)]
            for c, n in names
        }

    def run(self, i):
        """Run job i; returns (answer, graphs scored)."""
        job, f = self.jobs[i], self.weights[i]
        if job["kind"] == "extremal":
            return self._extremal(job, f)
        return getattr(self, "_" + job["kind"])(job, f), 1

    def _extremal(self, job, f):
        search = self.fs.search
        rep = search.extremal(job["class"], job["order"], f, job["objective"])
        tsv = search.report_tsv(rep)
        answer = {
            "value": rep.value,
            "examined": rep.examined,
            "skipped": rep.skipped,
            "winners": [[G.n, edge_list(G)] for G in rep.winners],
            "tsv": ELAPSED.sub("", tsv),
        }
        return answer, rep.examined + rep.skipped

    def _graph(self, job):
        fs = self.fs
        return fs.make(fs.parse_family(job["family"]))

    def _base(self, G):
        return {"n": G.n, "edges": edge_list(G)}

    def _pick_edge(self, G, pick):
        edges = G.sorted_edges()
        return edges[int(pick * len(edges))]

    def _rho(self, job, f):
        G = self._graph(job)
        res = self.fs.f_spectral_radius(G, f)
        return dict(self._base(G), rho=res.rho, vector=res.vector.tolist())

    def _spectrum(self, job, f):
        fs = self.fs
        G = self._graph(job)
        return dict(self._base(G), spectrum=fs.full_spectrum(fs.f_adjacency(G, f)).tolist())

    def _certify(self, job, f):
        G = self._graph(job)
        alpha, rep = self.fs.certify(G, f)
        return dict(
            self._base(G),
            alpha=alpha,
            classification=rep.classification,
            consistent=rep.consistent,
            max_vertex_slack=max(abs(s) for s in rep.vertex_slack.values()),
            max_edge_slack=max(abs(s) for s in rep.edge_slack.values()),
        )

    def _split(self, job, f):
        fs = self.fs
        G = self._graph(job)
        alpha = fs.alpha_of(G, f)
        cert = fs.incidence_from_splits(G, f, alpha)
        rep = fs.classify_normality(G, f, cert.incidence, alpha)
        B = sorted([v, a, b, val] for (v, (a, b)), val in cert.incidence.items())
        return dict(self._base(G), alpha=alpha, B=B,
                    classification=rep.classification, consistent=rep.consistent)

    def _subdivide(self, job, f):
        fs = self.fs
        G = self._graph(job)
        e = self._pick_edge(G, job["edge_pick"])
        # ``transforms.subdivide`` is an alias of graph_core.subdivided that
        # the roadmap plans to drop; fall back to the underlying function.
        op = getattr(fs, "subdivide", None) or fs.graph_core.subdivided
        H = op(G, e)
        return dict(self._base(G), edge=list(e), sub_n=H.n, sub_edges=edge_list(H),
                    rho=fs.f_spectral_radius(H, f).rho)

    def _kelmans(self, job, f):
        fs = self.fs
        G = self._graph(job)
        u = int(job["u_pick"] * G.n)
        v = int(job["v_pick"] * (G.n - 1))
        v += v >= u
        res = fs.kelmans(G, u, v)
        return dict(self._base(G), u=u, v=v, moved=list(res.moved), res_edges=edge_list(res.graph),
                    connected=res.connected, isomorphic_to_input=res.isomorphic_to_input,
                    endpoints_nonadjacent=res.endpoints_nonadjacent,
                    rho=fs.f_spectral_radius(res.graph, f).rho)

    def _best_cycle(self, job, f):
        G = self._graph(job)
        e, H = self.fs.best_cycle_subdivision(G, f)
        return dict(self._base(G), edge=list(e), sub_edges=edge_list(H))

    def _interlacing(self, job, f):
        G = self._graph(job)
        e = self._pick_edge(G, job["edge_pick"])
        rep = self.fs.interlacing_check(G, e, f)
        return dict(self._base(G), edge=list(e), holds=rep.holds, lam=[float(x) for x in rep.lam],
                    theta=[float(x) for x in rep.theta], max_violation=float(rep.max_violation))


def another_pass(passes, start, seconds, min_passes):
    """Whether a run still has room for one more pass of average length."""
    elapsed = time.perf_counter() - start
    return len(passes) < min_passes or elapsed * (len(passes) + 1) / len(passes) <= seconds


def run_passes(runner, seconds, min_passes, tracer=None):
    """Closed loop over whole passes. With a tracer, passes alternate
    untraced / traced so both see the same machine conditions. Each job
    record is [own wall, status, answer digest, scaled wall] (see
    speed.py). Untraced runs time the reference loop from a timer every
    speed.STRETCH_S; a job's own wall leaves out the loops that ran inside
    it. Traced runs time it only between jobs, so no span contains it. A
    pass's wall is the sum of its jobs' own walls."""
    records = [[] for _ in runner.jobs]
    answers = {}
    passes = []
    start = time.perf_counter()
    sampler = speed.Sampler(timer=tracer is None)
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(f"pass{len(passes)}")
        scored = 0
        wall = since = 0.0
        marks = []
        for i in range(len(runner.jobs)):
            n0, spent0 = sampler.mark()
            t0 = time.perf_counter()
            try:
                answer, graphs = runner.run(i)
                status = "ok"
            except Exception as exc:  # a failing job is counted, not fatal
                answer, graphs = None, 0
                status = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            dt = time.perf_counter() - t0
            n1, spent1 = sampler.mark()
            own = dt - (spent1 - spent0)
            scored += graphs
            wall += own
            d = digest(answer)
            answers.setdefault(f"{i}:{d}", answer)
            records[i].append([own, status, d, None])
            marks.append((records[i][-1], n0, n1))
            since += own
            if not sampler.timer and since >= speed.STRETCH_S:
                sampler.sample()
                since = 0.0
        if traced:
            tracer.uninstall()
        sampler.sample()  # every job of the pass now has a loop after it
        for record, n0, n1 in marks:
            record[3] = speed.scale(record[0], sampler.loops[n0 - 1:n1 + 1])
        passes.append({"wall": wall, "traced": traced, "graphs": scored})
        if not another_pass(passes, start, seconds, min_passes):
            break
    sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "records": records, "answers": answers, "peak_rss_kb": rss_kb,
            "reference_loops": sampler.loops}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--classes", action="store_true")
    args = ap.parse_args(argv)

    if args.classes:
        from fspectra import search

        out = {}
        for name in joblib.SEARCH_CLASSES:
            for n in (8, 9):
                out[f"{name}:{n}"] = [[G.n, edge_list(G)] for G in search.class_graphs(name, n)]
        print(json.dumps(out))
        return 0

    job_list = joblib.build(args.workload, args.seed)
    if args.workload == "class_sweep":
        import fspectra.cli  # noqa: F401  (what a cold CLI call imports)

        print("READY", flush=True)
        return 0

    import fspectra  # noqa: F401  (loaded before any wrapper is installed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install("setup")
    runner = Runner(args.workload, job_list)
    runner.setup()
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = run_passes(runner, args.seconds, MIN_PASSES[args.workload], tracer)
    result["classes"] = runner.classes()
    if tracer is not None:
        result["trace"] = tracer.dump()
    print(json.dumps(result, default=_plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
