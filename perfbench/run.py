"""fspectra benchmark: one seeded workload, timed end to end, oracle-checked.

    python3 perfbench/run.py --workload class_sweep|weight_sweep|point_queries
                             --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``. One
client runs jobs in a closed loop (the next job starts when the previous one
ends). BLAS is pinned to one thread and FSPECTRA_THREADS is left unset.
With ``--trace 0`` the last stdout line reports the end-to-end metrics, their
times scaled to a reference machine speed measured around the jobs (see
speed.py; raw times are printed on ``#`` lines); with ``--trace 1`` it
reports the per-layer metrics of a traced run. Answers are
checked by an independent oracle after timing; the exit code is 1 when a
check fails and 2 when the library cannot be found. See README.md here.
"""

import os

# Pin BLAS before numpy loads, here and in every child.
_PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(_PINNED)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import jobs as joblib  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from session import ELAPSED, MIN_PASSES, another_pass, digest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-ups measured per run; set_up_s is their median.
SETUPS = {"class_sweep": 15, "weight_sweep": 3, "point_queries": 15}
CHILD_TIMEOUT = 170

_FOOTER = re.compile(r"^# value=\S+\texamined=(\d+)\tskipped=(\d+)", re.M)


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "FSPECTRA_THREADS"}
    env.update(_PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(script, *args):
    return [sys.executable, str(BENCH_DIR / script), *args]


# ---------------------------------------------------------------- set-up


def measure_setup(workload, seed, count, env):
    """Spawn-to-READY records [wall, scaled wall] of ``count`` fresh
    session processes, each with the reference loop on either side."""
    sampler = speed.Sampler()
    records = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            _python("session.py", "--workload", workload, "--seed", str(seed), "--setup-only"),
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        line = proc.stdout.readline()
        records.append([time.perf_counter() - t0])
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT) != 0 or line.strip() != "READY":
            raise RuntimeError(f"{workload} set-up failed (exit {proc.returncode})")
        sampler.sample()
        records[-1].append(speed.scale(records[-1][0], sampler.loops[-2:]))
    return records


# ------------------------------------------------------------ class_sweep


def run_cold(job_list, seconds, trace, env):
    """Each job is a fresh interpreter running one CLI command. Records are
    as in session.run_passes. The reference loop runs here before and after
    each job and, in untraced runs, from a timer inside it (cli_job.py)."""
    records = [[] for _ in job_list]
    answers, passes, segments, unmeasured = {}, [], [], {}
    rss = 0
    start = time.perf_counter()
    sampler = speed.Sampler()
    loops = list(sampler.loops)
    while True:
        traced = trace and len(passes) % 2 == 1
        wall = 0.0
        for i, job in enumerate(job_list):
            cmd = _python("cli_job.py", *(["--trace"] if traced else []), *job["argv"])
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT)
            dt = time.perf_counter() - t0
            trailer = {}
            tail_line = proc.stderr.rstrip().rsplit("\n", 1)[-1]
            if tail_line.startswith("PERFBENCH "):
                trailer = json.loads(tail_line[len("PERFBENCH "):])
            rss = max(rss, trailer.get("peak_rss_kb", 0))
            if traced and trailer.get("trace"):
                for seg in trailer["trace"]["segments"]:
                    segments.append((len(passes), seg))
                unmeasured.update(trailer["trace"]["unmeasured"])
            status = "ok" if trailer else f"no trailer; stderr: {proc.stderr[-300:]}"
            answer = {"stdout": ELAPSED.sub("", proc.stdout), "code": proc.returncode}
            d = digest(answer)
            answers.setdefault(f"{i}:{d}", answer)
            own = dt - trailer.get("loop_s", 0.0)
            before, inside = loops[-1], trailer.get("loops", [])
            sampler.sample()
            loops += [*inside, sampler.loops[-1]]
            # Traced calls take no loops inside, so a traced run scales every
            # call by this process's loops alone, to compare the two kinds.
            around = [before, *([] if trace else inside), loops[-1]]
            scaled = speed.scale(own, around)
            wall += own
            records[i].append([own, status, d, scaled])
        passes.append({"wall": wall, "traced": traced})
        if not another_pass(passes, start, seconds, MIN_PASSES["class_sweep"]):
            break
    untraced = [k for k, p in enumerate(passes) if not p["traced"]]
    graphs, graph_time = 0, 0.0
    for i, job in enumerate(job_list):
        if job["kind"] != "extremal":
            continue
        for _, _, d, scaled in (records[i][k] for k in untraced):
            m = _FOOTER.search(answers[f"{i}:{d}"]["stdout"])
            if m:
                graphs += int(m.group(1)) + int(m.group(2))
                graph_time += scaled
    return {"passes": passes, "records": records, "answers": answers, "peak_rss_kb": rss,
            "segments": segments, "unmeasured": unmeasured, "reference_loops": loops,
            "graphs_per_s": graphs / graph_time if graph_time else 0.0}


def enumerate_classes(env):
    proc = subprocess.run(_python("session.py", "--classes"), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"class enumeration failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------- session workloads


def run_session(workload, seed, seconds, trace, env):
    proc = subprocess.Popen(
        _python("session.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), *(["--trace"] if trace else [])),
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        out, _ = proc.communicate(timeout=seconds + CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"{workload} session failed (exit {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    segments, unmeasured = [], {}
    if result.get("trace"):
        for seg in result["trace"]["segments"]:
            pid = None if seg["label"] == "setup" else int(seg["label"][4:])
            segments.append((pid, seg))
        unmeasured = result["trace"]["unmeasured"]
    result["segments"], result["unmeasured"] = segments, unmeasured
    untraced = [i for i, p in enumerate(result["passes"]) if not p["traced"]]
    job_time = sum(result["records"][j][i][3] for i in untraced for j in range(len(result["records"])))
    graphs = sum(result["passes"][i]["graphs"] for i in untraced)
    result["graphs_per_s"] = graphs / job_time if job_time else 0.0
    return result


# ------------------------------------------------------------------ checks


def check_answers(workload, job_list, result, env):
    """Oracle verdicts: (failed job records, global errors, job errors,
    weak certificates). A principal certificate weaker than "normal" is
    still a true bound, so it is reported, not failed."""
    errors = oracle.self_check()
    if workload == "class_sweep":
        classes = enumerate_classes(env)
    else:
        classes = result.get("classes", {})
    for key, graphs in sorted(classes.items()):
        name, order = key.split(":")
        errors += oracle.check_class(name, int(order), graphs)

    verdict, job_errors, weak = {}, [], []
    for key, answer in result["answers"].items():
        i = int(key.split(":")[0])
        job = job_list[i]
        if answer is None:
            errs = ["job raised (see status)"]
        elif workload == "class_sweep":
            if job["kind"] == "extremal":
                errs = oracle.check_extremal(job, classes, {"tsv": answer["stdout"]})
                if answer["code"] != 0:
                    errs.append(f"exit code {answer['code']}")
            elif job["kind"] == "rho":
                errs = oracle.check_cli_rho(job, answer["stdout"], answer["code"])
            else:
                errs = oracle.check_verify(job, classes, answer["stdout"], answer["code"])
        elif workload == "weight_sweep":
            errs = oracle.check_extremal(job, classes, answer)
        else:
            errs = oracle.check_point(job, answer)
            if job["kind"] == "certify" and answer["classification"] != "normal":
                weak.append(f"{job['id']} {job['family']} {joblib.weight_spec(job['weight'])}: "
                            f"principal certificate classified {answer['classification']}")
        verdict[key] = not errs
        job_errors += [f"{job['id']}: {e}" for e in errs]

    failed = 0
    for i, recs in enumerate(result["records"]):
        for _, status, d, _ in recs:
            if status != "ok" or not verdict[f"{i}:{d}"]:
                failed += 1
                if status != "ok":
                    job_errors.append(f"{job_list[i]['id']}: {status}")
    return failed, errors, job_errors, weak


# ------------------------------------------------------------------ facts


def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "fspectra").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": dict(_PINNED),
        "fspectra_threads": os.environ.get("FSPECTRA_THREADS"),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest()[:16],
    }


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ------------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fspectra" / "__init__.py").is_file():
        print(f"error: fspectra sources not found under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    workload, trace = args.workload, bool(args.trace)
    job_list = joblib.build(workload, args.seed)

    setups = [] if trace else measure_setup(workload, args.seed, SETUPS[workload], env)
    if workload == "class_sweep":
        result = run_cold(job_list, args.seconds, trace, env)
    else:
        result = run_session(workload, args.seed, args.seconds, trace, env)

    failed, errors, job_errors, weak = check_answers(workload, job_list, result, env)
    attempted = sum(len(r) for r in result["records"])
    passes = result["passes"]
    untraced = [i for i, p in enumerate(passes) if not p["traced"]]
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    # Record element 3 is the scaled time, 0 the raw one.
    samples = [result["records"][j][i][3] for i in untraced for j in range(len(job_list))]
    raw_samples = [result["records"][j][i][0] for i in untraced for j in range(len(job_list))]
    loops = result["reference_loops"]

    facts = machine_facts(args.seed)
    print(f"# workload={workload} seed={args.seed} seconds={args.seconds:g} trace={int(trace)}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# passes={len(passes)} (traced {len(traced)}) jobs/pass={len(job_list)} "
          f"job samples={len(samples)}")
    print(f"# attempted={attempted} failed={failed} failed_share={failed / attempted:.6g}")
    print(f"# reference loop: median {statistics.median(loops):.5f} s, range "
          f"{min(loops):.5f}..{max(loops):.5f} s over {len(loops)} timings; times below are "
          f"scaled to {speed.REFERENCE_S} s (see speed.py)")
    job_medians = []
    for job, recs in zip(job_list, result["records"]):
        job_medians.append(statistics.median(recs[i][3] for i in untraced))
        raw = statistics.median(recs[i][0] for i in untraced)
        print(f"# job {job['id']} median {job_medians[-1]:.4f} s (raw {raw:.4f} s) "
              f"over {len(untraced)} passes")
    for err in (errors + job_errors)[:30]:
        print(f"# CHECK FAILED {err}")
    for line in weak:
        print(f"# weak certificate {line}")

    if trace:
        # A pass time is, as for wall_s, the sum of the jobs' scaled medians.
        # The first pass of a session fills caches; leave it out when
        # another untraced pass exists. Cold CLI passes are all alike.
        def pass_time(ids):
            return [sum(statistics.median(recs[i][3] for i in ids) for recs in result["records"])] if ids else []

        warm = workload != "class_sweep" and len(untraced) > 1
        walls_u = pass_time(untraced[1:] if warm else untraced)
        walls_t = pass_time(traced)
        values, notes = tracing.reduce(result["segments"], result["unmeasured"], walls_u, walls_t)
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in tracing.PER_LAYER.items()}
        for name, note in sorted(notes.items()):
            print(f"# note {name}: {note}")
        print(f"# tracing overhead: traced pass {statistics.median(walls_t) if walls_t else float('nan'):.4f} s"
              f" - untraced pass {statistics.median(walls_u):.4f} s")
    else:
        level = stats.tail_level(len(job_list) * MIN_PASSES[workload])
        p_tail, above = stats.tail(samples, level)
        print(f"# job_p90_s is the p{float(level) * 100:.4g} latency: "
              f"{above} of {len(samples)} samples lie above it")
        print(f"# raw: setup_s {statistics.median(r[0] for r in setups):.6g} s, "
              f"wall_s {statistics.median(passes[i]['wall'] for i in untraced):.6g} s (median pass), "
              f"job_p50_s {statistics.median(raw_samples):.6g} s, "
              f"job_p90_s {stats.tail(raw_samples, level)[0]:.6g} s")
        values = {
            "setup_s": statistics.median(r[1] for r in setups),
            "wall_s": sum(job_medians),
            "job_p50_s": statistics.median(samples),
            "job_p90_s": p_tail,
            "graphs_per_s": result["graphs_per_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in stats.END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
