"""Tests of the benchmark itself (not of fspectra).

    python -m pytest perfbench/test_perfbench.py
"""

import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import jobs
import oracle
import speed
import stats
import tracing

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert jobs.build(workload, 7) == jobs.build(workload, 7)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_new_seed_new_jobs_same_mix(workload):
    a, b = jobs.build(workload, 7), jobs.build(workload, 8)
    assert a != b
    assert jobs.job_mix(a) == jobs.job_mix(b)


def test_weight_specs_round_trip_values():
    w = {"kind": "table", "entries": [[1, 2, 1.25], [2, 2, 0.1]]}
    assert jobs.weight_spec(w) == "table:1,2=1.25;2,2=0.1"
    assert jobs.weight_spec({"kind": "const", "c": 2.5}) == "const:2.5"


def test_oracle_self_check_passes():
    assert oracle.self_check() == []


@pytest.mark.parametrize("n", [2, 5, 30, 101])
def test_oracle_path_closed_form(n):
    c = 1.7
    got = oracle.rho(*oracle.build_family(f"path:{n}"), {"kind": "const", "c": c})
    assert got == pytest.approx(2 * c * math.cos(math.pi / (n + 1)), rel=1e-12)


@pytest.mark.parametrize("name", ["sombor", "abc", "zagreb2", "randic"])
def test_oracle_cycle_and_star_closed_forms(name):
    w = {"kind": "named", "name": name}
    f = oracle.weight_fn(w)
    assert oracle.rho(*oracle.build_family("cycle:11"), w) == pytest.approx(2 * f(2, 2), rel=1e-12)
    assert oracle.rho(*oracle.build_family("star:9"), w) == pytest.approx(f(8, 1) * math.sqrt(8), rel=1e-12)


def test_oracle_paper_pair_at_order_8():
    specs, index = oracle.pfb_index(8)
    _, _, want, ambiguous, _ = oracle.expected_extremal(index.graphs, {"kind": "named", "name": "sombor"}, "min")
    assert not ambiguous
    assert {specs[i] for i in want} == oracle.paper_minimisers(8) == {"theta:3,3,3", "infty:3,3,3"}


def test_oracle_rejects_a_wrong_winner():
    job = {"class": "pendant_free_bicyclic", "order": 8, "objective": "min",
           "weight": {"kind": "named", "name": "sombor"}}
    specs, index = oracle.pfb_index(8)
    values = oracle.rhos(index.graphs, job["weight"])
    loser = max(range(len(values)), key=values.__getitem__)
    n, edges = index.graphs[loser]
    bits = "".join("1" if (i, j) in set(edges) else "0" for j in range(1, n) for i in range(j))
    tsv = (f"# class=pendant_free_bicyclic\n{values[loser]:.6f}\t{specs[loser]}\t{n}:{bits}\n"
           f"# value={values[loser]:.6f}\texamined={len(specs)}\tskipped=0\n")
    errors = oracle.check_extremal(job, {}, {"tsv": tsv})
    assert any("printed value" in e for e in errors)
    assert any("winner set" in e for e in errors)


def test_metric_names_are_well_formed():
    names = list(stats.END_TO_END) + list(tracing.PER_LAYER)
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == stats.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (unit, _) in tracing.PER_LAYER.items()
    }


@pytest.mark.parametrize("guaranteed", [11, 12, 32, 99, 100, 132, 500])
@pytest.mark.parametrize("extra_passes", [0, 1, 3])
def test_tail_keeps_ten_samples_above(guaranteed, extra_passes):
    level = stats.tail_level(guaranteed)
    assert level <= Fraction(9, 10)
    # Any run collects at least the guaranteed number of samples.
    n = guaranteed + extra_passes * max(1, guaranteed // 10)
    samples = [float(i) for i in range(n)]
    value, above = stats.tail(samples, level)
    assert above >= stats.MIN_ABOVE
    assert above == sum(1 for s in samples if s > value)


def test_tail_is_p90_with_enough_samples():
    assert stats.tail_level(100) == Fraction(9, 10)
    assert stats.tail_level(40) == Fraction(3, 4)
    with pytest.raises(ValueError):
        stats.tail_level(10)


def test_scale_uses_the_median_loop_around_a_job():
    assert speed.scale(2.0, [speed.REFERENCE_S]) == pytest.approx(2.0)
    assert speed.scale(2.0, [0.010, 0.014]) == pytest.approx(2.0 * speed.REFERENCE_S / 0.012)
    assert speed.scale(2.0, [0.010, 0.014, 0.300]) == pytest.approx(2.0 * speed.REFERENCE_S / 0.014)


def test_sampler_counts_all_loop_time(monkeypatch):
    loops = iter([0.05, 0.010, 0.014])
    monkeypatch.setattr(speed, "reference_loop", lambda: next(loops))
    sampler = speed.Sampler()
    assert sampler.loops == [0.010]  # the first, warm-up loop is not a sample
    n0, spent0 = sampler.mark()
    sampler.sample()
    n1, spent1 = sampler.mark()
    assert (n0, n1) == (1, 2)
    assert spent1 - spent0 == pytest.approx(0.014)


def test_sampler_timer_samples_a_long_job():
    sampler = speed.Sampler(timer=True)
    try:
        n0, spent0 = sampler.mark()
        end = time.perf_counter() + 3 * speed.STRETCH_S
        while time.perf_counter() < end:
            pass
        n1, spent1 = sampler.mark()
    finally:
        sampler.stop()
    assert n1 - n0 >= 2
    assert spent1 - spent0 == pytest.approx(sum(sampler.loops[n0:n1]))
