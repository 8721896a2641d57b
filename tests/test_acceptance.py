"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Criteria 1-7 and 9 are unconditional.  Criterion 8 reproduces reference
long-horizon behavior and is contingent on the frozen starting graph; the
shipped graph reproduces 8a and 8b, and any future divergence is reported
with observed values instead of failing silently.
"""

import contextlib
import hashlib
import json
import statistics
import time

import numpy as np

from gra import _kernels
from gra.analysis import classify, increment_support, zero_growth_intervals
from gra.cli import main as cli_main
from gra.dense import reference_step_dense
from gra.engine import Budget, divide_vertex, evolve, step
from gra.generate import random_regular_graph, ring_chord_graph
from gra.graph import (
    canonical_g0,
    complement_states,
    configuration_vector,
    k4_one_alive,
)
from gra.rules import complement_rule, decode, single_division_subset
from gra.sweep import format_census_table, load_preset, run_sweep


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_c1_division_golden():
    with criterion(1, "single division reproduces the golden 6x6 matrix"):
        g = divide_vertex(k4_one_alive(), 1)
        expected = np.array(
            [
                [0, 1, 0, 0, 1, 1],
                [1, 0, 1, 1, 0, 0],
                [0, 1, 0, 1, 1, 0],
                [0, 1, 1, 0, 0, 1],
                [1, 0, 1, 0, 0, 1],
                [1, 0, 0, 1, 1, 0],
            ],
            dtype=np.int8,
        )
        assert np.array_equal(g.adjacency_matrix(), expected)
        assert np.array_equal(g.states, [1, 0, 0, 0, 0, 0])


def test_c2_rule_decoding_golden():
    with criterion(2, "rule 765 decodes to its reference tables"):
        r = decode(765)
        assert tuple(r.next_state) == (1, 0, 1, 1, 1, 1, 1, 1)
        assert tuple(r.divides) == (0, 1, 0, 0, 0, 0, 0, 0)


def test_c3_oracle_equivalence():
    with criterion(3, "engine equals the dense oracle (random + sweep inputs)"):
        mismatches = 0
        rng = np.random.default_rng(20250808)
        for i in range(1000):
            order = int(rng.integers(2, 101)) * 2
            g = random_regular_graph(
                order, seed=int(rng.integers(2**31)), alive_probability=float(rng.random())
            )
            rule = decode(int(rng.integers(65536)))
            if step(g, rule) != reference_step_dense(g, rule):
                mismatches += 1
        g0 = canonical_g0()
        for n in single_division_subset():
            rule = decode(n)
            g = g0
            for _ in range(5):
                fast = step(g, rule)
                ref = reference_step_dense(g, rule)
                if fast != ref:
                    mismatches += 1
                g = fast
        assert mismatches == 0


def test_c4_color_symmetry_commutation():
    with criterion(4, "stepping commutes with flipping states and the rule"):
        rng = np.random.default_rng(4242)
        mismatches = 0
        for _ in range(200):
            order = int(rng.integers(2, 41)) * 2
            g = random_regular_graph(
                order, seed=int(rng.integers(2**31)), alive_probability=float(rng.random())
            )
            rule = decode(int(rng.integers(65536)))
            lhs = step(complement_states(g), complement_rule(rule))
            rhs = complement_states(step(g, rule))
            if lhs != rhs:
                mismatches += 1
        assert mismatches == 0


def test_c5_rule_256_exponential_law():
    with criterion(5, "rule 256 triples the order exactly for 1 <= t <= 10"):
        trace = evolve(canonical_g0(), decode(256), Budget(max_steps=11, max_order=10**9))
        for t in range(1, 11):
            assert trace.orders[t + 1] == 3 * trace.orders[t]


def test_c6_invariant_suite():
    with criterion(6, "structural invariants hold over 10,000 random steps"):
        rng = np.random.default_rng(606060)
        steps_done = 0
        violations = 0
        while steps_done < 10_000:
            order = int(rng.integers(2, 33)) * 2
            g = random_regular_graph(
                order, seed=int(rng.integers(2**31)), alive_probability=float(rng.random())
            )
            rule = decode(int(rng.integers(65536)))
            for _ in range(25):
                conf = configuration_vector(g)
                expected_div = int(rule.divides[conf].sum())
                out = step(g, rule)
                steps_done += 1
                try:
                    out.validate()
                except Exception:
                    violations += 1
                if out.order - g.order != 2 * expected_div or out.order < g.order:
                    violations += 1
                g = out
                if g.order > 3000 or steps_done >= 10_000:
                    break
        assert violations == 0, f"{violations} violations in {steps_done} steps"


def test_c7_determinism(tmp_path, capsys):
    with criterion(7, "identical inputs give byte-identical outputs"):
        # simulate twice
        outs = []
        for tag in ("a", "b"):
            csv = tmp_path / f"sim_{tag}.csv"
            tj = tmp_path / f"sim_{tag}.json"
            dot = tmp_path / f"sim_{tag}.dot"
            code = cli_main(
                [
                    "simulate",
                    "2222",
                    "--steps",
                    "500",
                    "--csv",
                    str(csv),
                    "--trace-json",
                    str(tj),
                    "--export",
                    str(dot),
                ]
            )
            assert code == 0
            outs.append((csv.read_bytes(), tj.read_bytes(), dot.read_bytes()))
        assert outs[0] == outs[1]

        # sweep: rerun and vary worker count
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "rules": [0, 256, 300, 765, 2182, 2222, 40000],
                    "initial": "paper-g0",
                    "budget": {"max_steps": 150, "max_order": 50000},
                }
            )
        )
        blobs = []
        for tag, workers in (("w1", "1"), ("w1b", "1"), ("w2", "2")):
            out_dir = tmp_path / tag
            code = cli_main(
                [
                    "sweep",
                    "--config",
                    str(config),
                    "--out",
                    str(out_dir),
                    "--workers",
                    workers,
                ]
            )
            assert code == 0
            blobs.append(
                (
                    (out_dir / "report.json").read_bytes(),
                    (out_dir / "journal.jsonl").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1] == blobs[2]
        capsys.readouterr()  # swallow CLI chatter


def test_c8a_rule_2222_chaotic_linear():
    with criterion(8, "a) rule 2222 to t=20000: chaotic linear growth in band"):
        trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=20_000))
        cls = classify(trace)
        slope = cls.fit.linear.params["slope"] if cls.fit else None
        r2 = cls.fit.linear.adjusted_r2 if cls.fit else None
        support = increment_support(trace.increments)
        observed = (
            f"category={cls.category.value} slope={slope} r2={r2} support={sorted(support)}"
        )
        assert cls.category.value == "LinearChaotic", f"divergence from reference: {observed}"
        assert 0.60 <= slope <= 0.66, f"divergence from reference: {observed}"
        assert r2 >= 0.999, f"divergence from reference: {observed}"
        assert support <= {0, 2, 4, 6}, f"divergence from reference: {observed}"
        # zero-growth interval counts fall off roughly geometrically with
        # length, the shape behind the reference log-linear distribution
        hist = zero_growth_intervals(trace.increments)
        counts = [hist.get(length, 0) for length in (2, 4, 6, 8, 10, 12)]
        assert all(a > b > 0 for a, b in zip(counts, counts[1:])), f"intervals: {hist}"
        print(f"  reproduced: {observed}")


def test_c8b_rule_2182_quadratic():
    with criterion(8, "b) rule 2182 to t=600: quadratic growth in band"):
        trace = evolve(canonical_g0(), decode(2182), Budget(max_steps=600))
        cls = classify(trace)
        exponent = cls.fit.power.params["exponent"] if cls.fit and cls.fit.power else None
        observed = f"category={cls.category.value} exponent={exponent}"
        assert cls.category.value == "Quadratic", f"divergence from reference: {observed}"
        assert 1.94 <= exponent <= 2.10, f"divergence from reference: {observed}"
        print(f"  reproduced: {observed}")


# sha256 of the smoke preset's report.json and journal.jsonl; a change that
# alters the smoke census on purpose updates them and says why
SMOKE_DIGESTS = {
    "report.json": "a3ff6e3493e6fbddc4bf27005e1b2922b6e2929ecfaf610f2905edc2804e582f",
    "journal.jsonl": "eb9eced1b91791861be3f2546f524b527e7cec36e2bf551a97db11f104ecab5e",
}


def test_c8c_smoke_sweep_census(tmp_path):
    with criterion(8, "c) 1024-rule smoke sweep under 10 minutes with census diff"):
        start = time.monotonic()
        config = load_preset("single-division-smoke")
        config.workers = 1
        report = run_sweep(config, journal_path=tmp_path / "journal.jsonl")
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"smoke sweep took {elapsed:.0f}s"
        assert len(report.records) == 1024
        counts = report.category_counts()
        assert sum(counts.values()) == 1024
        diff = report.baseline_diff()
        assert diff is not None
        (tmp_path / "report.json").write_text(report.to_json())
        # the smoke gate: the census files are byte-identical to those of
        # `gra sweep --preset single-division-smoke`, for any worker count
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.json", "journal.jsonl")
        }
        assert digests == SMOKE_DIGESTS, f"smoke census files changed: {digests}"
        print(f"  smoke sweep finished in {elapsed:.1f}s; side-by-side census diff:")
        for line in format_census_table(report).splitlines():
            print(f"    {line}")


def _pin_malloc_thresholds():
    # Large step outputs straddle glibc's dynamic mmap threshold (32 MiB
    # cap), so without this the biggest sizes pay a fresh mmap plus page
    # faults on every call while smaller ones recycle heap pages, which
    # shows up as a fake super-linear jump.  Pinning the thresholds
    # measures the engine, not the allocator policy.
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except OSError:
        pass


def test_c9_step_cost_scales_linearly():
    with criterion(9, "doubling the order at most 2.5x the median step time"):
        import gc

        _pin_malloc_thresholds()
        rule = decode(2 + (1 << 10))  # divides on configuration 2
        step(ring_chord_graph(1000, seed=1), rule)  # warmup
        orders = [10_000 * (2**k) for k in range(8)]  # 10k .. 1.28M
        graphs = [ring_chord_graph(order, seed=0) for order in orders]
        for g in graphs:
            for _ in range(3):  # warm the allocator and caches for this size
                out = step(g, rule)
            assert out.order > g.order  # the rule must exercise divisions
        # round-robin, one step per order each round, so a burst of host
        # load lands on every order alike instead of on one order's samples
        times = [[] for _ in orders]
        gc.collect()
        gc.disable()
        try:
            for _ in range(15):
                for g, samples in zip(graphs, times):
                    t0 = time.perf_counter()
                    step(g, rule)
                    samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        medians = [statistics.median(samples) for samples in times]
        print(f"  backend: {_kernels.backend_name()}")
        for order, med in zip(orders, medians):
            print(f"    order {order:>9,}: {med * 1e3:8.2f} ms/step")
        for k in range(1, len(orders)):
            ratio = medians[k] / medians[k - 1]
            assert ratio <= 2.5, (
                f"step time grew {ratio:.2f}x from order {orders[k-1]} to {orders[k]}"
            )
