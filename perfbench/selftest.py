"""Self-test of the benchmark's own code; needs no bordismkit.

    python3 perfbench/selftest.py

``run.py`` calls ``run()`` before every benchmark run and refuses to report
numbers when it returns a problem: a checker that cannot see a wrong answer,
or self-time arithmetic that is off, would make every later number suspect.
"""

from __future__ import annotations

import sys


def run() -> list[str]:
    import calib
    import oracle
    import run
    import tracer
    import workloads

    problems = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    # the independent derivations
    expect([oracle.kernel_dim(n) for n in range(1, 6)] == [0, 1, 13, 511, 61193],
           "closed-form kernel dimensions")
    expect(oracle.cp_product_chern_numbers((2,)) == {(2, 0): 9, (0, 1): 3},
           "Chern numbers of CP^2")
    expect(oracle.cp_product_chern_numbers((1, 1)) == {(2, 0): 8, (0, 1): 4},
           "Chern numbers of CP^1 x CP^1")
    g = {((0, 1), (1, 0)): 1, ((1, 1), (0, 1)): -2}
    g = {tuple(sorted(m)): c for m, c in g.items()}
    expect(oracle.z_dual(oracle.z_dual(g)) == g, "the integer dual is an involution")
    expect(oracle.mod2({((1, 2), (3, 1)): 3, ((1, 0), (0, 1)): 2}) ==
           frozenset({((1, 0), (1, 1))}), "mod-2 reduction")

    # a known-wrong answer must register as an error
    good = {"kernel_space(1)": 0, "kernel_space(2)": 1, "kernel_space(3)": 13,
            "kernel_space(4)": 511, "spanning_rank(3)": 13,
            "spanning_rank(4,target=511)": 511}
    expect(not any(workloads.check("span", good).values()),
           "correct span answers are accepted")
    wrong = dict(good, **{"kernel_space(4)": 510})
    verdicts = workloads.check("span", wrong)
    expect(verdicts["kernel_space(4)"] is not None, "a rank-4 dimension of 510 is caught")
    expect(verdicts["spanning_rank(4,target=511)"] is not None,
           "a span rank differing from the computed dimension is caught")
    failures = {k: v for k, v in verdicts.items() if v}
    attempted, failed = run.tally([
        {"attempted": 6, "failures": {}},
        {"attempted": 6, "failures": failures},
        {"crashed": True}])
    expect((attempted, failed) == (18, 2 + 6), f"error tally {attempted, failed}")

    # self time on a synthetic span tree: root [0, 10] with children [1, 3]
    # and [2, 5] (overlapping: union 4), [9, 12] (clipped to 1) and 1 s of
    # hot-leaf time; a grandchild [1.5, 2] inside the first child; a span
    # opened under a hot call is not subtracted again
    spans = [["root", 0.0, 10.0, -1, 1.0, False],
             ["a", 1.0, 3.0, 0, 0.0, False],
             ["b", 2.0, 5.0, 0, 0.0, False],
             ["c", 9.0, 12.0, 0, 0.0, False],
             ["a1", 1.5, 2.0, 1, 0.0, False],
             ["h", 6.0, 6.5, 0, 0.0, True]]
    selfs = tracer.self_times(spans)
    expect([round(x, 9) for x in selfs] == [4.0, 1.5, 3.0, 3.0, 0.5, 0.5],
           f"self times {selfs}")

    # a span counts the hot calls made while it is open, and only those
    rec = tracer.Tracer()
    det = rec.wrap_hot("intmat.det", lambda m: 1)
    search = rec.wrap_span("kernels.window_monomials", lambda k: [det(i) for i in range(k)])
    det(0)
    search(3)
    search(2)
    expect(rec.counters["kernels.window_monomials.candidates"] == 5
           and rec.hot["intmat.det"][0] == 6, f"hot calls inside a span {dict(rec.counters)}")

    # reference seconds: chunks inside a work interval are cut out, and
    # each piece is converted at the median speed of the chunks nearest to
    # it (up to two on each side)
    timeline = calib.Timeline()
    timeline.chunks = [(0.0, 0.1, 0.010), (1.1, 1.2, 0.020), (1.2, 1.3, 0.030),
                       (2.0, 2.5, 0.040), (4.5, 4.6, 0.050)]
    timeline.intervals = [(0.1, 1.1), (1.3, 4.5)]
    expect(abs(timeline.raw_s() - 3.7) < 1e-9, f"raw seconds {timeline.raw_s()}")
    ref = calib.REFERENCE_S
    want = [1.0 * ref / 0.020,                       # chunks 1-3
            0.7 * ref / 0.035 + 2.0 * ref / 0.040]   # chunks 2-5, chunks 3-5
    got = timeline.reference_pieces()
    expect(all(abs(a - b) < 1e-9 for a, b in zip(got, want)) and len(got) == 2,
           f"reference pieces {got}, expected {want}")

    # tail: highest percentile with ten samples beyond it
    expect(run.tail(list(range(1, 20))) is None, "no tail below 20 samples")
    expect(run.tail(list(range(1, 41))) == (75, 30), "p75 of 40 samples")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print("FAIL", p)
    print("selftest:", "ok" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
