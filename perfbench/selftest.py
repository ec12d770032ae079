#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must accept the program's genuine output and reject the same
output with one result perturbed: a deficit off by 1e-6 bit (library call and
CLI row), a jump angle off by 1e-3 rad, a mirrored cell with a different
label, and a cell deficit of -1e-6 bit.  It also shows that installing the
tracer a second time leaves the first tracer without new spans.  Exits
non-zero if any check fails to do so.  Takes about 5 s.
"""

from __future__ import annotations

import dataclasses
import sys

import run
import tracing


def verdict(name: str, check, genuine, perturbed) -> bool:
    accepts = not check(genuine)[0]
    rejects = bool(check(perturbed)[0])
    ok = accepts and rejects
    print(f"{'ok  ' if ok else 'FAIL'} {name}: accepts genuine={accepts}, rejects perturbed={rejects}")
    return ok


def main() -> int:
    run.load_package()
    results = []

    w = run.WindowQueries(seed=1)
    w.inputs = w.inputs[:10]
    out = w.run_round()
    bad = [(out[0][0] + 1e-6, *out[0][1:]), *out[1:]]
    results.append(verdict("window_queries deficit + 1e-6 bit", w.check, out, bad))

    c = run.CliSession(seed=1)
    texts, oracle = c.run_round()
    header, row = texts[0].splitlines()
    fields = row.split(",")
    fields[2] = f"{float(fields[2]) + 1e-6:.6g}"
    bad_texts = [f"{header}\n{','.join(fields)}\n", *texts[1:]]
    results.append(verdict("cli_session deficit row + 1e-6 bit", c.check, (texts, oracle), (bad_texts, oracle)))

    b = run.BoundaryLandmarks(seed=1)
    table = run.X.boundaries.jump_angle_table()
    check_table = lambda rows: (b.check_table(rows), [])
    for k in range(len(table)):
        bad_table = list(table)
        bad_table[k] = dataclasses.replace(table[k], jump_angle=table[k].jump_angle + 1e-3)
        results.append(verdict(f"boundary_landmarks row {k} angle + 1e-3 rad", check_table, table, bad_table))

    p = run.PhaseDiagram(seed=1)
    grid = p.run_round()
    k, cell = next((k, c) for k, c in enumerate(grid.cells) if c.q1 < c.q2 and c.branch == "AtZero")
    cells = list(grid.cells)
    cells[k] = dataclasses.replace(cell, branch="AtHalfPi")
    results.append(
        verdict("phase_diagram mirrored cell relabelled", p.check, grid, dataclasses.replace(grid, cells=cells))
    )
    # a negative deficit that is not the known one-ulp fault of the diagonal:
    # on a diagonal cell, and on an off-diagonal cell together with its mirror
    index = {(c.q1, c.q2): k for k, c in enumerate(grid.cells)}
    diagonal = next(k for k, c in enumerate(grid.cells) if c.q1 == c.q2)
    off = next(k for k, c in enumerate(grid.cells) if c.q1 < c.q2)
    pair = (off, index[(grid.cells[off].q2, grid.cells[off].q1)])
    for label, ks in (("diagonal cell", (diagonal,)), ("cell and its mirror", pair)):
        cells = list(grid.cells)
        for k in ks:
            cells[k] = dataclasses.replace(cells[k], delta=-1e-6)
        results.append(
            verdict(f"phase_diagram {label} at -1e-6 bit", p.check, grid, dataclasses.replace(grid, cells=cells))
        )

    first, second = tracing.Tracer(), tracing.Tracer()
    tracing.install(first)
    tracing.install(second)
    run.X.deficit.one_way_deficit(run.X.StateParams(0.6, 0.01))
    ok = len(first.start) == 0 and len(second.start) > 0
    print(f"{'ok  ' if ok else 'FAIL'} tracer installed twice: first {len(first.start)} spans, "
          f"second {len(second.start)} spans")
    results.append(ok)

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
