"""Show that the benchmark's verification is not vacuous.

Usage (from the repository root): ``python3 perfbench/selftest.py``.

Each case runs a small instance of a workload, either as is, where every
operation must pass, or with one kbeq output deliberately made wrong, where
every operation must fail.  ``float-hermitian`` has no clean case: its known
tolerance defect rejects genuine pairs.  Exits 0 when every case behaves so.
Takes a few seconds.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "selftest"


def _corrupt_cli(args: list[str]) -> int:
    """Run the kbeq CLI in-process, then falsify its report."""
    import kbeq.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = kbeq.cli.main(args)
    payload = json.loads(buf.getvalue())
    if args[0] == "check":
        rep = payload["report"]
        if rep["holds"]:
            # claim a violation with a witness that is none
            rep.update(holds=False, witness={"x": [0] * 4, "y": [0] * 4,
                                             "lhs": [0, 1], "rhs": [0, 1]})
            code = 1
        else:
            rep.update(holds=True, witness=None)
            code = 0
    else:
        num, den = payload["form"]["P"][0][0]
        payload["form"]["P"][0][0] = [num + den, den]
    sys.stdout.write(json.dumps(payload))
    return code


def _run(wl) -> tuple[int, int]:
    import workloads

    wl.setup()
    outcomes = [workloads.run_op(op) for op in wl.ops]
    return len(outcomes), sum(1 for o in outcomes if not o.ok)


def main() -> int:
    if sys.argv[1:2] == ["--corrupt-cli"]:
        return _corrupt_cli(sys.argv[2:])
    sys.path.insert(0, str(ROOT / "src"))
    import kbeq
    import workloads

    class SmallRoundtrip(workloads.Roundtrip):
        count = 4

    class SmallWindow(workloads.Window):
        radius = 4

    class SmallFloat(workloads.FloatHermitian):
        group_literal = "Z x Z/4"
        count = 3

    class SmallCensus(workloads.Census):
        max_order = 8

    real_decompose = kbeq.decompose_positive
    real_scan = kbeq.scan_restricted_kb

    def shifted_form(f, g, *a, **k):
        form = real_decompose(f, g, *a, **k)
        l = kbeq.AdditiveMap(form.l.group, tuple(c + Fraction(1, 7) for c in form.l.coeffs))
        return kbeq.PositiveSolutionForm(form.P, l, form.m, form.r)

    def shifted_synth(form, domain):
        f, g = kbeq.functions.synth_table(form, domain)
        return kbeq.FuncTable(f.group, f.domain, f.kind,
                              {p: v + 1 for p, v in f.values.items()}), g

    def passing_check(f, g, tol=1e-9):
        return kbeq.CheckReport(True, 1, None, 1.0)

    herm_group = kbeq.parse_group(SmallFloat.group_literal)
    wrong_form = kbeq.random_hermitian_form(herm_group, Random(12345))

    def scan_with(corrupt):
        def scan(group, grid, on_chunk):
            chunks = []
            count = real_scan(group, grid, lambda rows, d: chunks.append(rows.copy()))
            chunks, count = corrupt(chunks, count)
            for rows in chunks:
                on_chunk(rows, 1)
            return count
        return scan

    def flip(chunks, count):
        chunks[-1][-1, 0] = 1 - chunks[-1][-1, 0]
        return chunks, count

    def repeat(chunks, count):
        # one row replaced by a copy of another, count unchanged
        if len(chunks[0]) > 1:
            chunks[0][1] = chunks[0][0]
        else:
            chunks[0] = chunks[0] * 0 + 1
        return chunks, count

    def overcount(chunks, count):
        return chunks, count + 1

    cli = [sys.executable, str(Path(__file__).resolve()), "--corrupt-cli"]
    cases = [
        ("roundtrip", SmallRoundtrip, [], False),
        ("roundtrip: decomposition off by 1/7", SmallRoundtrip,
         [("decompose_positive", shifted_form)], True),
        ("roundtrip: synthesized f off by 1", SmallRoundtrip,
         [("synth_table", shifted_synth)], True),
        ("window", SmallWindow, [], False),
        ("window: falsified CLI reports", SmallWindow, "cli", True),
        ("float-hermitian: accept all, wrong form", SmallFloat,
         [("check_kb", passing_check),
          ("decompose_hermitian", lambda f, g, *a, **k: wrong_form)], True),
        ("census", SmallCensus, [], False),
        ("census: a flipped value", SmallCensus, [("scan_restricted_kb", scan_with(flip))], True),
        ("census: a repeated row", SmallCensus, [("scan_restricted_kb", scan_with(repeat))], True),
        ("census: count off by one", SmallCensus,
         [("scan_restricted_kb", scan_with(overcount))], True),
    ]
    ok = True
    for label, cls, patches, sabotaged in cases:
        wl = cls(1, WORK / cls.name)
        if patches == "cli":
            wl.command = cli
            patches = []
        saved = {name: getattr(kbeq, name) for name, _ in patches}
        for name, value in patches:
            setattr(kbeq, name, value)
        try:
            attempted, failed = _run(wl)
        finally:
            for name, value in saved.items():
                setattr(kbeq, name, value)
        passed = failed == attempted if sabotaged else failed == 0
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}: "
              f"fail_ratio {failed}/{attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
