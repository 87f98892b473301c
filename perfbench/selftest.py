"""Self-test of the benchmark harness (not of magtrap).

    python3 perfbench/selftest.py

Shows that a nonzero exit, a missing artifact, a corrupted artifact and a
session repeat that changes its answer are each counted as failures, that
the generator is deterministic in its seed, and that the metric names match
BENCHMARK.json. Exits 0 when every claim holds. Takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def _cli(argv, outputs, **params):
    return {"kind": "cli", "name": argv[0], "argv": argv, "outputs": outputs,
            "params": params}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks

    failures = []

    def expect(claim, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {claim}")
        if not ok:
            failures.append(claim)

    for name in workloads.BUILDERS:
        a = json.dumps(workloads.build(name, 7, 30))
        expect(f"{name}: same seed, byte-identical jobs",
               a == json.dumps(workloads.build(name, 7, 30)))
        expect(f"{name}: another seed, other jobs",
               a != json.dumps(workloads.build(name, 8, 30)))

    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    import spans
    expect("end-to-end names match BENCHMARK.json",
           [m["name"] for m in declared["end_to_end"]]
           == [n for n, _ in run.END_TO_END])
    expect("per-layer names match BENCHMARK.json",
           [m["name"] for m in declared["per_layer"]]
           == [n for n, _ in spans.LAYER_METRICS])

    good = _cli(["spectrum", "--b", "0", "--nu-grid", "0.5:1.25:0.5",
                 "--m", "0,1", "--levels", "2", "--K", "20",
                 "--out", "good.csv"], ["good.csv"],
                b=0.0, n_nu=2, n_m=2, levels=2)
    # b = 0 has no 0<->1 crossing: BracketingError, exit 3
    nonzero = _cli(["crossings", "--b", "0", "--m1", "0", "--m2", "1",
                    "--nu-bracket", "0.1:2", "--K", "8", "--out", "x.json"],
                   ["x.json"], b=0.0, bracket=[0.1, 2.0])
    missing = dict(good, outputs=["good.csv", "absent.csv"])

    workdir = run.WORK / f"selftest-{time.time_ns()}"
    try:
        records = run.run_jobs([good, nonzero, missing], workdir, False,
                               time.monotonic() + 120)
        expect("a good job passes its checks", not records[0]["problems"])
        expect("a nonzero exit is a failure", records[1]["problems"] != [])
        expect("a missing artifact is a failure", records[2]["problems"] != [])
        expect("tally counts 2 of 3 jobs failed", run.tally(records) == (3, 2))

        artifact = workdir / "good.csv"
        text = artifact.read_text()
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines) if line[0] != "#")
        *head, energy = lines[row].split(",")
        lines[row] = ",".join(head + [repr(float(energy) + 1e-6)])
        artifact.write_text("\n".join(lines) + "\n")
        expect("a b = 0 energy off its closed form is a failure",
               checks.check_cli_job(good, workdir) != [])
        artifact.write_text(text[: len(text) // 2] + "garbage,\n")
        bad = checks.check_cli_job(good, workdir)
        expect("a truncated, garbled artifact is a failure", bad != [])
        expect("tally counts it",
               run.tally([{"job": good, "problems": bad}]) == (1, 1))
    finally:
        run.remove_workdir(workdir)

    session = {"kind": "session", "states": [[1.0, 1.0, 0, 20]],
               "order": [0, 0, 0]}
    same = ["0x1.0p+0", "0x1.8p+0", "0x1.0p+1", "0x1.0p-1", "0x1.0p+2"]
    result = {"ground_energies": [1.0],
              "outputs": [[0, *same], [0, *same],
                          [0, "0x1.0000000000001p+0", *same[1:]]]}
    bad = checks.check_session(session, result)
    expect("a repeat that changes its answer is a failure", bad == [2])
    expect("tally counts the one bad request",
           run.tally([{"job": session, "problems": [],
                       "bad_requests": bad}]) == (3, 1))

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
