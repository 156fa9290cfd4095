"""The byte-identity tool gives the same digests for the same runs, and
different ones where a run's output differs."""
import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "output_digests", ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)

TINY = {
    "chain": (["backhaul", "--figure", "custom", "--mode", "no-ra",
               "--rho", "0.5", "--hops", "2", "--link-erasure", "0.1",
               "--replications", "1", "--packets", "2000"], True),
    "analytic": (["analytic", "--preset", "backhauling", "--rho", "0.5",
                  "--hops", "2"], False),
}


def test_same_runs_give_same_digests():
    first = output_digests.digest_lines([3, 4], TINY)
    assert first == output_digests.digest_lines([3, 4], TINY)
    files = {line.split("  ")[1]: line.split("  ")[0] for line in first}
    # a tolerance report may flag a 2,000-packet row, which exits 1
    assert {files["seed3/chain"], files["seed4/chain"]} <= {"exit=0",
                                                             "exit=1"}
    assert files["analytic"] == "exit=0"
    assert "analytic/analytic.csv" in files
    # the seed reaches the simulated rows and not the closed forms
    assert files["seed3/chain/backhaul_rows.csv"] != \
        files["seed4/chain/backhaul_rows.csv"]
    assert files["seed3/chain/analytic_overlay.csv"] == \
        files["seed4/chain/analytic_overlay.csv"]


def test_pool_writes_the_serial_bytes():
    a10 = ["backhaul", "--figure", "custom", "--mode", "ra-a10", "--rho",
           "0.3", "0.6", "--hops", "1", "2", "--replications", "2",
           "--packets", "2000"]
    lines = output_digests.digest_lines([3], {
        "w1": ([*a10, "--workers", "1"], True),
        "w2": ([*a10, "--workers", "2"], True)})
    files = {line.split("  ")[1]: line.split("  ")[0] for line in lines}
    assert files["seed3/w1"] == files["seed3/w2"]
    for name in ("backhaul_rows.csv", "backhaul_summary.csv", "report.txt"):
        assert files[f"seed3/w1/{name}"] == files[f"seed3/w2/{name}"]
    # metadata.json records the worker count
    assert files["seed3/w1/metadata.json"] != files["seed3/w2/metadata.json"]


def test_bad_input_prints_are_digested():
    lines = output_digests.bad_input_lines({
        "unknown": ["offload", "--set", "traffic.bogus=1"],
        "validate": ["validate", "--set", "horizon=-1"]})
    unknown = ("error: leoiot offload: traffic.bogus: unknown key 'bogus'; "
               "known: total_rate, ground_ratio\n")
    violation = "violation: horizon: -1.0 must be > 0\n"
    digest = {text: hashlib.sha256(text.encode()).hexdigest()
              for text in ("", unknown, violation)}
    assert lines == [
        "exit=2  bad/unknown", f"{digest['']}  bad/unknown/stdout",
        f"{digest[unknown]}  bad/unknown/stderr",
        "exit=1  bad/validate", f"{digest[violation]}  bad/validate/stdout",
        f"{digest['']}  bad/validate/stderr"]
