#!/usr/bin/env python3
"""Coverage gate: every function defined in a src/**/*.cc file is run by the
smoke benches and examples, or is allowlisted with the test that covers it.

Run from the repository root:

    python3 tools/check_coverage.py [--no-run]

The script configures the `coverage` preset (--coverage -O0, build-cov/) if
needed and builds the binaries it runs. It zeroes the counters (deletes
every .gcda under build-cov/), runs the smoke bench invocations of ci.sh
and the four examples at smoke sizes against the coverage binaries, then
reads every src/ object's counts with `gcov --json-format`. It fails on:

  * a function defined in a src/**/*.cc file that ran zero times and is not
    in tools/coverage_allowlist.txt. A .cc file compiled into a library but
    never linked into any binary has no .gcda; all its functions count as
    unrun. A .cc file that no library compiles fails as well.
  * an allowlist entry that names no zero-hit function (the function is now
    run, or gone), or names a test that does not exist under tests/.

Functions defined in headers (inlines, templates) are out of scope: their
per-instantiation counts are noise. Instances of one definition (template
instantiations, constructor variants, coroutine ramp/actor/destroy parts)
count as run if any of them ran. Lambdas count with the function that
defines them.

Allowlist lines are `<function> <Suite.Name>`; `#` starts a comment. The
function is its qualified name without `tio::` and without parameters, for
example `pfs::FaultPlan::to_string`; `name(text)` matches only the
overloads whose demangled parameter list contains `text`, as in
`pfs::Namespace::lookup(string_view)`. The test, the line's last word, is
the gtest `TEST` (or `TEST_F`/`TEST_P`) that runs the function.

--no-run skips the build and the runs and reads the counts already on disk.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-cov"  # the coverage preset's binaryDir
ALLOWLIST = ROOT / "tools" / "coverage_allowlist.txt"

# ci.sh's smoke bench invocations, one per distinct flag set, plus the four
# examples at smoke sizes. {out} is a temporary directory for --json/--trace.
RUNS = [
    ["bench/fig4_read_scaling", "--max-streams", "32", "--per-proc-mib", "2",
     "--json={out}/fig4.json", "--trace={out}/fig4_trace.json"],
    ["bench/fig4_read_scaling", "--max-streams", "32", "--per-proc-mib", "2", "--shards=4",
     "--trace={out}/fig4_trace_s4.json"],
    ["bench/fig4_read_scaling", "--max-streams", "32", "--per-proc-mib", "2",
     "--topology=flat", "--racks=8", "--oversubscription=4"],
    ["bench/fig5_kernels", "--max-procs", "64", "--scale-mib", "2"],
    ["bench/fig5_kernels", "--max-procs", "64", "--scale-mib", "2", "--shards=4"],
    ["bench/fig5_kernels", "--max-procs", "64", "--scale-mib", "2", "--cb-node-agg",
     "--cb-sieve-threshold=2", "--noncontig", "--json={out}/fig5_cb.json",
     "--trace={out}/fig5_cb_trace.json"],
    ["bench/fig5_kernels", "--max-procs", "64", "--scale-mib", "2",
     "--cb-sieve-threshold=2", "--noncontig", "--json={out}/fig5_rank.json",
     "--trace={out}/fig5_rank_trace.json"],
    ["bench/fig5_kernels", "--max-procs", "64", "--scale-mib", "2",
     "--topology=flat", "--racks=8", "--oversubscription=4"],
    ["bench/fig7_metadata_nn", "--procs", "64", "--max-files", "2048", "--fault_plan=stress"],
    ["bench/fig7_metadata_nn", "--procs", "64", "--max-files", "2048", "--fault_plan=stress",
     "--mds_replication=raft"],
    ["bench/fig7_metadata_nn", "--procs", "32", "--max-files", "512",
     "--json={out}/fig7.json", "--trace={out}/fig7_trace.json"],
    ["bench/fig7_metadata_nn", "--procs", "32", "--max-files", "512",
     "--fault_plan=failover", "--mds_replication=raft", "--json={out}/fig7_raft.json",
     "--trace={out}/fig7_raft_trace.json"],
    ["bench/fig7_metadata_nn", "--procs", "32", "--max-files", "512",
     "--mds_replication=raft", "--mds_batch=64", "--mds_batch_linger_us=1000",
     "--meta_lease_ms=50"],
    ["bench/fig7_metadata_nn", "--procs", "64", "--max-files", "2048",
     "--fault_plan=failover", "--mds_replication=raft"],
    ["bench/fig7_metadata_nn", "--procs", "64", "--min-files", "2048", "--max-files", "2048",
     "--json={out}/fig7_b0.json"],
    ["bench/fig7_metadata_nn", "--procs", "64", "--min-files", "2048", "--max-files", "2048",
     "--mds_batch=64", "--mds_batch_linger_us=1000", "--meta_lease_ms=50",
     "--json={out}/fig7_b64.json"],
    ["env", "TIO_FIG7_MAX_FILES=4096", "bench/fig7_metadata_nn", "--procs", "64",
     "--min-files", "1000000", "--max-files", "1000000", "--mds_batch=64",
     "--mds_batch_linger_us=1000", "--meta_lease_ms=50"],
    ["env", "TIO_FIG7_MAX_FILES=4096", "bench/fig7_metadata_nn", "--procs", "64",
     "--min-files", "1000000", "--max-files", "1000000", "--mds_replication=raft",
     "--mds_batch=64", "--mds_batch_linger_us=1000", "--meta_lease_ms=50"],
    ["bench/fig8_large_scale", "--max-read-procs", "512", "--max-meta-procs", "256",
     "--per-proc-mib", "1", "--json={out}/fig8.json", "--trace={out}/fig8_trace.json"],
    ["bench/fig8_large_scale", "--max-read-procs", "256", "--max-meta-procs", "128",
     "--per-proc-mib", "1", "--topology=flat", "--racks=8", "--oversubscription=4"],
    ["bench/fig8_large_scale", "--max-read-procs=256", "--max-meta-procs=256",
     "--fault_plan=stress"],
    ["bench/fig8_large_scale", "--max-read-procs=256", "--max-meta-procs=256",
     "--fault_plan=stress", "--shards=4"],
    ["bench/micro_sim", "--trace={out}/micro_sim_trace.json",
     "--benchmark_filter=BM_CoroutineHops/1000"],
    ["bench/micro_index", "--trace={out}/micro_index_trace.json",
     "--benchmark_filter=BM_IndexBuildStrided/64"],
    ["bench/ablation_cb_aggregation", "--procs", "32", "--total-mib", "8",
     "--json={out}/ablation_cb.json"],
    ["bench/ablation_topology", "--procs", "64", "--per-proc-mib", "1",
     "--json={out}/ablation_topo.json"],
    ["bench/ablation_topology", "--procs", "128", "--racks", "32", "--per-proc-mib", "1",
     "--json={out}/ablation_topo_pin.json"],
    ["examples/quickstart", "--dir", "{out}"],
    ["examples/checkpoint_restart", "--procs", "32", "--per-proc-mib", "1"],
    ["examples/metadata_federation", "--procs", "32", "--files-per-proc", "4"],
    ["examples/formatted_io", "--procs", "16", "--data-mib", "16"],
]

WORKERS = 2  # concurrent runs; libgcov merges .gcda files under a lock


def binary_of(argv):
    return argv[2] if argv[0] == "env" else argv[0]


def build_targets(build):
    if not (build / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "--preset", "coverage"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
    targets = sorted({Path(binary_of(argv)).name for argv in RUNS})
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build), "-j", jobs, "--target", *targets],
                   check=True, stdout=subprocess.DEVNULL)


def run_all(build):
    for gcda in build.rglob("*.gcda"):
        gcda.unlink()
    out = Path(tempfile.mkdtemp(prefix="cov_out.", dir=build))

    def one(argv):
        cmd = [a.format(out=out) for a in argv]
        exe = cmd.index(binary_of(argv))
        cmd[exe] = str(build / cmd[exe])
        env = dict(os.environ, LC_ALL="C")
        r = subprocess.run(cmd, cwd=build, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        return argv, r

    failed = False
    with ThreadPoolExecutor(WORKERS) as pool:
        for argv, r in pool.map(one, RUNS):
            print(f"    ran {' '.join(argv)}", flush=True)
            if r.returncode != 0:
                failed = True
                print(f"FAILED ({r.returncode}): {' '.join(argv)}\n{r.stderr[-2000:]}")
    shutil.rmtree(out)
    if failed:
        sys.exit(1)


def strip_parens(s):
    """Drops every balanced (...) group: parameter lists, lambda signatures."""
    out, depth = [], 0
    for c in s:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def params_of(demangled):
    """The outermost parameter list of the function itself (last (...) group)."""
    end = demangled.rfind(")")
    depth = 0
    for i in range(end, -1, -1):
        if demangled[i] == ")":
            depth += 1
        elif demangled[i] == "(":
            depth -= 1
            if depth == 0:
                return demangled[i + 1:end]
    return ""


def base_name(demangled):
    """Qualified name without tio::, return type, parameters or ABI tags."""
    name = re.sub(r"\s*\[clone [^\]]*\]", "", demangled)
    name = name.replace("[abi:cxx11]", "").replace("(anonymous namespace)::", "")
    name = re.sub(r"\)\s*const\b", ")", name)
    name = strip_parens(name).strip()
    # A template function's demangled name leads with its return type.
    depth, cut = 0, 0
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            cut = i + 1
    name = name[cut:]
    return name[len("tio::"):] if name.startswith("tio::") else name


def gcov_functions(build):
    """(source, start_line) -> {"names": {(base, params)}, "count": hits} for src/**/*.cc."""
    defs = {}
    src = (ROOT / "src").resolve()
    gcnos = sorted(build.rglob("*.gcno"))
    seen_sources = set()
    for gcno in gcnos:
        r = subprocess.run(["gcov", "--json-format", "--stdout", gcno.name], cwd=gcno.parent,
                           capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit(f"gcov failed on {gcno}: {r.stderr}")
        for doc in r.stdout.splitlines():
            if not doc.strip():
                continue
            data = json.loads(doc)
            for f in data["files"]:
                path = Path(f["file"])
                if not path.is_absolute():
                    path = (Path(data["current_working_directory"]) / path)
                path = path.resolve()
                if path.suffix != ".cc" or src not in path.parents or not path.is_file():
                    continue  # headers, tests, benches, or notes left by a deleted file
                rel = path.relative_to(ROOT).as_posix()
                seen_sources.add(rel)
                for fn in f["functions"]:
                    if fn["name"].startswith("_ZZ"):
                        continue  # a lambda or local class: counts with its function
                    key = (rel, fn["start_line"])
                    d = defs.setdefault(key, {"names": set(), "count": 0})
                    d["names"].add((base_name(fn["demangled_name"]),
                                    params_of(fn["demangled_name"])))
                    d["count"] += fn["execution_count"]
    return defs, seen_sources


def load_allowlist():
    entries = []
    for n, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.rsplit(maxsplit=1)
        if len(parts) != 2:
            sys.exit(f"{ALLOWLIST}:{n}: expected '<function> <Suite.Name>', got {line!r}")
        func, test = parts
        m = re.fullmatch(r"([^()]+)(?:\(([^()]*)\))?", func)
        if not m:
            sys.exit(f"{ALLOWLIST}:{n}: bad function {func!r}")
        entries.append({"line": n, "func": func, "base": m.group(1), "params": m.group(2),
                        "test": test, "hits": 0})
    return entries


def test_exists(test):
    if "." not in test:
        return False
    suite, name = test.split(".", 1)
    pat = re.compile(r"\bTEST(?:_F|_P)?\(\s*" + re.escape(suite) + r"\s*,\s*" +
                     re.escape(name) + r"\s*\)")
    for path in (ROOT / "tests").rglob("*.cc"):
        if pat.search(path.read_text()):
            return True
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--no-run", action="store_true")
    args = ap.parse_args()
    if not args.no_run:
        build_targets(BUILD)
        print(f"==> running {len(RUNS)} smoke invocations under {BUILD.name}")
        run_all(BUILD)

    defs, seen_sources = gcov_functions(BUILD)
    every_cc = {p.relative_to(ROOT).as_posix() for p in (ROOT / "src").rglob("*.cc")}
    problems = [f"unrun: {missing}: not compiled into any library (no .gcno)"
                for missing in sorted(every_cc - seen_sources)]

    allow = load_allowlist()
    for (rel, line), d in sorted(defs.items()):
        if d["count"] > 0:
            continue
        matched = False
        for e in allow:
            for base, params in d["names"]:
                if base == e["base"] and (e["params"] is None or e["params"] in params):
                    e["hits"] += 1
                    matched = True
        if not matched:
            base, params = sorted(d["names"])[0]
            problems.append(f"unrun: {rel}:{line}: {base}({params})")
    for e in allow:
        if e["hits"] == 0:
            problems.append(f"stale allowlist entry (run or gone): "
                            f"{ALLOWLIST.name}:{e['line']}: {e['func']}")
        if not test_exists(e["test"]):
            problems.append(f"allowlist test not found under tests/: "
                            f"{ALLOWLIST.name}:{e['line']}: {e['test']}")

    ran = sum(1 for d in defs.values() if d["count"] > 0)
    print(f"==> {ran} of {len(defs)} src/*.cc function definitions run; "
          f"{sum(e['hits'] for e in allow)} allowlisted")
    for p in problems:
        print(p)
    if problems:
        print("coverage gate failed: run the function from a bench or example, delete it, or "
              "allowlist it with the test that covers it")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
