#!/usr/bin/env bash
# Which src/ functions does only the test suite reach?
#
#   scripts/test_only_survey.sh [BUILD_DIR]
#
# Builds the repository with gcc --coverage (Debug, -O1) in BUILD_DIR
# (default: ${TMPDIR:-/tmp}/haac-test-only-survey; it must lie outside
# the checkout, and nothing is written into the source tree), then
# counts function hits twice:
#
#   1. the product set: CI's tool and bench commands (every bench at
#      --only=Hamm, the --json trajectory benches, crypto_throughput),
#      the examples, haac_server against remote_millionaires clients,
#      and the haacbench smoke (haacbench built with the same flags);
#   2. ctest, from zeroed counters.
#
# It prints every src/ function that ctest runs and the product set
# never does, as "lines  file:first-last  function", with totals, and
# keeps both hit lists under BUILD_DIR/survey/. A function on the list
# is a deletion candidate to confirm by grep: the product set is a
# sample, not every caller.
#
# Needs gcc's gcov (JSON output, gcc >= 9), cmake and python3. JOBS
# sets the build and ctest parallelism (default 2). A clean run takes
# about ten minutes on four cores with JOBS=3.
set -euo pipefail

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd -P)"
BUILD="${1:-${TMPDIR:-/tmp}/haac-test-only-survey}"
mkdir -p "$BUILD"
BUILD="$(cd "$BUILD" && pwd -P)"
case "$BUILD/" in
"$SRC"/*)
    echo "test_only_survey: BUILD_DIR must be outside $SRC" >&2
    exit 2
    ;;
esac
JOBS="${JOBS:-2}"
OUT="$BUILD/survey"
RUN="$OUT/run"
mkdir -p "$RUN"

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O1 --coverage"
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)
cmake -S "$SRC" -B "$BUILD" "${flags[@]}" > "$OUT/configure.log"
cmake --build "$BUILD" -j "$JOBS" > "$OUT/build.log"
# haacbench/run.py configures only an empty build directory, so the
# coverage flags set here stay.
HB="$BUILD/haacbench-build"
cmake -S "$SRC/haacbench" -B "$HB/haacbench" "${flags[@]}" \
    >> "$OUT/configure.log"
cmake --build "$HB/haacbench" -j "$JOBS" --target haacbench \
    >> "$OUT/build.log"

zero_counters() { find "$BUILD" -name '*.gcda' -delete; }

# Every function gcov saw, with its hit count, as
# "count<TAB>file<TAB>first<TAB>last<TAB>name" for src/ files.
collect() {
    python3 - "$BUILD" "$SRC/src/" > "$1" <<'EOF'
import json, os, subprocess, sys
from collections import defaultdict

build, src = sys.argv[1], sys.argv[2]
hits = defaultdict(int)
span = {}
for root, _, files in os.walk(build):
    for f in files:
        if not f.endswith(".gcda"):
            continue
        out = subprocess.run(["gcov", "--json-format", "--stdout",
                              "-o", root, os.path.join(root, f)],
                             capture_output=True, cwd=root)
        for doc in out.stdout.decode().splitlines():
            if not doc.startswith("{"):
                continue
            unit = json.loads(doc)
            for entry in unit["files"]:
                path = os.path.realpath(os.path.join(
                    unit["current_working_directory"], entry["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, os.path.dirname(src.rstrip("/")))
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    hits[key] += fn["execution_count"]
                    span[key] = fn["end_line"]
for (rel, first, name), n in sorted(hits.items()):
    print(f"{n}\t{rel}\t{first}\t{span[(rel, first, name)]}\t{name}")
EOF
}

product_set() {
    cd "$RUN"
    local b="$BUILD"
    "$b/haac_dbg" --help > /dev/null
    "$b/haac_dbg" --workload Hamm --batch -x 'step 200' -x queues \
        -x disasm -x stats -x run --functional > /dev/null
    "$b/haac_dbg" "$SRC/tests/asm/adder4.haac" --batch --functional \
        --ges 2 --sww-wires 256 > /dev/null
    "$b/haac_lint" --Werror "$SRC"/tests/asm/*.haac > /dev/null
    "$b/haac_lint" --Werror --all-workloads > /dev/null
    "$b/haac_lint" --streams "$SRC/tests/asm/oorw_pressure.haac" > /dev/null
    "$b/haac_lint" --shards 2 "$SRC/tests/asm/oorw_pressure.haac" \
        > /dev/null
    "$b/haac_lint" netlist --all-workloads --chains --Werror \
        --json netlint.json > /dev/null
    for bench in fig6_compiler_opts fig7_ordering_sweep fig8_ge_scaling \
                 fig9_energy fig10_plaintext table2_characteristics \
                 table3_wire_traffic table4_area_power table5_prior_work \
                 ablation_adder_depth ablation_forwarding \
                 ablation_garbler_evaluator ablation_multicore \
                 ablation_segment_size ablation_sww_banks \
                 net_wire_traffic; do
        "$b/$bench" --only=Hamm --csv > /dev/null
    done
    if [ -x "$b/crypto_throughput" ]; then
        "$b/crypto_throughput" --benchmark_min_time=0.01 \
            --benchmark_filter='Aes|Garble' > /dev/null
    fi
    # The trajectory benches; their timing floors are not the point.
    "$b/ablation_multicore" --measured --json > /dev/null
    "$b/net_wire_traffic" --json > /dev/null
    "$b/server_qps" --clients=8 --queries=8 --json > /dev/null
    "$b/chain_link" --json > /dev/null
    "$b/fig8_ge_scaling" --json > /dev/null
    # Examples.
    "$b/quickstart" > /dev/null
    "$b/quickstart" 1000000 42 > /dev/null
    "$b/remote_millionaires" --loopback > /dev/null
    "$b/remote_millionaires" --loopback --segment 1 > /dev/null
    "$b/private_auction" > /dev/null
    "$b/private_inference" > /dev/null
    "$b/compiler_explorer" > /dev/null
    mkdir -p netlists
    "$b/export_netlists" netlists > /dev/null
    # The two-process demo: one evaluating and one garbling client
    # against a haac_server on a loopback port.
    rm -f port
    "$b/haac_server" --bind 127.0.0.1 --port 0 --port-file port \
        --sessions 2 --quiet 2> /dev/null &
    local server=$!
    for _ in $(seq 100); do [ -s port ] && break; sleep 0.1; done
    local port
    port="$(cat port)"
    "$b/remote_millionaires" --role evaluator \
        --connect "127.0.0.1:$port" --json > /dev/null
    "$b/remote_millionaires" --role garbler \
        --connect "127.0.0.1:$port" --json > /dev/null
    wait "$server"
    # The repo benchmark: every workload, traced and untraced.
    (cd "$SRC" && CARGO_TARGET_DIR="$HB" python3 haacbench/smoke_test.py) \
        > /dev/null
    cd - > /dev/null
}

zero_counters
echo "test_only_survey: running the product set" >&2
product_set
collect "$OUT/product.tsv"

zero_counters
echo "test_only_survey: running ctest" >&2
(cd "$BUILD" && ctest -j "$JOBS" > "$OUT/ctest.log")
collect "$OUT/ctest.tsv"

python3 - "$OUT/product.tsv" "$OUT/ctest.tsv" <<'EOF'
import sys

def load(path):
    rows = {}
    for line in open(path):
        n, rel, first, last, name = line.rstrip("\n").split("\t")
        rows[(rel, int(first), name)] = (int(n), int(last))
    return rows

product, ctest = load(sys.argv[1]), load(sys.argv[2])
only = sorted(k for k, (n, _) in ctest.items()
              if n > 0 and product.get(k, (0, 0))[0] == 0)
total = 0
for rel, first, name in only:
    last = ctest[(rel, first, name)][1]
    total += last - first + 1
    print(f"{last - first + 1:5d}  {rel}:{first}-{last}  {name}")
hit = sum(1 for n, _ in product.values() if n > 0)
print(f"\n{len(only)} src/ functions ({total} lines of function span) "
      f"run under ctest only; the product set runs {hit} of "
      f"{len(product)} src/ functions it saw")
EOF
