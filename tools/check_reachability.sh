#!/usr/bin/env bash
# Lists the library functions that no binary links, and those that only
# tests link.
#
#   tools/check_reachability.sh [build-dir]     # default: build-reach/
#
# Builds every target (tests, benches, examples, tools) and the perfbench
# harness (configured from perfbench/ into <build-dir>/perfbench) at -O0
# with -ffunction-sections -fdata-sections, so each function and each of
# its jump tables gets its own section, and links every binary with
# --gc-sections --print-gc-sections -t -t. A library function is an
# out-of-line function (not an inline or template instance) defined in one
# of the build's static libraries. A binary keeps it when the linker
# loaded its archive member and did not collect its section.
#
# Exit status 1 when some library function is kept by no binary. The
# functions that only test binaries keep are listed but do not fail the
# check; with --summary FILE that list is also appended to FILE as
# markdown (CI passes $GITHUB_STEP_SUMMARY). About 80 s on 4 vCPUs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
summary=""
dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --summary) summary=$2; shift 2 ;;
    -h|--help) sed -n '2,19p' "$0"; exit 0 ;;
    *) dir=$1; shift ;;
  esac
done
dir=${dir:-$root/build-reach}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

# Each link writes its stdout (the -t -t member trace) and stderr (the
# collected sections) next to the binary, as <binary>.linklog.
launcher="$dir/link-log.sh"
cat > "$launcher" <<'EOF'
#!/bin/sh
out=; prev=
for a in "$@"; do [ "$prev" = "-o" ] && out=$a; prev=$a; done
"$@" > "$out.linklog" 2>&1 || { cat "$out.linklog" >&2; exit 1; }
EOF
chmod +x "$launcher"

configure() {  # <source> <build>
  local -a gen=()
  command -v ninja > /dev/null && gen=(-G Ninja)
  cmake -S "$1" -B "$2" "${gen[@]}" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections,--print-gc-sections,-t,-t" \
    -DCMAKE_CXX_LINKER_LAUNCHER="$launcher" > /dev/null
}
jobs=$(nproc 2> /dev/null || echo 2)
configure "$root" "$dir/main"
cmake --build "$dir/main" -j"$jobs" > /dev/null
configure "$root/perfbench" "$dir/perfbench"
cmake --build "$dir/perfbench" -j"$jobs" > /dev/null

python3 - "$dir" "$summary" <<'EOF'
import os, re, subprocess, sys

build, summary = sys.argv[1], sys.argv[2]

def archives():
    for top, _, files in os.walk(build):
        for f in files:
            if f.endswith(".a"):
                yield os.path.join(top, f)

# Out-of-line functions: (member, section) for every global or local
# (not weak) function symbol that owns its .text.<symbol> section and whose
# own qualified name is in namespace vmap: the mangled name opens with a
# nested name (N, after a Z per enclosing function scope and any cv- or
# ref-qualifiers) whose first component is vmap. That takes a vmap
# function, and a lambda's call operator inside one, but not a system
# header's static helper, nor a library template instantiated for a vmap
# type, such as the std::function handler of a vmap lambda.
in_vmap = re.compile(r"_ZZ*N[rVK]*[RO]?4vmap")
functions = set()
for archive in archives():
    member = None
    symbols = subprocess.run(["objdump", "-t", archive], check=True,
                             capture_output=True, text=True).stdout
    for line in symbols.splitlines():
        m = re.match(r"^(\S+):\s+file format", line)
        if m:
            member = m.group(1)
            continue
        flags, parts = line[17:24], line.split()
        if len(parts) < 5 or flags[6:] != "F" or flags[1] == "w":
            continue
        section, symbol = parts[-3], parts[-1]
        if section == ".text." + symbol and in_vmap.match(symbol):
            functions.add((member, section))

def demangle(fns):
    fns = sorted(fns)
    mangled = "\n".join(section[len(".text."):] for _, section in fns)
    out = subprocess.run(["c++filt"], input=mangled, check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(fns, out.splitlines()))

name_of = demangle(functions)

loaded_re = re.compile(r"^\((.+\.a)\)(.+)$")
removed_re = re.compile(
    r"removing unused section '([^']+)' in file '(.+\.a)\((.+)\)'")
kept_by_test, kept_by_other = set(), set()
for top, _, files in os.walk(build):
    for f in files:
        if not f.endswith(".linklog"):
            continue
        loaded, removed = set(), set()
        with open(os.path.join(top, f)) as log:
            for line in log:
                m = loaded_re.match(line.strip())
                if m:
                    loaded.add(m.group(2))
                m = removed_re.search(line)
                if m:
                    removed.add((m.group(3), m.group(1)))
        kept = {fn for fn in functions if fn[0] in loaded} - removed
        where = os.path.relpath(top, build).split(os.sep)
        is_test = where[:2] == ["main", "tests"]
        (kept_by_test if is_test else kept_by_other).update(kept)

def names(fns):
    return sorted(f"{name_of[fn]}  [{fn[0]}]" for fn in fns)

dead = functions - kept_by_test - kept_by_other
test_only = kept_by_test - kept_by_other
print(f"library functions: {len(functions)}")
print(f"linked by no binary: {len(dead)}")
for n in names(dead):
    print("  " + n)
print(f"linked only by tests: {len(test_only)}")
for n in names(test_only):
    print("  " + n)
if summary:
    with open(summary, "a") as s:
        s.write(f"### Reachability\n\n{len(functions)} library functions; "
                f"{len(dead)} linked by no binary; {len(test_only)} linked "
                "only by tests.\n\n")
        for n in names(dead):
            s.write(f"- unlinked: `{n}`\n")
        for n in names(test_only):
            s.write(f"- test-only: `{n}`\n")
sys.exit(1 if dead else 0)
EOF
