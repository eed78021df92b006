#!/usr/bin/env bash
# Fails when the linalg library contains a fused multiply-add instruction.
#
# Every SIMD kernel in src/linalg/kernels.cpp promises results byte-equal
# to its scalar oracle, which rounds after each multiply and again after
# each add. A fused multiply-add rounds once, so a single vfmadd, vfmsub,
# vfnmadd or vfnmsub in the library breaks that promise. The compiler emits
# one as soon as a kernel's target enables an FMA encoding and a mul feeds
# an add: GCC turns a plain _mm512_add_pd(_mm512_mul_pd(...)) under
# target("avx512f") into vfmadd231pd. The disassembly is the check, because
# no test input is guaranteed to land where one rounding and two differ.
#
# Usage: tools/check_no_fma.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
lib="$build_dir/src/linalg/libvmap_linalg.a"
if [[ ! -f "$lib" ]]; then
  echo "check_no_fma: $lib not found; build the project first" >&2
  exit 2
fi

# Each hit is printed under the function that holds it.
if ! objdump -d -C --no-show-raw-insn "$lib" | awk '
    /^[0-9a-f]+ <.*>:$/ { fn = $0 }
    /[[:space:]]vfn?m(add|sub)/ {
      if (fn != shown) { print fn; shown = fn }
      print "  " $0
      hits++
    }
    END { exit hits > 0 }' >&2; then
  echo "check_no_fma: fused multiply-add instructions in $lib (above)" >&2
  exit 1
fi
echo "check_no_fma: no fused multiply-add instruction in $lib"
