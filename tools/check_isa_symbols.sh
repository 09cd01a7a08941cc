#!/bin/sh
# Fails when an ISA kernel object defines a weak symbol outside its own
# kernel namespace.
#
#   tools/check_isa_symbols.sh <build-dir>
#
# The AVX2/AVX-512 units in src/la (gemm_avx*.cc, exact_kernel_avx*.cc) are
# compiled with -mavx2/-mavx512f. A weak (inline or template) symbol they
# define outside `subrec::la::internal::<family>_<isa>` is one the linker may
# also hand to generic callers, which would then run AVX code on a CPU
# without it. Optimized builds usually inline such helpers, so run this on
# an unoptimized (Debug) build tree, where they are emitted out of line.
set -eu
build_dir=${1:?usage: tools/check_isa_symbols.sh <build-dir>}
objects=$(find "$build_dir" -path '*/la/*' \
  \( -name 'gemm_avx*.o' -o -name 'exact_kernel_avx*.o' \) | sort)
if [ -z "$objects" ]; then
  echo "no ISA kernel objects under $build_dir" >&2
  exit 2
fi
status=0
for obj in $objects; do
  shared=$(nm -C --defined-only "$obj" |
    awk '$2 == "W" || $2 == "V" || $2 == "u"' |
    grep -Ev 'subrec::la::internal::(exact|fused)_avx(2|512)::' || true)
  if [ -n "$shared" ]; then
    echo "$obj defines weak symbols shared with generic code:"
    echo "$shared"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "ISA kernel objects: no shared weak symbols"
exit "$status"
