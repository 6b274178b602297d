#!/usr/bin/env bash
# Dead-code guard: fails on any text symbol of libgrepair_lib.a that no
# non-test executable under the given build directories keeps and that
# tools/dead_code_allowlist.txt does not name with a reason. The first
# directory holds the library. Build -O0 with -ffunction-sections and
# -Wl,--gc-sections (docs/STATIC_ANALYSIS.md), then run
#   tools/check_dead_code.sh BUILD_DIR [MORE_BUILD_DIRS...]
set -euo pipefail
lib=$1/libgrepair_lib.a
mapfile -t exes < <(find "$@" -type f -perm -u+x \
  ! -path '*/CMakeFiles/*' ! -path '*/tests/*')
[ -f "$lib" ] && [ ${#exes[@]} -gt 0 ] || { echo "no $lib or executables"; exit 2; }
text() { nm -C --defined-only "$@" | awk '$2 == "T" { sub(/^[^ ]+ T /, ""); print }' | sort -u; }
dead=$(comm -23 <(text "$lib") <(text "${exes[@]}") | awk -F' [|] ' '
  NR == FNR { if ($0 !~ /^#/ && $2 != "") allowed[$1]; next }
  { name = $0; sub(/(\[abi:[^]]*\])?\(.*/, "", name); if (!(name in allowed)) print }
' "$(dirname "$0")/dead_code_allowlist.txt" -)
[ -z "$dead" ] || { printf 'library code no product links (delete it, or allowlist it with a reason):\n%s\n' "$dead"; exit 1; }
echo "dead-code guard: ${#exes[@]} executables keep every library text symbol"
