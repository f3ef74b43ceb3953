#!/usr/bin/env bash
# Builds the benchmark and the two binaries it drives into .bench_build/ at the
# root of the checkout, then runs the benchmark with the given flags. Nothing
# is read or written outside the checkout: the go caches live there too.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off

# Provenance for the result records. The go tool's own VCS stamping is off: it
# fails the build when a directory above an exported checkout is someone
# else's repository.
commit=unknown dirty=false
if [ -e "$root/.git" ] && command -v git >/dev/null; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then dirty=true; fi
fi

go build -C "$root" -buildvcs=false -o "$build/bin/" ./cmd/swserver ./cmd/swrank
go build -C "$root/bench" -buildvcs=false -ldflags "-X main.buildCommit=$commit -X main.buildDirty=$dirty" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" -bin "$build/bin" -work "$build/tmp" "$@"
