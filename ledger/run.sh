#!/usr/bin/env bash
# The command of BENCHMARK.json: build `repro` and `ledger` from source
# into one target directory (so the ledger finds the program next to its
# own executable), then hand the driver's arguments to one ledger run.
#
#   bash ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "ledger/run.sh: $root is not a checkout of the repository" >&2
    exit 1
fi
# The vendored-sources override lives in the root's .cargo/config.toml,
# which cargo finds from the working directory.
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet -p sbgp-experiments >&2
cargo build --release --quiet --manifest-path ledger/Cargo.toml >&2

# Scratch directories stay inside the checkout (and inside what
# .gitignore already covers): the ledger uses std::env::temp_dir().
export TMPDIR="$target/ledger-tmp"
mkdir -p "$TMPDIR"
exec "$target/release/ledger" --expected "$here/expected" "$@"
