#!/usr/bin/env bash
# The benchmark package's own gate: build, unit tests, then the smoke run
# (four workloads at CI size with the harness's self-checks). The repo's
# ci.sh does not call this yet; run it from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --smoke | grep -E '^(smoke|# .*fingerprint)'
