#!/bin/sh
# Tier-1 verification, fully offline (the workspace has no external
# dependencies). Run from the repository root.
set -eu

echo "== rustfmt =="
cargo fmt --check

# Every exported line is declared once, on the record spine: no format!
# object template and no substring field scanner may grow back beside it.
echo "== record spine (no hand-rolled JSON outside crates/sim/src/record.rs) =="
if grep -rnF -e '{{\"' -e 'span_field_' crates/*/src | grep -v '^crates/sim/src/record\.rs:'; then
    echo "ci.sh: hand-rolled JSON object template or span_field_ scanner" >&2
    exit 1
fi

# Each rule of the Vice call path is written once (DESIGN.md §8): the
# server's arms go through `authorize` and `?`, the transport and the
# lifecycle events observe through observe.rs, Venus derives replica
# preference from the request.
echo "== one Vice call path (no hand-copied gate, tracing branch or replica flag) =="
if grep -n 'return ViceReply::Error' crates/core/src/server/mod.rs \
    || grep -n 'self\.tracing' crates/core/src/system/transport.rs crates/core/src/system/lifecycle.rs \
    || grep -n 'prefer_replica' crates/core/src/venus/mod.rs; then
    echo "ci.sh: a copy of a call-path rule grew back (see the lines above)" >&2
    exit 1
fi
# File contents have one owner type (DESIGN.md §9): Vice's storage layers
# take and hand back `Payload`, never an owned `Vec<u8>` of file bytes, and
# copy none on the way (tests, after the first #[cfg(test)], may).
echo "== one owner for file bytes (no copy, Vec<u8> contents or re-hash in Vice storage) =="
nontest() {
    awk -v f="$1" '/#\[cfg\(test\)\]/{exit} {print f ":" NR ":" $0}' "$1"
}
for f in crates/core/src/server/mod.rs crates/core/src/volume/mod.rs \
    crates/core/src/disk/mod.rs crates/core/src/disk/journal.rs crates/unixfs/src/fs.rs; do
    if nontest "$f" | grep -E 'to_vec\(\)|note_copy\(|data: Vec<u8>'; then
        echo "ci.sh: a file-content copy or Vec<u8> parameter grew back (see the lines above)" >&2
        exit 1
    fi
done
# A buffer is hashed once in its life (DESIGN.md §9): whoever holds a
# `Payload` asks it (`.digest()`, memoised on the shared allocation). The
# free function is for raw slices only — its definition, and the journal's
# frame checksums.
if find crates/*/src -name '*.rs' ! -name tests.rs ! -path crates/unixfs/src/payload.rs \
    ! -path crates/core/src/disk/journal.rs | sort | while read -r f; do nontest "$f"; done \
    | grep -F 'payload_digest(' \
    || nontest crates/core/src/disk/journal.rs | grep 'payload_digest(.*as_slice()'; then
    echo "ci.sh: payload_digest( over bytes a Payload holds — ask it: Payload::digest (see the lines above)" >&2
    exit 1
fi
# The cipher has one loop (DESIGN.md §9): everything in the crate goes
# through the two-lane kernel and works in place. No per-block interface,
# and no copy but the borrowed openers' one `sealed.to_vec()`.
echo "== one cipher kernel (no serial block loop or extra copy in cryptbox) =="
for f in crates/cryptbox/src/*.rs; do
    if nontest "$f" | grep -E '(en|de)crypt_(bytes8|block)\(' \
        || nontest "$f" | grep -F 'to_vec()' | awk 'NR > 1 || !/sealed\.to_vec\(\)/' | grep .; then
        echo "ci.sh: a serial cipher path or a message copy grew back (see the lines above)" >&2
        exit 1
    fi
done
# The `(time, workstation)` order is computed in one loop and admitted by
# one test (DESIGN.md §13): `drain` steps every op, sequential or batched,
# and `Pool::pick` is one pass with no allocation and no sort.
echo "== one scheduling loop (one .step( call site, no sort or collect in Pool::pick) =="
sched=crates/core/src/system/parallel.rs
if [ "$(nontest "$sched" | grep -cF '.step(')" -ne 1 ]; then
    nontest "$sched" | grep -F '.step('
    echo "ci.sh: $sched must step drivers in exactly one place (see the lines above)" >&2
    exit 1
fi
if nontest "$sched" | awk '/fn pick\(/{p=1} p&&/:    }$/{exit} p' | grep -E 'sort_by_key|\.collect\(\)'; then
    echo "ci.sh: Pool::pick sorts or allocates again (see the lines above)" >&2
    exit 1
fi
# Each workstation op is defined once, on `WsOps` (DESIGN.md §13 "One
# door"): callers write `sys.ops().fetch(..)`, and no forwarding twin may
# grow back on `ItcSystem` in any other file of `core::system`.
echo "== one front door (workstation ops defined only on WsOps) =="
ws_ops='open_read|open_write|read|write|close|fetch|store|stat|readdir|mkdir|mkdir_p|unlink|rmdir'
ws_ops="$ws_ops|rename|symlink|get_acl|set_acl|lock|unlock|flush_all|flush_workstation|advance_ws"
ws_ops="$ws_ops|dirty_count|reconnect_backoff"
# system.rs declares `#[cfg(test)] mod tests;` near its top: skip that
# pair instead of stopping there, so its whole body is checked.
for f in crates/core/src/system.rs crates/core/src/system/*.rs; do
    case "$f" in "$sched" | */tests.rs) continue ;; esac
    if awk -v f="$f" '/#\[cfg\(test\)\]/{t=1; next} t&&/^mod [a-z_]+;$/{t=0; next} t{exit}
        {print f ":" NR ":" $0}' "$f" | grep -E "pub fn ($ws_ops)[<(]"; then
        echo "ci.sh: a workstation op is defined outside WsOps (see the lines above) — call it through sys.ops()" >&2
        exit 1
    fi
done
# A path is walked once, borrowed (DESIGN.md §9 "Path resolution"): the
# resolver keeps a cursor into the path it was handed, not a work-list of
# owned components; `acl_for` resolves, it does not stat and then resolve;
# and the break message nothing sends stays deleted.
echo "== one path walker (no owned work-list, second walk or dead break codec) =="
if nontest crates/unixfs/src/fs.rs | grep -E 'Vec<String>|dirname_basename\(' \
    || grep -n 'protecting_dir' crates/core/src/volume/mod.rs \
    || grep -rnE 'encode_break|CallbackBreak' crates/core/src; then
    echo "ci.sh: a second path walk or the dead break codec grew back (see the lines above)" >&2
    exit 1
fi
# A warm call allocates only what it hands on (DESIGN.md §9 "What a call
# allocates"): the caller's identity is read from the binding, rights are
# one borrowed evaluation over the access list, paths are slices of the
# path the call was given, and a head is laid out once to measure and once
# into a buffer of that size.
echo "== a warm call allocates by construction (no identity copy, CPS, owned path or growing head) =="
if nontest crates/core/src/system/transport.rs | grep -F 'server_user().to_string()' \
    || nontest crates/core/src/server/mod.rs | grep -E 'fn cps_of|dirname_basename\(' \
    || nontest crates/core/src/volume/mod.rs | grep -E 'fn internal_path.*Option<String>' \
    || nontest crates/core/src/venus/mod.rs | grep -F 'Vec<&str>' \
    || nontest crates/core/src/venus/namespace.rs | grep -F 'Vec<&str>' \
    || nontest crates/core/src/proto/codec.rs | grep -F 'WireWriter::new()' \
    || nontest crates/core/src/disk/journal.rs | grep -F '(WireWriter::new()).finish().len()'; then
    echo "ci.sh: a per-call allocation that carries no output grew back (see the lines above)" >&2
    exit 1
fi
# The trajectory: lines before the first #[cfg(test)] of every crates/*/src
# file (tests.rs excluded), in total and for the call path's five files.
find crates/*/src -name '*.rs' ! -name tests.rs | sort | while read -r f; do
    echo "$(awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f") $f"
done | awk '{total += $1}
    $2 ~ /core\/src\/(server\/mod|venus\/mod|system\/(transport|lifecycle|observe))\.rs$/ {print}
    END {print total " non-test lines under crates/*/src"}'

echo "== clippy (offline, deny warnings) =="
cargo clippy --workspace --offline -- -D warnings

echo "== rustdoc (offline, deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== build (offline) =="
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --workspace --offline
# The kernel's oracle again, as the optimiser compiles it.
cargo test -q -p itc-cryptbox --release --offline
# The executor's oracles again: the interleavings worth catching only occur
# at optimised speed.
cargo test --release --offline -q --test parallel

echo "== paper tables (full scale, byte-identical to results/full_tables.txt) =="
cargo run -q -p itc-bench --release --offline --bin tables -- --full all | diff - results/full_tables.txt

# The examples drive the public API end to end (surrogate PCs, mobility,
# ACL edits through sys.ops(), heterogeneous /bin); no test runs them.
echo "== examples (each must exit 0) =="
for ex in examples/*.rs; do
    cargo run -q --release --offline --example "$(basename "$ex" .rs)" > /dev/null
done

# One test thread: the harness's allocator unit test reads process-wide
# counters that its sibling tests move when they run beside it.
echo "== benchmark (build, unit tests, smoke run against blessed fingerprints) =="
RUST_TEST_THREADS=1 benchmark/check.sh

echo "ci.sh: all green"
