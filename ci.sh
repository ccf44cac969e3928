#!/bin/sh
# Tier-1 verification, fully offline (the workspace has no external
# dependencies). Run from the repository root.
set -eu

# The non-test lines of a Rust file, as `FILE:LINE:TEXT`: every line before
# its first `#[cfg(test)]`, except that a `#[cfg(test)]` directly followed
# by `mod x;` (an out-of-line test module, as system.rs declares near its
# top) is skipped instead of ending the scan. Every gate below and the
# line count read files through this one helper.
nontest() {
    awk -v f="$1" 't && /^[ \t]*mod [a-z_]+;$/ {t=0; next} t {exit}
        /#\[cfg\(test\)\]/ {t=1; next} {print f ":" NR ":" $0}' "$1"
}

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
# copy none on the way (tests may).
echo "== one owner for file bytes (no copy, Vec<u8> contents or re-hash in Vice storage) =="
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
# The cipher has one kernel (DESIGN.md §9): every block of the crate goes
# through the lane-parallel XTEA loop, in counter mode and PMAC, with no
# chain and no decrypt direction beside it. Its two half-cycles are the
# only `mix(` calls; the only `unsafe` under crates/*/src is the call of
# its AVX2 instance. No per-block interface, and no copy but the borrowed
# openers' one `sealed.to_vec()`.
echo "== one cipher kernel (no chain, decrypt direction, second loop, copy or stray unsafe) =="
for f in crates/cryptbox/src/*.rs; do
    if nontest "$f" | grep -E '(en|de)crypt_(bytes8|block)\(|wrapping_sub|encrypt_decrypt|\^ prev' \
        || nontest "$f" | grep -F 'to_vec()' | awk 'NR > 1 || !/sealed\.to_vec\(\)/' | grep .; then
        echo "ci.sh: a serial cipher path, a decrypt direction or a message copy grew back (see the lines above)" >&2
        exit 1
    fi
done
mix_calls() {
    for f in crates/cryptbox/src/*.rs; do nontest "$f"; done \
        | grep 'mix(' | grep -v -e 'fn mix(' -e '^[^:]*:[0-9]*:[[:space:]]*//'
}
if [ "$(mix_calls | wc -l)" -ne 2 ]; then
    mix_calls >&2
    echo "ci.sh: the XTEA round has a second source (the kernel's two half-cycles are the only mix( calls)" >&2
    exit 1
fi
if find crates/*/src -name '*.rs' | sort | xargs grep -Hnw unsafe \
    | grep -v '^crates/cryptbox/src/xtea\.rs:[0-9]*: *return unsafe { avx2(k, v0, v1) };$'; then
    echo "ci.sh: unsafe beyond the kernel's one AVX2 dispatch (see the lines above)" >&2
    exit 1
fi
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
for f in crates/core/src/system.rs crates/core/src/system/*.rs; do
    case "$f" in "$sched" | */tests.rs) continue ;; esac
    if nontest "$f" | grep -E "pub fn ($ws_ops)[<(]"; then
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
# A binary message is declared once (DESIGN.md §17): each kind is a row of
# a `wire_table!` that generates both its layout and its decoder, so no
# hand-kept tag table, status/error codec pair or field-by-field read may
# grow back beside the rows.
echo "== one declaration per message (no tag table, hand codec or hand field read) =="
for f in crates/core/src/proto/codec.rs crates/core/src/disk/journal.rs crates/core/src/protect/acl.rs; do
    if nontest "$f" | grep -E 'fn (en|de)code_(status|error)|const (RQ|RP|ER)_|\.(u8|u32|u64|string|boolean|bytes)\(\)'; then
        echo "ci.sh: a hand-written codec grew back beside its table row (see the lines above)" >&2
        exit 1
    fi
done
# What a mutation makes stale is declared once, beside the request kind
# (`ViceRequest::changes`, DESIGN.md §7): Vice breaks callbacks at one site
# and Venus drops its own stale copies at one site, so no per-op break or
# per-op cache consequence may grow back.
echo "== one invalidation rule (one callback-break site in Vice, no per-op consequence in Venus) =="
srv=crates/core/src/server/mod.rs
if nontest "$srv" | grep -F 'fn mutate_entry' \
    || nontest crates/core/src/venus/mod.rs | grep -E 'dirname_basename\(|cache\.invalidate\(&parent'; then
    echo "ci.sh: a per-op invalidation grew back beside ViceRequest::changes (see the lines above)" >&2
    exit 1
fi
if [ "$(nontest "$srv" | grep -cF 'self.break_callbacks(')" -gt 1 ]; then
    nontest "$srv" | grep -F 'self.break_callbacks('
    echo "ci.sh: $srv must break callbacks in exactly one place (see the lines above)" >&2
    exit 1
fi
# Each observability decision has one owner (DESIGN.md §15): the health
# rules are one `obs::rule` match, not a stored table looked up again, and
# "is tracing on" is `EventCore::tracing` alone — the span collector keeps
# no on/off state, and calls mint only through observe.rs's hook.
echo "== one rule table, one tracing switch (no stored rules, collector switch or stray mint) =="
if nontest crates/core/src/obs.rs | grep -E 'fn threshold_of|fn default_rules|\brules:' \
    || nontest crates/sim/src/trace.rs | grep -F 'enabled' \
    || find crates/*/src -name '*.rs' ! -path crates/core/src/system/observe.rs | sort \
        | while read -r f; do nontest "$f"; done | grep -F '.trace.mint()'; then
    echo "ci.sh: a second rule table or tracing switch grew back (see the lines above)" >&2
    exit 1
fi
# The operator has one CLI and the tracer one system-wide read (DESIGN.md
# §11): `bench trace` is a subcommand, not a second bin; no accessor hands
# out one cluster's collector and no scrub off-switch grows back; and the
# RPC crate keeps no synchronous twin of the transport's event chain.
echo "== one operator CLI, one trace view (no trace bin, cluster-0 collector or synchronous round trip) =="
if [ -e crates/bench/src/bin/trace.rs ]; then
    echo "ci.sh: crates/bench/src/bin/trace.rs is back — the tracer is \`bench trace\`" >&2
    exit 1
fi
if find crates/*/src -name '*.rs' ! -name tests.rs | sort | while read -r f; do nontest "$f"; done \
        | grep -E 'trace_collector|fn disable_scrub' \
    || find crates/rpc/src -name '*.rs' | sort | while read -r f; do nontest "$f"; done \
        | grep -F 'fn round_trip'; then
    echo "ci.sh: a second way to read the tracer or to run a call grew back (see the lines above)" >&2
    exit 1
fi
# Nothing a run shares is mutable (DESIGN.md §13): the protection database
# is plain data every call reads by reference, the time high-water is one
# field per cluster, and a server's counters and resources are plain fields
# behind its `&mut`. No lock, atomic or interior mutability may grow back
# around them; the parallel executor's pool is the one shared mutable thing.
echo "== nothing a run shares is mutable (no lock, atomic or RefCell; no protection server) =="
shared() { find "$@" -name '*.rs' ! -name tests.rs | sort | while read -r f; do nontest "$f"; done; }
if [ -e crates/core/src/protect/pserver.rs ]; then
    echo "ci.sh: crates/core/src/protect/pserver.rs is back — operators write ProtectionDomain directly" >&2
    exit 1
fi
if shared crates/core/src crates/sim/src crates/rpc/src | grep -E 'RwLock|Atomic' \
    || shared crates/core/src crates/sim/src crates/rpc/src | grep -F 'RefCell' \
    || shared crates/core/src | grep -v '^crates/core/src/system/parallel\.rs:' | grep -E 'Mutex|Condvar'; then
    echo "ci.sh: shared mutable state grew back (see the lines above)" >&2
    exit 1
fi
# A run borrows its shards and one read-only campus (DESIGN.md §13): the
# location database is one field of `Campus`, never a server's own, and a
# view holds its shards and one `&Campus` — no copied setting, no home map
# (a home server is the server of the workstation's cluster), no monitor.
echo "== shards and one campus (one location database; views copy no campus field) =="
body() { # the lines of struct $2's body in file $1
    nontest "$1" | cut -d: -f3- \
        | awk -v s="struct $2" 'index($0, s "<") || index($0, s " {") {p=1; next} p && /^}/ {exit} p'
}
fields() { # the field names of struct $2 in file $1, space-separated
    body "$1" "$2" | sed -nE 's/^ *(pub(\([a-z]+\))? )?([a-z_]+):.*/\3/p' | tr '\n' ' '
}
if nontest crates/core/src/server/mod.rs | grep -E '\b[a-z_]+: LocationDb,|LocationDb::new\(\)|fn location(_mut)?\('; then
    echo "ci.sh: Server holds a location database again — it is Campus::location, lent to each call" >&2
    exit 1
fi
if [ "$(shared crates/core/src | grep -cE '\b[a-z_]+: LocationDb,')" -ne 1 ] \
    || [ "$(fields crates/core/src/system/transport.rs SystemTransport)" != "servers cores campus " ] \
    || [ "$(fields crates/core/src/system/parallel.rs WsOps)" != "transport venuses " ]; then
    shared crates/core/src | grep -E '\b[a-z_]+: LocationDb,'
    echo "SystemTransport: $(fields crates/core/src/system/transport.rs SystemTransport)" >&2
    echo "WsOps: $(fields crates/core/src/system/parallel.rs WsOps)" >&2
    echo "ci.sh: a second location database, or a view field beside its shards and &Campus (see above)" >&2
    exit 1
fi
# One shape of shard (DESIGN.md §13): what an op writes lives in its
# cluster's shard — traffic counts in each `ClusterCore`, Venus slices as
# one more `Parts`, a callback break as one `ClusterCore::breaks` record
# from schedule to delivery — so no whole-system monitor, Venus twin of
# `Parts`, second break form or event-claiming `Scheduler::take` grows back.
echo "== one shape of shard (no system-wide monitor, Venuses twin, second break form or Scheduler::take) =="
if shared crates/core/src | grep -E 'enum Venuses|PendingBreak|break_ids|do not support traffic monitoring' \
    || body crates/core/src/system.rs ItcSystem | grep -F 'TrafficMonitor' \
    || body crates/core/src/system/transport.rs SystemTransport | grep -F 'TrafficMonitor' \
    || nontest crates/sim/src/sched.rs | grep -F 'fn take('; then
    echo "ci.sh: per-op state grew back outside its cluster's shard (see the lines above)" >&2
    exit 1
fi
# A server serves the one call in flight (DESIGN.md §8): an executor pumps
# one call to completion, so the opened request rides the call from arrival
# to dispatch — no server request queue, whose depth could only read 0 —
# and a workstation's retry carries its newest token, so the replay cache
# keeps one entry per workstation, not a FIFO window.
echo "== one call in flight (no server request queue, queue observable or replay FIFO) =="
if nontest crates/core/src/server/mod.rs \
        | grep -E 'VecDeque<QueuedRequest>|fn (en|de)queue_request|queue_high_water|REPLAY_CAP|replay_order' \
    || shared crates/*/src | grep -E 'queue_depth|queue_peak|queue_high_water'; then
    echo "ci.sh: a server request queue, a queue observable or a replay FIFO grew back (see the lines above)" >&2
    exit 1
fi
# Each value has one source (DESIGN.md §13): the campus is uniform, so node
# ids are arithmetic (`Network::uniform`) and no node map is stored; the
# system's time is computed from the Venus clocks, so no cluster keeps a
# high-water; servers and workstations are built from the one
# `SystemConfig`; and tracing is switched only by `enable_tracing`.
echo "== one source per value (no node map, clock high-water, second constructor or tracing field) =="
if shared crates/core/src \
        | grep -E 'server_nodes|ws_nodes|node_to_ws|advance_high_water|fn with_write_policy|fn set_break_batching' \
    || body crates/core/src/system/transport.rs ClusterCore | grep -E '^ *(pub(\([a-z]+\))? )?now:' \
    || body crates/core/src/config.rs SystemConfig | grep -w 'tracing' \
    || nontest crates/rpc/src/net.rs | grep -E 'fn add_(node|cluster)\b' \
    || grep -n 'too_many_arguments' crates/core/src/venus/mod.rs; then
    echo "ci.sh: a value grew a second source (see the lines above)" >&2
    exit 1
fi
# One retry rule (DESIGN.md §8): the client half of a Vice call — count an
# attempt, arm or stand down its timer, count a lost leg, back off, give
# up — is `itc_rpc::retry::CallMachine`, which the transport only drives.
# No settable retry policy may come back, and no retry decision or
# `CallStats` bump may grow back under crates/core/src (`obs.rs` keeps its
# own `timeouts` series counter, so `timeouts +=` is not a pattern).
echo "== one retry rule (no retry policy, attempt limit, backoff or CallStats bump outside itc_rpc::retry) =="
if shared crates/*/src | grep -F 'struct RetryPolicy' \
    || body crates/core/src/system/topology.rs Campus | grep -E '^ *(pub(\([a-z]+\))? )?retry:' \
    || shared crates/core/src \
        | grep -E 'max_attempts|\.backoff\(|\b(attempts|retries|failures|duplicates_ignored) \+='; then
    echo "ci.sh: a retry decision grew back outside itc_rpc::retry (see the lines above)" >&2
    exit 1
fi
# The trajectory: the non-test lines of every crates/*/src file (tests.rs
# excluded), in total and for the call path's five files.
find crates/*/src -name '*.rs' ! -name tests.rs | sort | while read -r f; do
    echo "$(nontest "$f" | wc -l) $f"
done | awk '{total += $1}
    $2 ~ /core\/src\/(server\/mod|venus\/mod|system\/(transport|lifecycle|observe))\.rs$/ {print}
    END {print total " non-test lines under crates/*/src"}'

echo "== clippy (offline, deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

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
