//! Every metric the benchmark emits, declared once. `BENCHMARK.json` is
//! rendered from these tables (`manifest`), the smoke run checks that the
//! names emitted equal the names declared, and `compare` takes its bounds
//! from here.

use crate::json;
use crate::workloads::{Workload, WS_CALL_KINDS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the simulator would see. All are host-side.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "par_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "1",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "op_ok_share",
        unit: "1",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, with the prediction it carries: which
/// end-to-end metric it should move, and on which workload.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The module the metric prices.
    pub layer: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workload it should move it on.
    pub on: &'static str,
}

fn group(
    out: &mut Vec<PerLayer>,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
    metrics: &[(&str, &'static str, Better)],
) {
    for &(name, unit, better) in metrics {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            layer,
            moves,
            on,
        });
    }
}

/// The per-layer table, in the order the benchmark prints it.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    group(
        &mut out,
        "cryptbox",
        "events_per_s, allocs_per_op",
        "small_storm",
        &[
            ("cryptbox.msgs", "count", Lower),
            ("cryptbox.seal_open_ns", "ns", Lower),
            ("cryptbox.alloc_bytes_per_msg", "B", Lower),
            ("cryptbox.share", "1", Lower),
            ("cryptbox.handshake_ns", "ns", Lower),
        ],
    );
    group(
        &mut out,
        "rpc",
        "events_per_s",
        "fault_day",
        &[
            ("rpc.attempts", "count", Lower),
            ("rpc.retries", "count", Lower),
            ("rpc.timeouts", "count", Lower),
            ("rpc.failures", "count", Lower),
            ("rpc.retry_share", "1", Lower),
        ],
    );
    group(
        &mut out,
        "proto",
        "events_per_s, alloc_bytes_per_op",
        "bulk_storm",
        &[
            ("proto.codec_ns", "ns", Lower),
            ("proto.codec_head_ns", "ns", Lower),
            ("proto.codec_alloc_bytes", "B", Lower),
            ("proto.codec_share", "1", Lower),
            ("proto.digest_mb_per_s", "MB/s", Higher),
            ("proto.bytes_copied_per_op", "B", Lower),
        ],
    );
    group(
        &mut out,
        "sim.sched",
        "events_per_s",
        "small_storm, fault_day",
        &[
            ("sim.sched.scheduled", "count", Lower),
            ("sim.sched.executed", "count", Lower),
            ("sim.sched.cancelled", "count", Lower),
            ("sim.sched.high_water", "count", Lower),
            ("sim.sched.cancel_share", "1", Lower),
            ("sim.sched.event_ns", "ns", Lower),
            ("sim.sched.share", "1", Lower),
        ],
    );
    group(
        &mut out,
        "unixfs",
        "events_per_s, peak_heap_mb",
        "bulk_storm",
        &[
            ("unixfs.write_ns", "ns", Lower),
            ("unixfs.read_ns", "ns", Lower),
            ("unixfs.resolve_ns", "ns", Lower),
            ("unixfs.share", "1", Lower),
        ],
    );
    group(
        &mut out,
        "volume",
        "events_per_s",
        "bulk_storm",
        &[
            ("volume.store_ns", "ns", Lower),
            ("volume.share", "1", Lower),
        ],
    );
    group(
        &mut out,
        "disk.journal",
        "events_per_s, peak_heap_mb, peak_rss_mb",
        "bulk_storm, fault_day",
        &[
            ("disk.journal.records", "count", Lower),
            ("disk.journal.bytes", "B", Lower),
            ("disk.journal.append_ns", "ns", Lower),
            ("disk.journal.share", "1", Lower),
            ("disk.journal.salvages", "count", Lower),
            ("disk.journal.records_replayed", "count", Lower),
            ("disk.journal.salvage_ns_per_record", "ns", Lower),
        ],
    );
    group(
        &mut out,
        "disk.integrity",
        "events_per_s",
        "fault_day, bulk_storm",
        &[
            ("disk.integrity.merkle_set_ns", "ns", Lower),
            ("disk.integrity.scrub_mb_per_s", "MB/s", Higher),
            ("disk.integrity.scrub_passes", "count", Lower),
            ("disk.integrity.bytes_scanned", "B", Lower),
            ("disk.integrity.injected", "count", Lower),
            ("disk.integrity.detected", "count", Higher),
            ("disk.integrity.share", "1", Lower),
        ],
    );
    group(
        &mut out,
        "venus.cache",
        "ops_per_s",
        "campus_day",
        &[
            ("venus.cache.hits", "count", Higher),
            ("venus.cache.misses", "count", Lower),
            ("venus.cache.hit_ratio", "1", Higher),
            ("venus.cache.evictions", "count", Lower),
            ("venus.cache.get_ns", "ns", Lower),
            ("venus.cache.insert_ns", "ns", Lower),
            ("venus.cache.share", "1", Lower),
        ],
    );
    for kind in WS_CALL_KINDS {
        for (suffix, unit) in [("count", "count"), ("p99_ns", "ns"), ("share", "1")] {
            out.push(PerLayer {
                name: format!("system.ws_call.{kind}.{suffix}"),
                unit,
                better: Lower,
                layer: "system.ws_call",
                moves: "ops_per_s",
                on: "whichever kind dominates the workload",
            });
        }
    }
    group(
        &mut out,
        "workload",
        "ops_per_s",
        "campus_day",
        &[
            ("workload.op_self_share", "1", Lower),
            ("workload.op_fail_share", "1", Lower),
        ],
    );
    group(
        &mut out,
        "system.parallel",
        "par_events_per_s, ops_per_s",
        "campus_day, fault_day",
        &[
            ("system.parallel.threads", "count", Higher),
            ("system.parallel.exec_self_share", "1", Lower),
            ("system.parallel.par1_wall_ratio", "1", Lower),
            ("system.parallel.par_cpu_ratio", "1", Lower),
            ("system.parallel.par_speedup", "1", Higher),
        ],
    );
    group(
        &mut out,
        "trace_obs",
        "events_per_s",
        "fault_day",
        &[
            ("trace_obs.on_wall_ratio", "1", Lower),
            ("trace_obs.spans_recorded", "count", Lower),
            ("trace_obs.virtual_delta_us", "us", Lower),
            ("trace_obs.export_s", "s", Lower),
        ],
    );
    group(
        &mut out,
        "allocator / host",
        "alloc_bytes_per_op, peak_rss_mb, events_per_s",
        "bulk_storm",
        &[
            ("alloc.large_allocs_per_op", "1", Lower),
            ("alloc.realloc_bytes_per_op", "B", Lower),
            ("host.cpu_s_seq", "s", Lower),
            ("host.sys_share_seq", "1", Lower),
            ("bench.trace_overhead_ratio", "1", Lower),
            ("unattributed_share", "1", Lower),
        ],
    );
    out
}

/// Whether a metric is a count of the deterministic simulation and so
/// repeats exactly from run to run on one build, where a time or a
/// resident-set size never does. The allocation totals are left out: on
/// `fault_day` they move by a few parts in a million between identical
/// runs (some allocation on the fault path follows a `HashMap`'s iteration
/// order), so they are held to their bounds, not to equality.
pub fn is_exact(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "us")
        || (unit == "B" && !name.starts_with("alloc"))
        || matches!(
            name,
            "op_ok_share"
                | "rpc.retry_share"
                | "sim.sched.cancel_share"
                | "venus.cache.hit_ratio"
                | "workload.op_fail_share"
        )
}

/// Seconds one measured run is given (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name()),
                json::quote(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(&m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name().to_string(), "1")));
        for (name, unit) in names {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn the_checked_in_manifest_is_the_rendered_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
