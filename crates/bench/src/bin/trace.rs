//! `trace` — span trees, latency attribution, and anomaly dumps from the
//! event pipeline's causal tracer.
//!
//! The simulator is hermetic, so the bin drives a deterministic demo
//! scenario (a small faulty campus: message drops and delays, an offline
//! volume, one call whose every request the network eats) and then lets
//! you inspect what the tracer saw:
//!
//! ```text
//! trace                   attribution summary + the slowest call's span
//!                         tree and component table
//! trace --trace <id>      span tree + component table for one TraceId
//! trace --anomalies       render every frozen anomaly dump to stdout
//! trace --export [DIR]    write the anomaly dumps as JSONL files
//!                         (default results/traces/); deterministic, so
//!                         two same-seed runs export identical bytes
//! trace <dump.jsonl>      re-render a previously exported dump file as
//!                         a span tree (works on any machine, no sim run)
//! trace --seed <n>        use a different scenario seed (default 1985)
//! ```

use itc_core::config::SystemConfig;
use itc_core::proto::ServerId;
use itc_core::system::ItcSystem;
use itc_core::trace::{
    parse_dump, render_attribution_table, render_integrity_ledger, render_span_tree,
};
use itc_sim::{FaultPlan, SimTime, Span, TraceId};

// ---------------------------------------------------------------------
// The demo scenario
// ---------------------------------------------------------------------

/// A two-cluster campus with tracing on: four users store and cross-fetch
/// under message drops/delays, one volume goes offline mid-run, and the
/// final call times out against a silent network. Everything is seeded —
/// same seed, same spans, same dumps, byte for byte.
fn demo_scenario(seed: u64) -> ItcSystem {
    let cfg = SystemConfig {
        seed,
        tracing: true,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    for i in 0..4usize {
        let user = format!("u{i}");
        sys.add_user(&user, "pw").expect("fresh system");
        sys.create_user_volume(&user, i as u32 / 2)
            .expect("fresh system");
        sys.login(i, &user, "pw").expect("fresh system");
        sys.ops()
            .store(i, &format!("/vice/usr/u{i}/data"), vec![i as u8; 6_000])
            .expect("store");
    }

    // Phase 1: lossy network, cross-cluster reads.
    sys.install_faults(
        FaultPlan::new(seed ^ 0xfa)
            .drop_request_prob(0.10)
            .drop_reply_prob(0.08)
            .delay(0.15, SimTime::from_millis(250)),
    );
    for i in 0..4usize {
        let _ = sys
            .ops()
            .fetch(i, &format!("/vice/usr/u{}/data", (i + 2) % 4));
        let _ = sys.ops().stat(i, &format!("/vice/usr/u{i}/data"));
    }

    // Phase 2: a volume drops out; the next validation gets the degraded
    // reply and the flight recorder freezes it.
    sys.set_volume_online("/vice/usr/u1", false)
        .expect("volume exists");
    let _ = sys.ops().fetch(1, "/vice/usr/u1/data");
    sys.set_volume_online("/vice/usr/u1", true)
        .expect("volume exists");

    // Phase 3: the network goes silent; one call burns every retry and
    // the recorder freezes the timeout.
    sys.install_faults(FaultPlan::new(seed).drop_request_prob(1.0));
    let _ = sys.ops().stat(0, "/vice/usr/u0/data");
    sys
}

// ---------------------------------------------------------------------
// Reading an exported dump back
// ---------------------------------------------------------------------

/// Re-renders an exported dump file: header summary, then the span tree
/// of the implicated trace (or of all frozen spans when the dump is not
/// tied to one call, e.g. a utilization peak). A file that is not, line
/// for line, what `--export` writes is an error naming the first bad line.
fn render_dump_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let d = parse_dump(&text).map_err(|line| format!("{path}:{line}: unparseable record"))?;

    let mut out = format!(
        "anomaly {}: {} at t={}s",
        d.index,
        d.reason,
        d.at.as_micros() / 1_000_000,
    );
    if let Some(s) = d.server {
        out.push_str(&format!(" server={s}"));
    }
    if let Some(v) = d.volume {
        out.push_str(&format!(" volume={v}"));
    }
    out.push_str(&format!(" ({} frozen spans)\n\n", d.spans.len()));

    let focus: Vec<&Span> = if d.trace.is_traced() {
        d.spans.iter().filter(|s| s.trace == d.trace).collect()
    } else {
        d.spans.iter().collect()
    };
    out.push_str(&render_span_tree(d.trace, &focus));
    Ok(out)
}

// ---------------------------------------------------------------------
// Reports over the live demo scenario
// ---------------------------------------------------------------------

fn print_summary(sys: &ItcSystem) {
    let stats = sys.trace_stats();
    println!(
        "tracer: {} traces, {} spans recorded ({} evicted), {} anomalies frozen\n",
        stats.traces, stats.spans, stats.evicted, stats.anomalies
    );
    let summary = sys.attribution().summary();
    let row_fmt = |label: String, r: &itc_core::AttributionRow| {
        println!(
            "  {label:<10} {:>6} calls  queue {:>8.3}s  service {:>8.3}s  net {:>8.3}s  \
             wasted {:>8.3}s  p50 {:>6.3}s  p90 {:>6.3}s",
            r.calls,
            r.queueing.as_micros() as f64 / 1e6,
            r.service.as_micros() as f64 / 1e6,
            r.network.as_micros() as f64 / 1e6,
            r.wasted.as_micros() as f64 / 1e6,
            r.p50_s,
            r.p90_s,
        );
    };
    println!("latency attribution by server:");
    for r in &summary.servers {
        row_fmt(format!("server{}", r.key), r);
    }
    println!("latency attribution by volume:");
    for r in &summary.volumes {
        row_fmt(format!("volume{}", r.key), r);
    }
    println!();

    // How every injected flip was resolved, next to the latency tables —
    // aggregated across servers.
    let counters = sys.integrity_counters();
    let mut scrub = itc_core::disk::ScrubStats::default();
    for s in 0..sys.server_count() {
        let st = sys.server_scrub_stats(ServerId(s as u32));
        scrub.passes += st.passes;
        scrub.volumes_scanned += st.volumes_scanned;
        scrub.files_scanned += st.files_scanned;
        scrub.bytes_scanned += st.bytes_scanned;
        scrub.mismatches_detected += st.mismatches_detected;
        scrub.repaired += st.repaired;
        scrub.offlined += st.offlined;
    }
    print!("{}", render_integrity_ledger(&counters, &scrub));
    println!();
}

fn render_call(sys: &ItcSystem, trace: TraceId) -> Result<String, String> {
    let attr = sys.attribution();
    let b = attr
        .breakdown_of(trace)
        .ok_or_else(|| format!("trace {} completed no call in this scenario", trace.0))?;
    let spans = sys.trace_collector().spans_of(trace);
    Ok(format!(
        "{}\n{}",
        render_span_tree(trace, &spans),
        render_attribution_table(b)
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1985u64;
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        seed = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--seed needs an integer");
                std::process::exit(2);
            });
    }

    // Offline re-render of an exported dump: no simulation at all.
    if let Some(path) = args.iter().find(|a| a.ends_with(".jsonl")) {
        match render_dump_file(path) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("trace: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let sys = demo_scenario(seed);

    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let id = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(0);
        match render_call(&sys, TraceId(id)) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("trace: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.iter().any(|a| a == "--anomalies") {
        for (name, text) in sys.render_anomaly_dumps() {
            println!("-- {name}");
            print!("{text}");
            println!();
        }
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--export") {
        let dir = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("results/traces");
        match sys.export_anomaly_dumps(std::path::Path::new(dir)) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
                println!("{} dump(s) exported to {dir}/", paths.len());
            }
            Err(e) => {
                eprintln!("trace: export failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Default report: summary, then the slowest completed call end to end.
    print_summary(&sys);
    let attr = sys.attribution();
    let slowest = attr
        .recent()
        .max_by_key(|b| b.total())
        .expect("demo scenario completes calls");
    println!(
        "slowest completed call: trace {} ({} on server{}, {} attempts)\n",
        slowest.trace.0, slowest.kind, slowest.server, slowest.attempts
    );
    match render_call(&sys, slowest.trace) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("trace: {e}"),
    }
    println!("anomalies frozen: {}", sys.trace_collector().dumps().len());
    println!("run `trace --anomalies` to print them, `trace --export` to write JSONL");
}
