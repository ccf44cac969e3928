//! Quickstart: build a two-cluster campus, log in, and watch whole-file
//! caching do its job.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use itc_afs::core::config::SystemConfig;
use itc_afs::core::system::ItcSystem;

fn main() {
    // Two clusters, one Vice server each, two workstations per cluster —
    // a miniature of Figure 2-2.
    let mut sys = ItcSystem::build(SystemConfig::small_campus(2, 2));
    sys.add_user("satya", "correct-horse").unwrap();
    let ws = sys.workstation_in_cluster(0);

    // Authentication is a real mutual handshake: a wrong password fails
    // before any file operation is possible.
    assert!(sys.login(ws, "satya", "wrong-password").is_err());
    sys.login(ws, "satya", "correct-horse").unwrap();
    println!("logged in as satya at workstation {ws}");

    // The shared name space looks like a normal file system.
    sys.ops().mkdir_p(ws, "/vice/usr/satya/doc").unwrap();
    sys.ops()
        .store(
            ws,
            "/vice/usr/satya/doc/paper.tex",
            b"Caching of entire files at workstations is a key element in this design.".to_vec(),
        )
        .unwrap();

    let text = sys
        .ops()
        .fetch(ws, "/vice/usr/satya/doc/paper.tex")
        .unwrap();
    println!("read back {} bytes through the cache", text.len());

    // The second open of a cached file does not fetch again.
    let fetches_before = sys.total_server_calls_of("fetch");
    let _ = sys
        .ops()
        .fetch(ws, "/vice/usr/satya/doc/paper.tex")
        .unwrap();
    let fetches_after = sys.total_server_calls_of("fetch");
    println!(
        "second open caused {} fetch calls (cache hit ratio so far: {:.0}%)",
        fetches_after - fetches_before,
        100.0 * sys.venus(ws).cache().stats().hit_ratio()
    );

    // Local files (like compiler temporaries) never touch Vice at all.
    let calls_before = sys.metrics().total_calls();
    sys.ops()
        .store(ws, "/tmp/scratch.o", vec![0u8; 4096])
        .unwrap();
    sys.ops().unlink(ws, "/tmp/scratch.o").unwrap();
    assert_eq!(sys.metrics().total_calls(), calls_before);
    println!("temporary files stayed local: 0 server calls");

    // Every byte that did cross the network went through an encrypted,
    // sequenced, mutually-authenticated channel.
    let m = sys.metrics();
    println!(
        "totals: {} server calls, busiest server CPU {:.1}% of elapsed time",
        m.total_calls(),
        100.0 * m.max_server_cpu_utilization()
    );
}
