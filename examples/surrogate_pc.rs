//! The surrogate server for low-function workstations (Section 3.3).
//!
//! "It would be desirable to allow workstations that fail to meet these
//! minimal resource requirements to access Vice ... Work is currently in
//! progress to build such a surrogate server for IBM PCs."
//!
//! A Sun workstation lends its Venus (and its whole-file cache) to a
//! cluster of IBM PCs over a cheap attachment LAN.
//!
//! ```text
//! cargo run --example surrogate_pc
//! ```

use itc_afs::core::config::SystemConfig;
use itc_afs::core::system::ItcSystem;

fn main() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
    sys.add_user("lab", "pw").unwrap();
    sys.create_user_volume("lab", 0).unwrap();
    sys.admin_install_file("/vice/usr/lab/dataset.csv", vec![b','; 120_000])
        .unwrap();

    // Workstation 0 hosts the surrogate; three PCs attach to it.
    sys.login(0, "lab", "pw").unwrap();
    sys.enable_surrogate(0).unwrap();
    let pcs: Vec<_> = (0..3).map(|_| sys.attach_pc(0).unwrap()).collect();
    println!("3 PCs attached to the surrogate on workstation 0");

    // The first PC read pulls the file from Vice into the host's cache...
    let fetches_before = sys.total_server_calls_of("fetch");
    let data = sys
        .pc_fetch(0, pcs[0], "/vice/usr/lab/dataset.csv")
        .unwrap();
    println!(
        "pc0 read {} bytes; Vice fetches so far: {}",
        data.len(),
        sys.total_server_calls_of("fetch") - fetches_before
    );

    // ...and the other PCs are served from that same cache: Vice sees no
    // further fetch traffic no matter how many PCs read the file.
    for (i, pc) in pcs.iter().enumerate().skip(1) {
        let d = sys.pc_fetch(0, *pc, "/vice/usr/lab/dataset.csv").unwrap();
        println!(
            "pc{i} read {} bytes; additional Vice fetches: {}",
            d.len(),
            sys.total_server_calls_of("fetch") - fetches_before - 1
        );
    }

    // A PC can write too — the surrogate stores through to Vice, so the
    // file is visible campus-wide.
    sys.pc_store(
        0,
        pcs[2],
        "/vice/usr/lab/results.txt",
        b"pc results".to_vec(),
    )
    .unwrap();
    sys.add_user("prof", "pw").unwrap();
    sys.login(1, "prof", "pw").unwrap();
    let seen = sys.ops().fetch(1, "/vice/usr/lab/results.txt").unwrap();
    println!(
        "a real workstation sees the PC's file: {:?}",
        String::from_utf8_lossy(&seen)
    );

    // The cheap LAN is the bottleneck for the PCs, not Vice.
    for (i, pc) in pcs.iter().enumerate() {
        let st = sys.surrogate(0).unwrap().stats_of(*pc).unwrap();
        let t = sys.surrogate(0).unwrap().pc_time(*pc).unwrap();
        println!(
            "pc{i}: {} requests, {} bytes received, local clock {t}",
            st.requests, st.bytes_out
        );
    }
}
