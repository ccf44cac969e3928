//! E11 — the cost of encryption.
//!
//! Paper (Sections 3.4, 5.1): "we are convinced that encryption should be
//! available as a cheap primitive at every network site. Fortunately, VLSI
//! technology has made encryption chips available at relatively low cost.
//! ... We are awaiting the incorporation of the necessary encryption
//! hardware ... since software encryption is too slow to be viable."
//!
//! The judgment is about the file-transfer path: every byte of every fetch
//! and store crosses the cipher on both ends. We measure the interactive
//! operations a user feels — a cold whole-file fetch, a store, a warm-open
//! validation — plus the benchmark's Copy phase, under no/hardware/software
//! encryption.

use crate::report::{secs, Report, Scale};
use itc_core::{ItcSystem, SystemConfig};
use itc_sim::costs::EncryptionMode;
use itc_sim::SimTime;
use itc_workload::{AndrewBenchmark, TreeLocation};

struct Probe {
    fetch_1mb: SimTime,
    store_100k: SimTime,
    warm_open: SimTime,
    copy_phase: SimTime,
}

fn probe(mode: EncryptionMode) -> Probe {
    let cfg = SystemConfig {
        encryption: mode,
        ..SystemConfig::prototype(1, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("bench", "pw").expect("fresh");
    sys.create_user_volume("bench", 0).expect("fresh");
    sys.login(0, "bench", "pw").expect("fresh");
    sys.admin_install_file("/vice/usr/bench/big.bin", vec![0x5a; 1 << 20])
        .expect("install");

    let t0 = sys.ws_time(0);
    sys.ops()
        .fetch(0, "/vice/usr/bench/big.bin")
        .expect("fetch");
    let fetch_1mb = sys.ws_time(0) - t0;

    let t0 = sys.ws_time(0);
    sys.ops()
        .store(0, "/vice/usr/bench/out.bin", vec![1; 100_000])
        .expect("store");
    let store_100k = sys.ws_time(0) - t0;

    let t0 = sys.ws_time(0);
    sys.ops()
        .fetch(0, "/vice/usr/bench/big.bin")
        .expect("warm fetch");
    let warm_open = sys.ws_time(0) - t0;

    let bench = AndrewBenchmark::new(
        TreeLocation::Vice("/vice/usr/bench/src".into()),
        TreeLocation::Vice("/vice/usr/bench/obj".into()),
    );
    bench.install_source(&mut sys, 0).expect("install");
    let copy_phase = bench.run(&mut sys, 0).expect("run").phases.copy;

    Probe {
        fetch_1mb,
        store_100k,
        warm_open,
        copy_phase,
    }
}

/// Measures transfer-path operations under each encryption mode.
pub fn run(_scale: Scale) -> Report {
    let none = probe(EncryptionMode::None);
    let hw = probe(EncryptionMode::Hardware);
    let sw = probe(EncryptionMode::Software);

    let mut r = Report::new(
        "e11",
        "Encryption cost on the file-transfer path",
        "hardware encryption is near-free; software encryption is too slow to be viable",
    )
    .headers(vec!["operation", "none", "hardware", "software"]);
    #[allow(clippy::type_complexity)]
    let rows: [(&str, fn(&Probe) -> SimTime); 4] = [
        ("cold fetch 1 MiB", |p| p.fetch_1mb),
        ("store 100 KiB", |p| p.store_100k),
        ("warm open (validate)", |p| p.warm_open),
        ("benchmark Copy phase", |p| p.copy_phase),
    ];
    for (name, get) in rows {
        r.row(vec![
            name.to_string(),
            secs(get(&none)),
            secs(get(&hw)),
            secs(get(&sw)),
        ]);
    }
    r.note(format!(
        "software encryption makes a cold 1 MiB fetch {:.1}x slower than hardware \
         (and hardware costs only {:+.1}% over cleartext) — the paper's verdict holds",
        sw.fetch_1mb.as_secs_f64() / hw.fetch_1mb.as_secs_f64(),
        (hw.fetch_1mb.as_secs_f64() / none.fetch_1mb.as_secs_f64() - 1.0) * 100.0,
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_is_cheap_software_is_not() {
        let none = probe(EncryptionMode::None);
        let hw = probe(EncryptionMode::Hardware);
        let sw = probe(EncryptionMode::Software);
        // Hardware adds almost nothing to a bulk fetch.
        assert!(
            hw.fetch_1mb.as_secs_f64() < none.fetch_1mb.as_secs_f64() * 1.05,
            "hw {} vs none {}",
            hw.fetch_1mb,
            none.fetch_1mb
        );
        // Software at least doubles it (1 MiB x 20 us/byte on both ends).
        assert!(
            sw.fetch_1mb.as_secs_f64() > hw.fetch_1mb.as_secs_f64() * 2.0,
            "sw {} vs hw {}",
            sw.fetch_1mb,
            hw.fetch_1mb
        );
        // And the Copy phase suffers visibly too.
        assert!(sw.copy_phase > hw.copy_phase);
    }
}
