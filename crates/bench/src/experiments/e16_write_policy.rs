//! E16 — store-on-close vs deferred write-back.
//!
//! Paper (Section 3.2): "Changes to a cached file may be transmitted on
//! close to the corresponding custodian or deferred until a later time. In
//! our design, Virtue stores a file back when it is closed. We have
//! adopted this approach in order to simplify recovery from workstation
//! crashes. It also results in a better approximation to a timesharing
//! file system, where changes by one user are immediately visible."
//!
//! The ablation quantifies both sides of that trade: deferral coalesces
//! repeated saves (fewer stores, less traffic), but a workstation crash
//! loses every unflushed update — with store-on-close it loses none.

use crate::report::{Report, Scale};
use itc_core::config::WritePolicy;
use itc_core::{ItcSystem, SystemConfig};
use itc_sim::SimTime;

struct Outcome {
    stores: u64,
    bytes_stored: u64,
    lost_on_crash: usize,
    visible_after_crash: usize,
}

/// An editing session: `rounds` of re-saving 5 documents every 30 s, then
/// the workstation crashes.
fn editing_session(policy: WritePolicy, rounds: usize) -> Outcome {
    let cfg = SystemConfig {
        write_policy: policy,
        ..SystemConfig::prototype(1, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("writer", "pw").unwrap();
    sys.create_user_volume("writer", 0).unwrap();
    sys.login(0, "writer", "pw").unwrap();
    for d in 0..5 {
        sys.ops()
            .store(0, &format!("/vice/usr/writer/doc{d}"), vec![b'0'; 8_000])
            .unwrap();
    }
    if matches!(policy, WritePolicy::Delayed(_)) {
        // The initial creation may still be pending; flush so both runs
        // start from the same committed state.
        sys.ops().flush_all(0).unwrap();
    }
    let stores_baseline = sys.total_server_calls_of("store");
    let m0 = sys.metrics().venus.bytes_stored;

    for round in 0..rounds {
        let think = sys.ws_time(0) + SimTime::from_secs(30);
        sys.ops().advance_ws(0, think);
        for d in 0..5 {
            let p = format!("/vice/usr/writer/doc{d}");
            let mut data = sys.ops().fetch(0, &p).unwrap();
            data.push(b'a' + (round % 26) as u8);
            sys.ops().store(0, &p, data).unwrap();
        }
    }

    let stores = sys.total_server_calls_of("store") - stores_baseline;
    let bytes_stored = sys.metrics().venus.bytes_stored - m0;
    let lost_on_crash = sys.crash_workstation(0);

    // How many of the five documents show the final round's edit when read
    // from another workstation after the crash?
    sys.add_user("checker", "pw").unwrap();
    sys.login(1, "checker", "pw").unwrap();
    let final_byte = b'a' + ((rounds - 1) % 26) as u8;
    let visible_after_crash = (0..5)
        .filter(|d| {
            sys.ops()
                .fetch(1, &format!("/vice/usr/writer/doc{d}"))
                .map(|data| data.last() == Some(&final_byte))
                .unwrap_or(false)
        })
        .count();

    Outcome {
        stores,
        bytes_stored,
        lost_on_crash,
        visible_after_crash,
    }
}

/// Compares the two write policies on the same editing session.
pub fn run(scale: Scale) -> Report {
    let rounds = match scale {
        Scale::Quick => 12,
        Scale::Full => 40,
    };
    let on_close = editing_session(WritePolicy::StoreOnClose, rounds);
    let delayed = editing_session(WritePolicy::Delayed(SimTime::from_mins(10)), rounds);

    let mut r = Report::new(
        "e16",
        "Write-back policy: store-on-close vs deferred (10-minute delay)",
        "store-on-close simplifies crash recovery and approximates timesharing visibility; deferral saves traffic at the cost of lost updates",
    )
    .headers(vec![
        "policy",
        "store calls",
        "bytes stored",
        "updates lost at crash",
        "docs current after crash",
    ]);
    for (label, o) in [("store-on-close", &on_close), ("delayed 10min", &delayed)] {
        r.row(vec![
            label.to_string(),
            o.stores.to_string(),
            o.bytes_stored.to_string(),
            o.lost_on_crash.to_string(),
            format!("{}/5", o.visible_after_crash),
        ]);
    }
    r.note(format!(
        "deferral coalesced {} stores into {} ({}% traffic saved) but lost {} unflushed \
         updates when the workstation crashed; store-on-close lost none",
        on_close.stores,
        delayed.stores,
        (100 - 100 * delayed.stores / on_close.stores.max(1)),
        delayed.lost_on_crash,
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_trade_off_is_real() {
        let on_close = editing_session(WritePolicy::StoreOnClose, 8);
        let delayed = editing_session(WritePolicy::Delayed(SimTime::from_mins(10)), 8);
        // Store-on-close: one store per save, nothing lost, everything
        // visible.
        assert_eq!(on_close.stores, 40);
        assert_eq!(on_close.lost_on_crash, 0);
        assert_eq!(on_close.visible_after_crash, 5);
        // Deferred: far fewer stores, but the crash loses the tail.
        assert!(
            delayed.stores < on_close.stores / 2,
            "deferred stores {} should be well under {}",
            delayed.stores,
            on_close.stores
        );
        assert!(delayed.bytes_stored < on_close.bytes_stored);
        assert!(delayed.lost_on_crash > 0);
        assert!(delayed.visible_after_crash < 5);
    }
}
