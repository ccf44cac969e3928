//! E10 — user mobility.
//!
//! Paper (Section 3.2): "If a user places all his files in the shared name
//! space, he can move to any other workstation attached to Vice and use it
//! exactly as he would use his own workstation. The only observable
//! differences are an initial performance penalty as the cache on the new
//! workstation is filled with the user's working set of files and a
//! smaller performance penalty as inter-cluster cache validity checks and
//! cache write-throughs are made."

use crate::report::{secs, Report, Scale};
use itc_core::{ItcSystem, SystemConfig};
use itc_sim::SimTime;

/// One "work session": read every working-set file, edit (rewrite) two.
fn session(sys: &mut ItcSystem, ws: usize, files: &[String]) -> SimTime {
    let t0 = sys.ws_time(ws);
    for f in files {
        sys.ops().fetch(ws, f).expect("readable");
    }
    for f in files.iter().take(2) {
        let mut data = sys.ops().fetch(ws, f).expect("readable");
        data.extend_from_slice(b" (edited)");
        sys.ops().store(ws, f, data).expect("writable");
    }
    sys.ws_time(ws) - t0
}

/// Home sessions, then a move to a workstation in another cluster.
pub fn run(scale: Scale) -> Report {
    let files_n = match scale {
        Scale::Quick => 12,
        Scale::Full => 30,
    };
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.add_user("satya", "pw").expect("fresh");
    // Files custodied in cluster 0, near the home workstation.
    sys.create_user_volume("satya", 0).expect("fresh");
    let files: Vec<String> = (0..files_n)
        .map(|i| format!("/vice/usr/satya/doc/f{i:02}.txt"))
        .collect();
    for f in &files {
        sys.admin_install_file(f, vec![b'x'; 120_000])
            .expect("install");
    }

    let home = sys.workstation_in_cluster(0);
    let away = sys.workstation_in_cluster(1);

    sys.login(home, "satya", "pw").expect("login");
    let home_cold = session(&mut sys, home, &files);
    let home_warm = session(&mut sys, home, &files);

    // The user walks across campus and sits down at a strange workstation
    // (wall time catches up with the walk).
    let now = sys.now();
    sys.ops().advance_ws(away, now);
    sys.login(away, "satya", "pw").expect("login");
    let away_cold = session(&mut sys, away, &files);
    let away_warm = session(&mut sys, away, &files);

    let mut r = Report::new(
        "e10",
        "User mobility: same work at the home and a remote-cluster workstation",
        "full mobility; an initial penalty while the new cache warms, a small steady cross-cluster penalty",
    )
    .headers(vec!["session", "elapsed"]);
    r.row(vec!["home, cold cache".to_string(), secs(home_cold)]);
    r.row(vec!["home, warm cache".to_string(), secs(home_warm)]);
    r.row(vec![
        "away, cold cache (just moved)".to_string(),
        secs(away_cold),
    ]);
    r.row(vec!["away, warm cache".to_string(), secs(away_warm)]);
    r.note(format!(
        "moving costs {:.1}x the warm session once (cache fill), then settles to {:.2}x \
         (cross-cluster validations and write-throughs)",
        away_cold.as_secs_f64() / home_warm.as_secs_f64(),
        away_warm.as_secs_f64() / home_warm.as_secs_f64(),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobility_penalties_match_the_papers_description() {
        let r = run(Scale::Quick);
        let home_cold = r.cell_f64("home, cold cache", 1).unwrap();
        let home_warm = r.cell_f64("home, warm cache", 1).unwrap();
        let away_cold = r.cell_f64("away, cold cache (just moved)", 1).unwrap();
        let away_warm = r.cell_f64("away, warm cache", 1).unwrap();
        // Warm beats cold everywhere.
        assert!(home_warm < home_cold);
        assert!(away_warm < away_cold);
        // The move causes a big one-time penalty...
        assert!(away_cold > home_warm * 1.5, "{away_cold} vs {home_warm}");
        // ...then a small steady penalty from cross-cluster hops.
        assert!(away_warm > home_warm);
        assert!(
            away_warm < home_cold,
            "steady-state away should beat any cold start"
        );
    }
}
