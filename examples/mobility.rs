//! User mobility: the Section 3.2 scenario.
//!
//! "If a user places all his files in the shared name space, he can move
//! to any other workstation attached to Vice and use it exactly as he
//! would use his own workstation."
//!
//! A faculty member works in her office (cluster 0), walks across campus
//! to a library workstation (cluster 1), continues the same work, and
//! returns. Her files follow her; only timing differs.
//!
//! ```text
//! cargo run --example mobility
//! ```

use itc_afs::core::config::SystemConfig;
use itc_afs::core::system::{ItcSystem, WsId};
use itc_afs::sim::SimTime;

fn work_session(sys: &mut ItcSystem, ws: WsId, label: &str) -> SimTime {
    let t0 = sys.ws_time(ws);
    // Read the whole working set.
    for i in 0..8 {
        let path = format!("/vice/usr/prof/notes/ch{i}.txt");
        let _ = sys.ops().fetch(ws, &path).unwrap();
    }
    // Edit chapter 3.
    let path = "/vice/usr/prof/notes/ch3.txt";
    let mut data = sys.ops().fetch(ws, path).unwrap();
    data.extend_from_slice(b"\n...new paragraph written elsewhere...");
    sys.ops().store(ws, path, data).unwrap();
    let elapsed = sys.ws_time(ws) - t0;
    println!("{label:<34} {elapsed}");
    elapsed
}

fn main() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.add_user("prof", "tenure").unwrap();
    // Her volume is custodied by the server in her office's cluster.
    sys.create_user_volume("prof", 0).unwrap();
    for i in 0..8 {
        sys.admin_install_file(
            &format!("/vice/usr/prof/notes/ch{i}.txt"),
            vec![b'#'; 24_000],
        )
        .unwrap();
    }

    let office = sys.workstation_in_cluster(0);
    let library = sys.workstation_in_cluster(1);

    sys.login(office, "prof", "tenure").unwrap();
    println!("-- at the office (cluster 0, same cluster as her files) --");
    let office_cold = work_session(&mut sys, office, "office, cold cache");
    let office_warm = work_session(&mut sys, office, "office, warm cache");

    println!("-- walks to the library (cluster 1) --");
    // Wall time passes while she walks: bring the library workstation's
    // local clock up to campus time.
    let now = sys.now();
    sys.ops().advance_ws(library, now);
    sys.login(library, "prof", "tenure").unwrap();
    let library_cold = work_session(&mut sys, library, "library, cold cache (cache fill)");
    let library_warm = work_session(&mut sys, library, "library, warm cache");

    println!("-- back at the office: her cache is still warm --");
    let now = sys.now();
    sys.ops().advance_ws(office, now);
    // The edit she made at the library broke nothing: check-on-open
    // validation (or a callback break) refreshes exactly the changed file.
    let office_back = work_session(&mut sys, office, "office again");

    println!();
    println!(
        "one-time move penalty: {:.1}x a warm session; steady cross-cluster penalty: {:.2}x",
        library_cold.as_secs_f64() / office_warm.as_secs_f64(),
        library_warm.as_secs_f64() / office_warm.as_secs_f64(),
    );
    // The library edit is visible at the office.
    let text = sys
        .ops()
        .fetch(office, "/vice/usr/prof/notes/ch3.txt")
        .unwrap();
    assert!(text.ends_with(b"...new paragraph written elsewhere..."));
    println!("the paragraph written at the library is on screen at the office");
    let _ = (office_cold, office_back);
}
