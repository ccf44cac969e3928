//! Heterogeneity via symbolic links: the Section 3.1 / Figure 3-2 scheme.
//!
//! "On a Sun workstation, the local directory /bin is a symbolic link to
//! the remote directory /vice/unix/sun/bin; on a Vax, /bin is a symbolic
//! link to /vice/unix/vax/bin."
//!
//! The same program name — `/bin/cc` — names different Vice files on
//! different workstation types, without either the user or the program
//! knowing.
//!
//! ```text
//! cargo run --example heterogeneity
//! ```

use itc_afs::core::config::SystemConfig;
use itc_afs::core::system::ItcSystem;
use itc_afs::core::venus::Space;

fn main() {
    let mut sys = ItcSystem::build(SystemConfig::small_campus(1, 4));
    sys.add_user("student", "pw").unwrap();

    // The operator installs per-architecture system binaries in Vice.
    sys.admin_install_file("/vice/unix/sun/bin/cc", b"68010 code generator".to_vec())
        .unwrap();
    sys.admin_install_file("/vice/unix/vax/bin/cc", b"vax-11 code generator".to_vec())
        .unwrap();

    // The build alternates Sun and Vax workstations: ws 0 is a Sun, ws 1
    // a Vax.
    for ws in [0usize, 1] {
        sys.login(ws, "student", "pw").unwrap();
        let arch = sys.venus(ws).namespace().ws_type().arch();

        // Where does /bin/cc really point? The classification machinery
        // answers without any I/O.
        let space = sys.classify(ws, "/bin/cc").unwrap();
        let resolved = match &space {
            Space::Vice(p) => p.clone(),
            Space::Local(p) => p.clone(),
        };
        let data = sys.ops().fetch(ws, "/bin/cc").unwrap();
        println!(
            "ws{ws} ({arch:>3}):  /bin/cc -> {resolved}  contents: {:?}",
            String::from_utf8_lossy(&data)
        );
    }

    // A user can build private shortcuts into the shared space too
    // ("symbolic links from the local name space into Vice are supported").
    sys.ops().mkdir_p(0, "/vice/usr/student/project").unwrap();
    sys.ops()
        .store(
            0,
            "/vice/usr/student/project/main.c",
            b"int main(){}".to_vec(),
        )
        .unwrap();
    sys.venus_mut(0)
        .namespace_mut()
        .local_mut()
        .symlink("/local/proj", "/vice/usr/student/project", 0, 0)
        .unwrap();
    let through_link = sys.ops().fetch(0, "/local/proj/main.c").unwrap();
    println!(
        "private shortcut: /local/proj/main.c -> {:?}",
        String::from_utf8_lossy(&through_link)
    );

    // An IBM PC class machine has no /bin at all — it would reach Vice
    // through a surrogate server (Section 3.3); its namespace reflects
    // that.
    let pc =
        itc_afs::core::venus::Namespace::standard(itc_afs::core::venus::WorkstationType::IbmPc);
    println!(
        "ibmpc: classify(/bin/cc) = {:?}",
        pc.classify("/bin/cc", true)
            .map(|_| ())
            .map_err(|e| e.to_string())
    );
}
