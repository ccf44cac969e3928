//! The five-phase benchmark of Section 5.2 (the proto-"Andrew benchmark").
//!
//! "There are five distinct phases in the benchmark: making a target
//! subtree that is identical in structure to the source subtree, copying
//! the files from the source to the target, examining the status of every
//! file in the target, scanning every byte of every file in the target,
//! and finally compiling and linking the files in the target."
//!
//! The benchmark drives the full stack — interception, cache, validation,
//! custodian lookup, secure RPC, server CPU/disk — so running it with the
//! source and target in the local name space vs. in Vice reproduces the
//! paper's local/remote comparison ("about 80% longer when the workstation
//! is obtaining all its files from an unloaded Vice server").

use crate::tree::{SourceTree, TreeSpec};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_sim::SimTime;
use itc_unixfs::Mode;

/// Where a benchmark tree lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeLocation {
    /// Under the workstation's local name space (e.g. `/local/src`).
    Local(String),
    /// Under the shared name space (e.g. `/vice/usr/bench/src`).
    Vice(String),
}

impl TreeLocation {
    /// The base path as a string.
    pub fn base(&self) -> &str {
        match self {
            TreeLocation::Local(p) | TreeLocation::Vice(p) => p,
        }
    }

    fn join(&self, rel: &str) -> String {
        format!("{}/{rel}", self.base())
    }
}

/// Wall-clock (virtual) duration of each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Phase 1: make the target subtree.
    pub make_dir: SimTime,
    /// Phase 2: copy every file from source to target.
    pub copy: SimTime,
    /// Phase 3: stat every file in the target.
    pub scan_dir: SimTime,
    /// Phase 4: read every byte of every file in the target.
    pub read_all: SimTime,
    /// Phase 5: compile and link.
    pub make: SimTime,
}

impl PhaseTimes {
    /// Total benchmark duration.
    pub fn total(&self) -> SimTime {
        self.make_dir + self.copy + self.scan_dir + self.read_all + self.make
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Per-phase durations.
    pub phases: PhaseTimes,
    /// Number of files operated on.
    pub files: usize,
    /// Total source bytes.
    pub bytes: u64,
}

/// The benchmark: a tree, a source location, and a target location.
#[derive(Debug)]
pub struct AndrewBenchmark {
    tree: SourceTree,
    source: TreeLocation,
    target: TreeLocation,
}

/// Headers each compilation unit includes (beyond its own source): the
/// compile phase re-opens these, which is what makes header files hot and
/// cache-friendly.
const HEADERS_PER_UNIT: usize = 5;

impl AndrewBenchmark {
    /// Creates a benchmark over the default ~70-file tree.
    pub fn new(source: TreeLocation, target: TreeLocation) -> AndrewBenchmark {
        AndrewBenchmark::with_tree(SourceTree::generate(TreeSpec::default()), source, target)
    }

    /// Creates a benchmark over a custom tree.
    pub fn with_tree(
        tree: SourceTree,
        source: TreeLocation,
        target: TreeLocation,
    ) -> AndrewBenchmark {
        AndrewBenchmark {
            tree,
            source,
            target,
        }
    }

    /// The tree being operated on.
    pub fn tree(&self) -> &SourceTree {
        &self.tree
    }

    /// Installs the source tree (an untimed provisioning step: the paper's
    /// measurements begin with the source already in place).
    pub fn install_source(&self, sys: &mut ItcSystem, ws: WsId) -> Result<(), SystemError> {
        match &self.source {
            TreeLocation::Vice(base) => {
                sys.admin_mkdir_p(base)?;
                for d in &self.tree.dirs {
                    sys.admin_mkdir_p(&format!("{base}/{d}"))?;
                }
                for (rel, data) in &self.tree.files {
                    sys.admin_install_file(&format!("{base}/{rel}"), data.clone())?;
                }
            }
            TreeLocation::Local(base) => {
                let local = sys.venus_mut(ws).namespace_mut().local_mut();
                local
                    .mkdir_p(base, Mode::DIR_DEFAULT, 0, 0)
                    .map_err(|e| SystemError::Volume(e.to_string()))?;
                for d in &self.tree.dirs {
                    local
                        .mkdir_p(&format!("{base}/{d}"), Mode::DIR_DEFAULT, 0, 0)
                        .map_err(|e| SystemError::Volume(e.to_string()))?;
                }
                for (rel, data) in &self.tree.files {
                    local
                        .write(&format!("{base}/{rel}"), 0, 0, data.clone())
                        .map_err(|e| SystemError::Volume(e.to_string()))?;
                }
            }
        }
        Ok(())
    }

    /// Runs all five phases at workstation `ws`, which must be logged in.
    /// The target tree must not exist yet.
    pub fn run(&self, sys: &mut ItcSystem, ws: WsId) -> Result<BenchmarkReport, SystemError> {
        let costs = sys.config().costs.clone();
        let mut phases = PhaseTimes::default();

        // Phase 1: MakeDir.
        let t0 = sys.ws_time(ws);
        self.mkdir_tree(sys, ws, self.target.base())?;
        for d in &self.tree.dirs {
            self.mkdir_tree(sys, ws, &self.target.join(d))?;
        }
        phases.make_dir = sys.ws_time(ws) - t0;

        // Phase 2: Copy.
        let t0 = sys.ws_time(ws);
        for (rel, _) in &self.tree.files {
            let data = sys.ops().fetch(ws, &self.source.join(rel))?;
            sys.ops().store(ws, &self.target.join(rel), data)?;
        }
        phases.copy = sys.ws_time(ws) - t0;

        // Phase 3: ScanDir — examine the status of every file.
        let t0 = sys.ws_time(ws);
        sys.ops().readdir(ws, self.target.base())?;
        for d in &self.tree.dirs {
            sys.ops().readdir(ws, &self.target.join(d))?;
        }
        for (rel, _) in &self.tree.files {
            sys.ops().stat(ws, &self.target.join(rel))?;
        }
        phases.scan_dir = sys.ws_time(ws) - t0;

        // Phase 4: ReadAll — scan every byte of every file.
        let t0 = sys.ws_time(ws);
        for (rel, data) in &self.tree.files {
            let got = sys.ops().fetch(ws, &self.target.join(rel))?;
            debug_assert_eq!(got.len(), data.len());
            let kib = (got.len() as u64).div_ceil(1024);
            let scanned = sys.ws_time(ws) + costs.app_scan_per_kib * kib;
            sys.ops().advance_ws(ws, scanned);
        }
        phases.read_all = sys.ws_time(ws) - t0;

        // Phase 5: Make — compile every .c, then link.
        let t0 = sys.ws_time(ws);
        let units: Vec<(String, usize)> = self
            .tree
            .compilation_units()
            .map(|(p, d)| (p.clone(), d.len()))
            .collect();
        let headers: Vec<String> = self
            .tree
            .files
            .iter()
            .filter(|(p, _)| p.ends_with(".h"))
            .map(|(p, _)| p.clone())
            .collect();
        let mut objects = Vec::new();
        for (i, (rel, size)) in units.iter().enumerate() {
            // Read the source and the headers it includes.
            let src = sys.ops().fetch(ws, &self.target.join(rel))?;
            for h in 0..HEADERS_PER_UNIT.min(headers.len()) {
                let header = &headers[(i + h) % headers.len()];
                let _ = sys.ops().fetch(ws, &self.target.join(header))?;
            }
            // Compiler work, with an intermediate in the local /tmp (class
            // 2 of Section 3.1: temporaries never enter the shared space).
            let kib = (src.len() as u64).div_ceil(1024);
            let compiled = sys.ws_time(ws) + costs.app_compile_per_kib * kib;
            sys.ops().advance_ws(ws, compiled);
            let tmp = format!("/tmp/cc{i:03}.s");
            sys.ops().store(ws, &tmp, vec![b'#'; size / 2 + 1])?;
            sys.ops().unlink(ws, &tmp)?;
            // The object file lands in the target tree.
            let obj = format!("{}.o", rel.trim_end_matches(".c"));
            sys.ops()
                .store(ws, &self.target.join(&obj), vec![0u8; size / 2 + 1])?;
            objects.push(obj);
        }
        // Link: read every object, charge link CPU, write the binary.
        let mut total_obj = 0u64;
        for obj in &objects {
            total_obj += sys.ops().fetch(ws, &self.target.join(obj))?.len() as u64;
        }
        let link_cpu = costs.app_compile_per_kib * total_obj.div_ceil(1024) / 4;
        let linked = sys.ws_time(ws) + link_cpu;
        sys.ops().advance_ws(ws, linked);
        sys.ops().store(
            ws,
            &self.target.join("a.out"),
            vec![0u8; total_obj as usize / 2],
        )?;
        phases.make = sys.ws_time(ws) - t0;

        Ok(BenchmarkReport {
            phases,
            files: self.tree.file_count(),
            bytes: self.tree.total_bytes(),
        })
    }

    fn mkdir_tree(&self, sys: &mut ItcSystem, ws: WsId, path: &str) -> Result<(), SystemError> {
        match &self.target {
            TreeLocation::Vice(_) => sys.ops().mkdir_p(ws, path),
            TreeLocation::Local(_) => {
                // Local mkdir through the workstation interface: charge the
                // syscall interception and a directory-update disk write.
                let costs = sys.config().costs.clone();
                let now = sys.ws_time(ws);
                sys.ops()
                    .advance_ws(ws, now + costs.ws_cpu_intercept + costs.ws_disk_transfer(0));
                let now_us = sys.ws_time(ws).as_micros();
                sys.venus_mut(ws)
                    .namespace_mut()
                    .local_mut()
                    .mkdir_p(path, Mode::DIR_DEFAULT, 0, now_us)
                    .map_err(|e| SystemError::Volume(e.to_string()))?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_core::SystemConfig;

    fn logged_in_system() -> ItcSystem {
        let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
        sys.add_user("bench", "pw").unwrap();
        sys.login(0, "bench", "pw").unwrap();
        sys
    }

    #[test]
    fn local_run_completes_and_times_are_positive() {
        let mut sys = logged_in_system();
        let b = AndrewBenchmark::new(
            TreeLocation::Local("/local/src".into()),
            TreeLocation::Local("/local/obj".into()),
        );
        b.install_source(&mut sys, 0).unwrap();
        let server_calls_before = sys.metrics().total_calls();
        let report = b.run(&mut sys, 0).unwrap();
        assert!(report.phases.make_dir > SimTime::ZERO);
        assert!(report.phases.copy > SimTime::ZERO);
        assert!(report.phases.scan_dir > SimTime::ZERO);
        assert!(report.phases.read_all > SimTime::ZERO);
        assert!(report.phases.make > report.phases.copy, "compile dominates");
        // Temporary files went to /tmp only; a fully local run must not
        // touch any server.
        assert_eq!(sys.metrics().total_calls(), server_calls_before);
    }

    #[test]
    fn remote_run_is_slower_than_local() {
        let mut sys = logged_in_system();
        let local = AndrewBenchmark::new(
            TreeLocation::Local("/local/src".into()),
            TreeLocation::Local("/local/obj".into()),
        );
        local.install_source(&mut sys, 0).unwrap();
        let local_report = local.run(&mut sys, 0).unwrap();

        let mut sys2 = logged_in_system();
        sys2.ops().mkdir_p(0, "/vice/usr/bench").unwrap();
        let remote = AndrewBenchmark::new(
            TreeLocation::Vice("/vice/usr/bench/src".into()),
            TreeLocation::Vice("/vice/usr/bench/obj".into()),
        );
        remote.install_source(&mut sys2, 0).unwrap();
        let remote_report = remote.run(&mut sys2, 0).unwrap();

        assert!(
            remote_report.phases.total() > local_report.phases.total(),
            "remote {} <= local {}",
            remote_report.phases.total(),
            local_report.phases.total()
        );
    }

    #[test]
    fn copy_phase_preserves_contents() {
        let mut sys = logged_in_system();
        sys.ops().mkdir_p(0, "/vice/usr/bench").unwrap();
        let b = AndrewBenchmark::new(
            TreeLocation::Vice("/vice/usr/bench/src".into()),
            TreeLocation::Vice("/vice/usr/bench/obj".into()),
        );
        b.install_source(&mut sys, 0).unwrap();
        b.run(&mut sys, 0).unwrap();
        for (rel, data) in &b.tree().files {
            let got = sys
                .ops()
                .fetch(0, &format!("/vice/usr/bench/obj/{rel}"))
                .unwrap();
            assert_eq!(&got, data, "{rel}");
        }
        // Objects and the linked binary exist.
        assert!(
            sys.ops()
                .fetch(0, "/vice/usr/bench/obj/a.out")
                .unwrap()
                .len()
                > 1000
        );
    }
}
