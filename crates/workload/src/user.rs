//! A synthetic user: the minute-to-minute activity model.
//!
//! In the spirit of the authors' synthetic file-system driver (the paper's reference 13), a user
//! alternates think time with file operations drawn from a class-weighted
//! mix: reads and writes over a personal working set (with strong locality
//! — recently used files are re-used), status checks, directory listings,
//! reads of shared system binaries, and local temporary-file churn that
//! never touches Vice.

use crate::driver::WsCalls;
use crate::sizes::{FileClass, FileSizeModel};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_sim::{SimRng, SimTime};

/// Parameters of one user's behavior.
#[derive(Debug, Clone)]
pub struct UserConfig {
    /// Account name.
    pub name: String,
    /// Cluster whose server custodians the user's volume.
    pub home_cluster: u32,
    /// Number of files in the user's personal working set.
    pub working_set: usize,
    /// Mean think time between operations, in seconds.
    pub mean_think_secs: f64,
    /// Probability an operation reads a shared system binary.
    pub system_read_fraction: f64,
    /// Probability an operation is a bare `stat`.
    pub stat_fraction: f64,
    /// Probability an operation is a directory listing.
    pub list_fraction: f64,
    /// Probability an operation is local temporary-file churn.
    pub temp_fraction: f64,
}

impl UserConfig {
    /// A typical CMU user of Section 1.1: text processing and programming,
    /// mostly reads, occasional writes.
    pub fn typical(name: &str, home_cluster: u32) -> UserConfig {
        UserConfig {
            name: name.to_string(),
            home_cluster,
            working_set: 24,
            mean_think_secs: 35.0,
            system_read_fraction: 0.10,
            stat_fraction: 0.24,
            list_fraction: 0.03,
            temp_fraction: 0.08,
        }
    }

    /// An intense user — the "few users" whose "intense file system
    /// activity ... drastically lowered performance for all other active
    /// users" (Section 5.2).
    pub fn intense(name: &str, home_cluster: u32) -> UserConfig {
        UserConfig {
            working_set: 60,
            mean_think_secs: 1.5,
            ..UserConfig::typical(name, home_cluster)
        }
    }
}

/// One operation's outcome, for coarse accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read a working-set file.
    Read,
    /// Modify a working-set file.
    Write,
    /// Stat a file.
    Stat,
    /// List a directory.
    List,
    /// Read a system binary.
    SystemRead,
    /// Local temporary churn.
    Temp,
}

/// A live session: the user, his workstation, his file population, and his
/// private randomness.
#[derive(Debug)]
pub struct UserSession {
    cfg: UserConfig,
    ws: WsId,
    rng: SimRng,
    files: Vec<(String, FileClass)>,
    system_files: Vec<String>,
    /// Virtual time of the next operation.
    pub next_at: SimTime,
    /// Kind of the next operation, when drawn ahead of execution (so a
    /// parallel scheduler can know the op's cluster footprint in advance).
    planned: Option<OpKind>,
    ops_done: u64,
}

/// Password convention for synthetic users.
pub fn password_of(name: &str) -> String {
    format!("pw-{name}")
}

impl UserSession {
    /// Provisions the user in the system (account, volume, working set)
    /// and logs him in at `ws`. `system_files` are Vice paths of shared
    /// binaries he may read.
    pub fn provision(
        sys: &mut ItcSystem,
        cfg: UserConfig,
        ws: WsId,
        system_files: Vec<String>,
        sizes: &FileSizeModel,
        rng: &mut SimRng,
    ) -> Result<UserSession, SystemError> {
        let mut my_rng = rng.fork();
        sys.add_user(&cfg.name, &password_of(&cfg.name))?;
        sys.create_user_volume(&cfg.name, cfg.home_cluster)?;
        let home = format!("/vice/usr/{}", cfg.name);
        sys.admin_mkdir_p(&format!("{home}/src"))?;
        sys.admin_mkdir_p(&format!("{home}/doc"))?;

        let mut files = Vec::with_capacity(cfg.working_set);
        for i in 0..cfg.working_set {
            let class = if i % 3 == 0 {
                FileClass::Document
            } else {
                FileClass::Source
            };
            let dir = if class == FileClass::Document {
                "doc"
            } else {
                "src"
            };
            let ext = if class == FileClass::Document {
                "txt"
            } else {
                "c"
            };
            let path = format!("{home}/{dir}/f{i:03}.{ext}");
            let size = sizes.sample(class, &mut my_rng) as usize;
            sys.admin_install_file(&path, vec![b'a' + (i % 23) as u8; size])?;
            files.push((path, class));
        }
        sys.login(ws, &cfg.name, &password_of(&cfg.name))?;

        let mut session = UserSession {
            cfg,
            ws,
            rng: my_rng,
            files,
            system_files,
            next_at: SimTime::ZERO,
            planned: None,
            ops_done: 0,
        };
        session.next_at = SimTime::from_secs_f64(session.rng.exponential(5.0));
        Ok(session)
    }

    /// The shell's `cd $HOME` at login: one status check that warms the
    /// home-volume custodian hint. Without it, a shared-subtree read can
    /// cache a covering "/vice" hint first, and the next own-volume store
    /// would bounce off the shared custodian (NotCustodian) — correct, but
    /// a cluster the op's PDES mask must not touch. Only runs with
    /// per-cluster masks ([`run_day_drivers`]) need this; [`run_day`]
    /// declares all-cluster masks and is golden-pinned without it.
    ///
    /// [`run_day`]: crate::day::run_day
    /// [`run_day_drivers`]: crate::day::run_day_drivers
    pub fn warm_home_hint(&self, sys: &mut ItcSystem) -> Result<(), SystemError> {
        let _ = sys
            .ops()
            .stat(self.ws, &format!("/vice/usr/{}/src", self.cfg.name))?;
        Ok(())
    }

    /// The workstation this session runs at.
    pub fn workstation(&self) -> WsId {
        self.ws
    }

    /// The user name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// The cluster custodying the user's home volume.
    pub fn home_cluster(&self) -> u32 {
        self.cfg.home_cluster
    }

    /// Draws the next operation's kind ahead of execution (idempotent
    /// until that op runs). Draw order is unchanged relative to drawing at
    /// execution time: planning always happens right after the previous
    /// op's think-time draw, so the stream stays bit-identical.
    pub fn plan_next(&mut self) -> OpKind {
        if self.planned.is_none() {
            self.planned = Some(self.pick_op());
        }
        self.planned.expect("just planned")
    }

    /// The pre-drawn next operation, if [`UserSession::plan_next`] ran.
    pub fn planned_kind(&self) -> Option<OpKind> {
        self.planned
    }

    /// Operations performed so far.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Picks a working-set file with locality: geometric preference for
    /// low indices, with occasional jumps (the tail of the working set).
    fn pick_file(&mut self) -> (String, FileClass) {
        let idx = (self.rng.geometric(0.18) as usize).min(self.files.len() - 1);
        self.files[idx].clone()
    }

    fn pick_op(&mut self) -> OpKind {
        let c = &self.cfg;
        let x = self.rng.unit();
        if x < c.stat_fraction {
            OpKind::Stat
        } else if x < c.stat_fraction + c.list_fraction {
            OpKind::List
        } else if x < c.stat_fraction + c.list_fraction + c.system_read_fraction {
            OpKind::SystemRead
        } else if x < c.stat_fraction + c.list_fraction + c.system_read_fraction + c.temp_fraction {
            OpKind::Temp
        } else {
            // Open on a working-set file: write with the class's own
            // probability.
            OpKind::Read // refined below in execute()
        }
    }

    /// Executes one operation at `self.next_at` and schedules the next one
    /// `rate_multiplier` times faster than the configured base rate.
    /// Errors from permission or concurrency races are tolerated (real
    /// users retry); provisioning errors propagate. Generic over the call
    /// surface ([`itc_core::system::parallel::WsOps`] — `sys.ops()` over a
    /// whole [`ItcSystem`] — or a wrapper that observes each call).
    pub fn step<S: WsCalls>(
        &mut self,
        sys: &mut S,
        rate_multiplier: f64,
    ) -> Result<OpKind, SystemError> {
        sys.advance_ws(self.ws, self.next_at);
        let op = self.planned.take().unwrap_or_else(|| self.pick_op());
        let executed = match op {
            OpKind::Stat => {
                let (f, _) = self.pick_file();
                let _ = sys.stat(self.ws, &f)?;
                OpKind::Stat
            }
            OpKind::List => {
                let dir = format!("/vice/usr/{}/src", self.cfg.name);
                let _ = sys.readdir(self.ws, &dir)?;
                OpKind::List
            }
            OpKind::SystemRead => {
                if self.system_files.is_empty() {
                    OpKind::Temp // degrade gracefully
                } else {
                    let f = self.rng.choose(&self.system_files).clone();
                    let _ = sys.fetch(self.ws, &f)?;
                    OpKind::SystemRead
                }
            }
            OpKind::Temp => {
                // Compiler-style temporary: write, read, delete — all local.
                let name = format!("/tmp/t{}.tmp", self.rng.range(0, 1_000_000));
                let size = 2_048 + self.rng.range(0, 30_000) as usize;
                sys.store(self.ws, &name, vec![0u8; size])?;
                let _ = sys.fetch(self.ws, &name)?;
                sys.unlink(self.ws, &name)?;
                OpKind::Temp
            }
            OpKind::Read => {
                let (f, class) = self.pick_file();
                if self.rng.chance(class.write_fraction()) {
                    // Read-modify-write through open/close, as an editor
                    // save would do.
                    let h = sys.open_write(self.ws, &f)?;
                    let mut data = sys.read(self.ws, h)?;
                    let extra = self.rng.range(16, 2_048) as usize;
                    data.extend(std::iter::repeat_n(b'~', extra));
                    // Keep files from growing without bound over a day.
                    data.truncate(200_000);
                    sys.write(self.ws, h, data)?;
                    sys.close(self.ws, h)?;
                    OpKind::Write
                } else {
                    let _ = sys.fetch(self.ws, &f)?;
                    OpKind::Read
                }
            }
            OpKind::Write => unreachable!("pick_op never returns Write directly"),
        };
        self.ops_done += 1;
        let think = self
            .rng
            .exponential(self.cfg.mean_think_secs / rate_multiplier.max(0.01));
        self.next_at = sys.ws_time(self.ws) + SimTime::from_secs_f64(think);
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_core::SystemConfig;

    #[test]
    fn provision_and_run_some_ops() {
        let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
        sys.admin_install_file("/vice/unix/sun/bin/ed", vec![1; 20_000])
            .unwrap();
        let mut rng = SimRng::seeded(3);
        let sizes = FileSizeModel::cmu_1984();
        let mut session = UserSession::provision(
            &mut sys,
            UserConfig::typical("alice", 0),
            0,
            vec!["/vice/unix/sun/bin/ed".to_string()],
            &sizes,
            &mut rng,
        )
        .unwrap();
        for _ in 0..50 {
            session.step(&mut sys.ops(), 1.0).unwrap();
        }
        assert_eq!(session.ops_done(), 50);
        // The user really generated server traffic and cache activity.
        assert!(sys.metrics().total_calls() > 0);
        let cs = sys.venus(0).cache().stats();
        assert!(cs.hits + cs.misses > 0);
        // Virtual time advanced by roughly ops × think time.
        assert!(sys.ws_time(0) > SimTime::from_secs(60));
    }

    #[test]
    fn intense_user_runs_faster() {
        let t = UserConfig::typical("a", 0);
        let i = UserConfig::intense("b", 0);
        assert!(i.mean_think_secs < t.mean_think_secs / 5.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
            let mut rng = SimRng::seeded(11);
            let sizes = FileSizeModel::cmu_1984();
            let mut s = UserSession::provision(
                &mut sys,
                UserConfig::typical("bob", 0),
                0,
                vec![],
                &sizes,
                &mut rng,
            )
            .unwrap();
            for _ in 0..30 {
                s.step(&mut sys.ops(), 1.0).unwrap();
            }
            (sys.ws_time(0), sys.metrics().total_calls())
        };
        assert_eq!(run(), run());
    }
}
