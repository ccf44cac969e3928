//! The four workloads, their pinned sizes, and the fingerprint that says a
//! repetition simulated exactly what it should have.
//!
//! Every workload is a closed loop: each workstation issues its next
//! operation only when its previous one has completed (the PDES engine
//! keys drivers by their own local clock). One generator process, at most
//! `nproc` threads.

use crate::spans;
use itc_core::protect::{AccessList, Rights};
use itc_core::proto::{EntryKind, ServerId, VStatus};
use itc_core::system::parallel::{ClusterMask, RunMode, WsDriver, WsOps};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_core::SystemConfig;
use itc_sim::{FaultPlan, SimRng, SimTime};
use itc_workload::scenario::OpCounts;
use itc_workload::user::UserConfig;
use itc_workload::{
    run_day_drivers, DayConfig, FileClass, FileSizeModel, ScriptDriver, UserSession, WsCalls,
};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The seed the pinned fingerprints in `expected/` were blessed with.
pub const DEFAULT_SEED: u64 = 1985;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallStorm,
    BulkStorm,
    CampusDay,
    FaultDay,
}

/// Full size is what `BENCHMARK.json` measures; smoke size is the same
/// shape small enough for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn suffix(self) -> &'static str {
        match self {
            Scale::Full => "",
            Scale::Smoke => ".smoke",
        }
    }
}

/// A workload's pinned dimensions. Storms use `rounds`/`file_bytes`, days
/// use `day_mins`; the unused ones are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub clusters: u32,
    pub ws_per_cluster: u32,
    pub rounds: usize,
    pub file_bytes: usize,
    pub day_mins: u64,
}

impl Size {
    pub fn render(&self) -> String {
        format!(
            "{{\"clusters\": {}, \"ws_per_cluster\": {}, \"rounds\": {}, \"file_bytes\": {}, \"day_mins\": {}}}",
            self.clusters, self.ws_per_cluster, self.rounds, self.file_bytes, self.day_mins
        )
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallStorm,
        Workload::BulkStorm,
        Workload::CampusDay,
        Workload::FaultDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallStorm => "small_storm",
            Workload::BulkStorm => "bulk_storm",
            Workload::CampusDay => "campus_day",
            Workload::FaultDay => "fault_day",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_day(self) -> bool {
        matches!(self, Workload::CampusDay | Workload::FaultDay)
    }

    /// Why the workload exists — the sentence `BENCHMARK.json` records.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SmallStorm => "1 KiB store/fetch storm: per-call and per-event fixed cost (cryptbox, codec, rpc, calendar, transport glue) does all the work; per-byte layers do almost none",
            Workload::BulkStorm => "256 KiB store/fetch storm: per-byte work and the allocator (digest, volume copy, unixfs write, journal, Merkle leaf) do everything; per-call cost is noise",
            Workload::CampusDay => "200 workstations, 5 virtual hours of the paper's user model: 9 in 10 opens hit the Venus cache, so venus glue, the user model and the executor carry the run; reads beside the storms' writes",
            Workload::FaultDay => "200 workstations, 2 virtual hours under message drops, five crashes, 64 corruption flips, scrub and tracing: salvage beside append, verify beside update, timeout-cancel churn, full PDES masks",
        }
    }

    /// The pinned sizes. Never change the `Full` ones: every recorded
    /// number is comparable only at equal size.
    pub fn size(self, scale: Scale) -> Size {
        let storm = |rounds, file_bytes, ws_per_cluster| Size {
            clusters: 4,
            ws_per_cluster,
            rounds,
            file_bytes,
            day_mins: 0,
        };
        let day = |ws_per_cluster, day_mins| Size {
            clusters: 4,
            ws_per_cluster,
            rounds: 0,
            file_bytes: 0,
            day_mins,
        };
        match (self, scale) {
            (Workload::SmallStorm, Scale::Full) => storm(700, 1024, 10),
            (Workload::SmallStorm, Scale::Smoke) => storm(24, 1024, 4),
            (Workload::BulkStorm, Scale::Full) => storm(16, 256 * 1024, 10),
            (Workload::BulkStorm, Scale::Smoke) => storm(6, 32 * 1024, 4),
            (Workload::CampusDay, Scale::Full) => day(50, 300),
            (Workload::CampusDay, Scale::Smoke) => day(3, 30),
            (Workload::FaultDay, Scale::Full) => day(50, 120),
            (Workload::FaultDay, Scale::Smoke) => day(3, 20),
        }
    }
}

// ---------------------------------------------------------------------
// The traced call surface
// ---------------------------------------------------------------------

/// The workstation call surface with a `ws_call.<kind>` span around every
/// call that reaches the system. Time bookkeeping calls (`advance_ws`,
/// `ws_time`) pass straight through.
pub struct Traced<'a, 'b>(pub &'a mut WsOps<'b>);

macro_rules! traced {
    ($self:ident, $ws:ident, $name:literal, $call:expr) => {{
        let _span = spans::enter(concat!("ws_call.", $name), $ws as u32);
        $call
    }};
}

impl WsCalls for Traced<'_, '_> {
    fn advance_ws(&mut self, ws: WsId, to: SimTime) {
        self.0.advance_ws(ws, to);
    }
    fn ws_time(&mut self, ws: WsId) -> SimTime {
        self.0.ws_time(ws)
    }
    fn fetch(&mut self, ws: WsId, path: &str) -> Result<Vec<u8>, SystemError> {
        traced!(self, ws, "fetch", self.0.fetch(ws, path))
    }
    fn store(&mut self, ws: WsId, path: &str, data: Vec<u8>) -> Result<(), SystemError> {
        traced!(self, ws, "store", self.0.store(ws, path, data))
    }
    fn stat(&mut self, ws: WsId, path: &str) -> Result<VStatus, SystemError> {
        traced!(self, ws, "stat", self.0.stat(ws, path))
    }
    fn readdir(&mut self, ws: WsId, path: &str) -> Result<Vec<(String, EntryKind)>, SystemError> {
        traced!(self, ws, "readdir", self.0.readdir(ws, path))
    }
    fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        traced!(self, ws, "unlink", self.0.unlink(ws, path))
    }
    fn open_write(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        traced!(self, ws, "open_write", self.0.open_write(ws, path))
    }
    fn read(&mut self, ws: WsId, handle: u64) -> Result<Vec<u8>, SystemError> {
        traced!(self, ws, "read", self.0.read(ws, handle))
    }
    fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError> {
        traced!(self, ws, "write", self.0.write(ws, handle, data))
    }
    fn close(&mut self, ws: WsId, handle: u64) -> Result<(), SystemError> {
        traced!(self, ws, "close", self.0.close(ws, handle))
    }
}

/// The call kinds `Traced` names, in `BENCHMARK.json` order.
pub const WS_CALL_KINDS: [&str; 9] = [
    "fetch",
    "store",
    "stat",
    "readdir",
    "open_write",
    "read",
    "write",
    "close",
    "unlink",
];

/// Any driver with an `op` span around each step.
struct SpanDriver {
    ws: WsId,
    inner: Box<dyn WsDriver>,
}

impl WsDriver for SpanDriver {
    fn scope(&self) -> ClusterMask {
        self.inner.scope()
    }
    fn next_at(&self) -> Option<SimTime> {
        self.inner.next_at()
    }
    fn next_mask(&self) -> ClusterMask {
        self.inner.next_mask()
    }
    fn step(&mut self, ops: &mut WsOps<'_>) -> Result<(), SystemError> {
        let _span = spans::enter("op", self.ws as u32);
        self.inner.step(ops)
    }
}

// ---------------------------------------------------------------------
// The mirrored day driver
// ---------------------------------------------------------------------

/// `itc_workload::SessionDriver` rebuilt over the public session API so
/// the harness sees each step's result (and can wrap the call surface in
/// spans). It must stay step-for-step identical: the fingerprint of a
/// mirrored day equals that of `run_day_drivers`, and a test holds it to
/// that.
struct MirrorDriver {
    session: UserSession,
    end: SimTime,
    surge: (SimTime, SimTime),
    surge_multiplier: f64,
    home: ClusterMask,
    shared: ClusterMask,
    counts: Arc<Mutex<OpCounts>>,
    traced: bool,
}

impl WsDriver for MirrorDriver {
    fn scope(&self) -> ClusterMask {
        self.home.union(self.shared)
    }

    fn next_at(&self) -> Option<SimTime> {
        (self.session.next_at <= self.end).then_some(self.session.next_at)
    }

    fn next_mask(&self) -> ClusterMask {
        match self.session.planned_kind() {
            Some(itc_workload::user::OpKind::SystemRead) => self.shared,
            _ => self.home,
        }
    }

    fn step(&mut self, ops: &mut WsOps<'_>) -> Result<(), SystemError> {
        let t = self.session.next_at;
        let rate = if t >= self.surge.0 && t < self.surge.1 {
            self.surge_multiplier
        } else {
            1.0
        };
        let result = if self.traced {
            self.session.step(&mut Traced(ops), rate)
        } else {
            self.session.step(ops, rate)
        };
        self.session.plan_next();
        // Venus-level failures are tolerated (and counted); anything else
        // aborts the run, exactly as `SessionDriver` does.
        self.counts.lock().expect("counts lock").record(result)
    }
}

/// The provisioning prologue of `run_day_drivers`, call for call.
fn provision_day(sys: &mut ItcSystem, day: &DayConfig) -> Result<Vec<UserSession>, SystemError> {
    let mut rng = SimRng::seeded(day.seed);
    let sizes = FileSizeModel::cmu_1984();
    let mut system_files = Vec::new();
    for i in 0..day.system_binaries {
        let size = sizes.sample(FileClass::SystemBinary, &mut rng) as usize;
        for arch in ["sun", "vax"] {
            sys.admin_install_file(
                &format!("/vice/unix/{arch}/bin/prog{i:02}"),
                vec![0x7f; size],
            )?;
        }
        system_files.push(format!("/bin/prog{i:02}"));
    }
    if day.replicate_binaries {
        let sites: Vec<_> = (0..sys.server_count() as u32).map(ServerId).collect();
        sys.replicate_readonly("/vice", &sites)?;
    }
    let per_cluster = sys.config().workstations_per_cluster;
    let mut sessions = Vec::with_capacity(sys.workstation_count());
    for ws in 0..sys.workstation_count() {
        let name = format!("user{ws:03}");
        let cfg = if ws < day.intense_users {
            UserConfig::intense(&name, ws as u32 / per_cluster)
        } else {
            UserConfig::typical(&name, ws as u32 / per_cluster)
        };
        sessions.push(UserSession::provision(
            sys,
            cfg,
            ws,
            system_files.clone(),
            &sizes,
            &mut rng,
        )?);
    }
    Ok(sessions)
}

/// `run_day_drivers` with the mirrored driver; returns the op count and
/// the per-op outcome counts.
fn run_day_mirrored(
    sys: &mut ItcSystem,
    day: &DayConfig,
    mode: RunMode,
    traced: bool,
) -> Result<(u64, OpCounts), SystemError> {
    let sessions = provision_day(sys, day)?;
    for s in &sessions {
        s.warm_home_hint(sys)?;
    }
    let all = ClusterMask::all(sys.server_count());
    let serialized = sys.faults_couple_clusters();
    let counts = Arc::new(Mutex::new(OpCounts::default()));
    let drivers = sessions
        .into_iter()
        .map(|mut session| {
            let ws = session.workstation();
            let home = ClusterMask::of(session.home_cluster() as usize);
            let shared = if day.replicate_binaries {
                home
            } else {
                home.union(ClusterMask::of(0))
            };
            let (home, shared) = if serialized {
                (all, all)
            } else {
                (home, shared)
            };
            session.plan_next();
            let mirror = MirrorDriver {
                session,
                end: day.duration,
                surge: day.surge,
                surge_multiplier: day.surge_multiplier,
                home,
                shared,
                counts: Arc::clone(&counts),
                traced,
            };
            (ws, wrap(ws, Box::new(mirror), traced))
        })
        .collect();
    let ops = {
        let _root = spans::enter("run_drivers", u32::MAX);
        sys.run_drivers(drivers, mode)?
    };
    let counts = *counts.lock().expect("counts lock");
    Ok((ops, counts))
}

fn wrap(ws: WsId, driver: Box<dyn WsDriver>, traced: bool) -> Box<dyn WsDriver> {
    if traced {
        Box::new(SpanDriver { ws, inner: driver })
    } else {
        driver
    }
}

// ---------------------------------------------------------------------
// Set-up and execution
// ---------------------------------------------------------------------

/// How one repetition drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// The path a user of the simulator takes: `ScriptDriver` closures on
    /// the bare call surface, `run_day_drivers` for the days.
    Plain,
    /// The harness's mirrored day driver (storms are unchanged): sees
    /// each step's result, records no spans.
    Mirror,
    /// Mirrored and wrapped in `op` / `ws_call.*` spans. `Sequential` only.
    Traced,
}

/// A built, provisioned system with its workload ready to run.
pub struct Prepared {
    pub sys: ItcSystem,
    plan: Plan,
}

enum Plan {
    Storm {
        drivers: Vec<(WsId, Box<dyn WsDriver>)>,
        counts: Arc<Mutex<OpCounts>>,
    },
    Day {
        day: DayConfig,
        drive: Drive,
    },
}

/// What one repetition did.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds inside the driver run (for the days this includes the
    /// provisioning prologue, as `run_day_drivers` does).
    pub wall_s: f64,
    pub ops: u64,
    /// Per-op outcomes; `None` where the drive cannot see them (a plain
    /// day).
    pub counts: Option<OpCounts>,
    pub fingerprint: String,
}

/// The days' population seed: who the users are, how big their files are
/// and what each of them does next. It is part of the pinned size, not of
/// `--seed`: file sizes are heavy-tailed, so another population moves a
/// different number of bytes and is a different-sized workload.
pub const POPULATION_SEED: u64 = 1985;

/// The day: the population is pinned, and `seed` says when the midday
/// surge falls — the default day's 3h–4h window scaled to this day's
/// length, moved by up to a sixteenth of the day either way. (The seed
/// also drives the calendar's tie-breaks and the channel nonces through
/// `SystemConfig`, which a fault-free day never notices.)
fn day_config(size: &Size, seed: u64) -> DayConfig {
    let day_s = size.day_mins * 60;
    let shift_s = SimRng::seeded(seed).range(0, day_s / 8);
    let surge_start = SimTime::from_secs(day_s * 3 / 8 - day_s / 16 + shift_s);
    DayConfig {
        duration: SimTime::from_mins(size.day_mins),
        surge: (surge_start, surge_start + SimTime::from_secs(day_s / 8)),
        replicate_binaries: true,
        seed: POPULATION_SEED,
        ..DayConfig::default()
    }
}

/// `fault_day`'s plan over a day of length `d`: 2 % request drops, 2 %
/// reply drops, 1 % duplicate replies, 2 % × 200 ms delays; server `i`
/// crashes at `d × (7 + 12 i) / 48` (1h10, 3h10, 5h10, 7h10 of an
/// eight-hour day) and restarts `d / 96` (five minutes) later; 64
/// corruption flips spread evenly from the first restart to the end of
/// the day, round-robin over the servers that have restarted by then.
///
/// A flip therefore never sits in a journal that a salvage pass is still
/// to read — which would cut the log at the damaged record and take most
/// of that server's files with it, leaving a day of failing lookups — with
/// one exception: server 0 crashes a second time at `d × 15 / 16`, so the
/// salvager's reject path runs once, late, with a bounded loss.
///
/// The plan's own seed is pinned: `--seed` moves which messages its draws
/// land on (through the calendar's tie-breaks), not where the flips fall.
fn fault_plan(size: &Size) -> FaultPlan {
    let day_us = SimTime::from_mins(size.day_mins).as_micros();
    let at = |num: u64, den: u64| SimTime::from_micros(day_us * num / den);
    let mut plan = FaultPlan::new(0xfa17)
        .drop_request_prob(0.02)
        .drop_reply_prob(0.02)
        .duplicate_reply_prob(0.01)
        .delay(0.02, SimTime::from_millis(200));
    let restart_of = |server: u32| at(2 * (7 + 12 * u64::from(server)) + 1, 96);
    for server in 0..size.clusters {
        plan.schedule_crash(server, at(7 + 12 * u64::from(server), 48));
        plan.schedule_restart(server, restart_of(server));
    }
    plan.schedule_crash(0, at(15, 16));
    plan.schedule_restart(0, at(91, 96));
    let first = restart_of(0).as_micros();
    for flip in 1..=FLIPS {
        let when = SimTime::from_micros(first + (day_us - first) * flip / (FLIPS + 1));
        let restarted = (0..size.clusters).filter(|&s| restart_of(s) < when).count() as u64;
        plan.schedule_corruption(((flip - 1) % restarted) as u32, when);
    }
    plan
}

/// Corruption flips injected over a `fault_day`.
const FLIPS: u64 = 64;

/// Builds and provisions `workload` from `seed`. This is what `setup_s`
/// times for the storms; the days add their provisioning prologue (see
/// [`timed_setup`]).
pub fn setup(workload: Workload, scale: Scale, seed: u64, drive: Drive) -> Prepared {
    let size = workload.size(scale);
    // A faulted run amplifies whatever perturbs it: one message dropped
    // elsewhere lands a later flip on another file, another volume goes
    // offline, and the day's counts move by percents. So `fault_day` is
    // one pinned run, the same for every seed, like a recorded trace.
    let seed = if workload == Workload::FaultDay {
        DEFAULT_SEED
    } else {
        seed
    };
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::revised(size.clusters, size.ws_per_cluster)
    };
    let mut sys = ItcSystem::build(cfg);
    match workload {
        Workload::SmallStorm | Workload::BulkStorm => {
            let plan = storm_script(&mut sys, &size, seed, drive == Drive::Traced);
            Prepared { sys, plan }
        }
        Workload::CampusDay | Workload::FaultDay => {
            if workload == Workload::FaultDay {
                sys.install_faults(fault_plan(&size));
                sys.enable_scrub(SimTime::from_secs(60));
                sys.enable_tracing();
            }
            Prepared {
                sys,
                plan: Plan::Day {
                    day: day_config(&size, seed),
                    drive,
                },
            }
        }
    }
}

/// Provisions the storm and generates every workstation's script: each
/// round stores a file, then fetches a same-cluster neighbour's shared
/// file. Every fourth round the store overwrites the workstation's own
/// shared file, so its neighbours' callbacks break and their next fetch
/// of it is a real `Fetch`. All traffic stays inside the home cluster.
/// The seed picks each workstation's phase in both rotations and the
/// bytes it writes; the shape is the same for every seed.
fn storm_script(sys: &mut ItcSystem, size: &Size, seed: u64, traced: bool) -> Plan {
    let clusters = size.clusters as usize;
    let per = size.ws_per_cluster as usize;
    let bytes = size.file_bytes;
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
    for c in 0..clusters {
        sys.create_volume(
            &format!("storm.c{c}"),
            &format!("/vice/storm{c}"),
            ServerId(c as u32),
            acl.clone(),
        )
        .expect("volume");
        for w in 0..per {
            let ws = c * per + w;
            sys.admin_install_file(&format!("/vice/storm{c}/shared{ws}"), vec![0x33; bytes])
                .expect("install");
            sys.admin_mkdir_p(&format!("/vice/storm{c}/p{ws}"))
                .expect("mkdir");
        }
    }
    for ws in 0..clusters * per {
        let user = format!("s{ws:03}");
        sys.add_user(&user, "pw").expect("user");
        sys.login(ws, &user, "pw").expect("login");
    }

    let mut rng = SimRng::seeded(seed);
    let counts = Arc::new(Mutex::new(OpCounts::default()));
    let drivers = (0..clusters * per)
        .map(|ws| {
            let home = ws / per;
            let mask = ClusterMask::of(home);
            let neighbour_phase = rng.range(0, per as u64 - 1) as usize;
            let overwrite_phase = rng.range(0, 4) as usize;
            let fill = rng.range(0, 256) as usize;
            let mut d = ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(&counts));
            for r in 0..size.rounds {
                let own = if (r + overwrite_phase) % 4 == 3 {
                    format!("/vice/storm{home}/shared{ws}")
                } else {
                    format!("/vice/storm{home}/p{ws}/f{r}")
                };
                let byte = (ws + r + fill) as u8;
                d.push(mask, move |ops| {
                    let data = vec![byte; bytes];
                    if traced {
                        Traced(ops).store(ws, &own, data)
                    } else {
                        ops.store(ws, &own, data)
                    }
                });
                let neighbour = home * per + (ws + 1 + (r + neighbour_phase) % (per - 1)) % per;
                let path = format!("/vice/storm{home}/shared{neighbour}");
                d.push(mask, move |ops| {
                    let data = if traced {
                        Traced(ops).fetch(ws, &path)
                    } else {
                        ops.fetch(ws, &path)
                    }?;
                    if data.len() == bytes {
                        Ok(())
                    } else {
                        Err(SystemError::BadId(format!(
                            "{path}: fetched {} bytes, expected {bytes}",
                            data.len()
                        )))
                    }
                });
            }
            (ws, wrap(ws, Box::new(d), traced))
        })
        .collect();
    Plan::Storm { drivers, counts }
}

impl Prepared {
    /// Runs the workload to completion and fingerprints the result. The
    /// finished system comes back for its counters.
    pub fn run(self, mode: RunMode) -> Result<(Outcome, ItcSystem), SystemError> {
        let Prepared { mut sys, plan } = self;
        let t0 = Instant::now();
        let (ops, counts) = match plan {
            Plan::Storm { drivers, counts } => {
                let ops = {
                    let _root = spans::enter("run_drivers", u32::MAX);
                    sys.run_drivers(drivers, mode)?
                };
                let counts = *counts.lock().expect("counts lock");
                (ops, Some(counts))
            }
            Plan::Day {
                day,
                drive: Drive::Plain,
            } => (run_day_drivers(&mut sys, &day, mode)?.ops, None),
            Plan::Day { day, drive } => {
                let (ops, counts) = run_day_mirrored(&mut sys, &day, mode, drive == Drive::Traced)?;
                (ops, Some(counts))
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let outcome = Outcome {
            wall_s,
            ops,
            counts,
            fingerprint: fingerprint_jsonl(&sys, ops),
        };
        Ok((outcome, sys))
    }
}

/// Host seconds of one complete set-up: build, provisioning, logins and
/// script generation. For the days the provisioning prologue lives inside
/// `run_day_drivers`, so it is timed by running a zero-length day.
pub fn timed_setup(workload: Workload, scale: Scale, seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut prepared = setup(workload, scale, seed, Drive::Plain);
    if let Plan::Day { day, .. } = &mut prepared.plan {
        day.duration = SimTime::ZERO;
        run_day_drivers(&mut prepared.sys, day, RunMode::Sequential).expect("zero-length day");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(prepared);
    elapsed
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

/// One JSON line per simulated observable: the `pdes` determinism gate's
/// lines (clock, calls, rpc and calendar counters, per-server calls,
/// per-workstation clocks) extended with the cache hit ratio, injected
/// faults, corruption accounting and per-server journal counters. Only
/// virtual-time results appear, so the text is identical across schedules
/// and machines; any change to it means the simulator simulated something
/// else.
pub fn fingerprint_jsonl(sys: &ItcSystem, ops: u64) -> String {
    let mut out = String::new();
    let m = sys.metrics();
    let line = |out: &mut String, text: std::fmt::Arguments<'_>| {
        out.write_fmt(text).expect("write to string");
        out.push('\n');
    };
    line(
        &mut out,
        format_args!(
            "{{\"kind\":\"run\",\"ops\":{ops},\"clock_us\":{},\"calls\":{}}}",
            sys.now().as_micros(),
            m.total_calls()
        ),
    );
    let cs = sys.call_stats();
    line(
        &mut out,
        format_args!(
            "{{\"kind\":\"rpc\",\"attempts\":{},\"retries\":{},\"timeouts\":{},\"duplicates_ignored\":{},\"failures\":{}}}",
            cs.attempts, cs.retries, cs.timeouts, cs.duplicates_ignored, cs.failures
        ),
    );
    let es = sys.event_stats();
    line(
        &mut out,
        format_args!(
            "{{\"kind\":\"events\",\"scheduled\":{},\"executed\":{},\"cancelled\":{},\"high_water\":{}}}",
            es.scheduled, es.executed, es.cancelled, es.high_water
        ),
    );
    line(
        &mut out,
        format_args!(
            "{{\"kind\":\"cache\",\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\"hit_ratio\":{:.6}}}",
            m.cache.hits,
            m.cache.misses,
            m.cache.evictions,
            m.cache.invalidations,
            m.hit_ratio()
        ),
    );
    let fs = sys.fault_stats();
    line(
        &mut out,
        format_args!(
            "{{\"kind\":\"faults\",\"requests_dropped\":{},\"replies_dropped\":{},\"replies_duplicated\":{},\"delays_injected\":{},\"corruptions_injected\":{}}}",
            fs.requests_dropped,
            fs.replies_dropped,
            fs.replies_duplicated,
            fs.delays_injected,
            fs.corruptions_injected
        ),
    );
    let ic = sys.integrity_counters();
    line(
        &mut out,
        format_args!(
            "{{\"kind\":\"integrity\",\"injected\":{},\"latent\":{},\"repaired\":{},\"offlined\":{},\"rejected_at_salvage\":{},\"caught_at_fetch\":{}}}",
            ic.injected, ic.latent, ic.repaired, ic.offlined, ic.rejected_at_salvage, ic.caught_at_fetch
        ),
    );
    for s in 0..sys.server_count() {
        let id = ServerId(s as u32);
        let js = sys.server_journal_stats(id);
        line(
            &mut out,
            format_args!(
                "{{\"kind\":\"server\",\"id\":{s},\"calls\":{},\"journal_records\":{},\"journal_len\":{},\"journal_synced\":{},\"journal_syncs\":{},\"torn_discarded\":{},\"records_discarded\":{}}}",
                sys.server(id).stats().total_calls(),
                js.records,
                js.total_len,
                js.synced_len,
                js.syncs,
                js.torn_discarded,
                js.records_discarded
            ),
        );
    }
    for ws in 0..sys.workstation_count() {
        line(
            &mut out,
            format_args!(
                "{{\"kind\":\"ws\",\"id\":{ws},\"clock_us\":{}}}",
                sys.ws_time(ws).as_micros()
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: Workload, seed: u64, drive: Drive, mode: RunMode) -> String {
        let (outcome, _) = setup(workload, Scale::Smoke, seed, drive)
            .run(mode)
            .expect("smoke repetition runs");
        outcome.fingerprint
    }

    #[test]
    fn the_mirrored_day_driver_is_run_day_drivers() {
        for day in [Workload::CampusDay, Workload::FaultDay] {
            let plain = fingerprint(day, DEFAULT_SEED, Drive::Plain, RunMode::Sequential);
            let mirror = fingerprint(day, DEFAULT_SEED, Drive::Mirror, RunMode::Sequential);
            assert_eq!(plain, mirror, "{}: mirrored drive diverged", day.name());
            // The smoke day is long enough to mean something.
            assert!(plain
                .lines()
                .next()
                .is_some_and(|l| !l.contains("\"ops\":0,")));
        }
    }

    #[test]
    fn spans_do_not_move_the_simulation() {
        for workload in Workload::ALL {
            let plain = fingerprint(workload, DEFAULT_SEED, Drive::Plain, RunMode::Sequential);
            spans::start_recording();
            let traced = fingerprint(workload, DEFAULT_SEED, Drive::Traced, RunMode::Sequential);
            let recorded = spans::finish_recording();
            assert_eq!(plain, traced, "{}: traced drive diverged", workload.name());
            let ops = recorded.iter().filter(|s| s.name == "op").count();
            let calls = recorded
                .iter()
                .filter(|s| s.name.starts_with("ws_call."))
                .count();
            assert!(
                ops > 0 && calls >= ops / 2,
                "{}: {ops} ops, {calls} calls",
                workload.name()
            );
            assert_eq!(recorded[0].name, "run_drivers");
            assert!(recorded[1..].iter().all(|s| s.parent.is_some()));
        }
    }

    #[test]
    fn another_seed_is_another_run_with_the_same_parallel_answer() {
        for workload in Workload::ALL {
            let threads = 2;
            let default = fingerprint(workload, DEFAULT_SEED, Drive::Plain, RunMode::Sequential);
            let other = fingerprint(workload, 7, Drive::Plain, RunMode::Sequential);
            // `fault_day` is the one pinned run whatever the seed.
            assert_eq!(
                default == other,
                workload == Workload::FaultDay,
                "{}: what the seed changes is not what it should",
                workload.name()
            );
            assert_eq!(
                other,
                fingerprint(workload, 7, Drive::Plain, RunMode::Parallel(threads)),
                "{}: Sequential and Parallel({threads}) disagree at seed 7",
                workload.name()
            );
            assert_eq!(
                other,
                fingerprint(workload, 7, Drive::Plain, RunMode::Sequential),
                "{}: the same seed gave different inputs",
                workload.name()
            );
        }
    }

    #[test]
    fn fault_day_exercises_what_it_is_for() {
        let (_, sys) = setup(Workload::FaultDay, Scale::Smoke, DEFAULT_SEED, Drive::Plain)
            .run(RunMode::Sequential)
            .expect("smoke fault day runs");
        let salvages: usize = (0..sys.server_count())
            .map(|s| sys.server_salvage_reports(ServerId(s as u32)).len())
            .sum();
        assert!(salvages > 0, "no salvage pass ran");
        assert!(
            sys.server_scrub_stats(ServerId(0)).passes > 0,
            "no scrub pass ran"
        );
        assert_eq!(sys.integrity_counters().injected, FLIPS);
        assert!(sys.call_stats().retries > 0, "no call was retried");
        assert!(sys.tracing_enabled());
    }
}
