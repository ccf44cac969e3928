//! Adapters that run workload sessions under the conservative-PDES
//! engine (`itc_core::system::parallel`).
//!
//! Two layers live here:
//!
//! * [`WsCalls`] — the calls a session makes, as a trait over [`WsOps`],
//!   so a caller can interpose on them: [`crate::user::UserSession::step`]
//!   is generic over it, and the benchmark wraps `WsOps` to time each
//!   call.
//! * [`SessionDriver`] / [`ScriptDriver`] — [`WsDriver`] implementations
//!   wrapping a synthetic user session (the day workload) and a scripted
//!   operation queue (the storm scenarios). Each declares the cluster
//!   footprint of its next op ahead of execution; the engine's admission
//!   rule turns those declarations into a parallel schedule that is
//!   bit-identical to the sequential reference.
//!
//! Mask discipline (see `DESIGN.md` §13): an op that only touches the
//! workstation's own home volume and local files declares its home
//! cluster; reads of shared system subtrees add the custodian's cluster
//! (cluster 0 unless read-only replicas make the nearest replica local);
//! once a fault plan is installed, every op widens to all clusters so
//! scheduled crash/restart/salvage events interleave exactly as in the
//! sequential run.

use crate::day::DayConfig;
use crate::scenario::{OpCounts, SharedCounts};
use crate::user::{OpKind, UserSession};
use itc_core::proto::{EntryKind, VStatus};
use itc_core::system::parallel::{ClusterMask, WsDriver, WsOps};
use itc_core::system::{SystemError, WsId};
use itc_sim::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The workstation system-call surface a workload op executes against.
/// Implemented by [`WsOps`] — a whole-system one is `sys.ops()`.
pub trait WsCalls {
    /// Advances a workstation's local time (think time).
    fn advance_ws(&mut self, ws: WsId, to: SimTime);
    /// A workstation's local virtual time.
    fn ws_time(&mut self, ws: WsId) -> SimTime;
    /// Whole-file read.
    fn fetch(&mut self, ws: WsId, path: &str) -> Result<Vec<u8>, SystemError>;
    /// Whole-file write.
    fn store(&mut self, ws: WsId, path: &str, data: Vec<u8>) -> Result<(), SystemError>;
    /// `stat(2)`.
    fn stat(&mut self, ws: WsId, path: &str) -> Result<VStatus, SystemError>;
    /// Directory listing.
    fn readdir(&mut self, ws: WsId, path: &str) -> Result<Vec<(String, EntryKind)>, SystemError>;
    /// Removes a file or symlink.
    fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError>;
    /// Opens (creating) a file for writing.
    fn open_write(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError>;
    /// Reads through a handle.
    fn read(&mut self, ws: WsId, handle: u64) -> Result<Vec<u8>, SystemError>;
    /// Writes through a handle.
    fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError>;
    /// Closes a handle, storing back to Vice if modified.
    fn close(&mut self, ws: WsId, handle: u64) -> Result<(), SystemError>;
}

impl WsCalls for WsOps<'_> {
    fn advance_ws(&mut self, ws: WsId, to: SimTime) {
        WsOps::advance_ws(self, ws, to);
    }
    fn ws_time(&mut self, ws: WsId) -> SimTime {
        WsOps::ws_time(self, ws)
    }
    fn fetch(&mut self, ws: WsId, path: &str) -> Result<Vec<u8>, SystemError> {
        WsOps::fetch(self, ws, path)
    }
    fn store(&mut self, ws: WsId, path: &str, data: Vec<u8>) -> Result<(), SystemError> {
        WsOps::store(self, ws, path, data)
    }
    fn stat(&mut self, ws: WsId, path: &str) -> Result<VStatus, SystemError> {
        WsOps::stat(self, ws, path)
    }
    fn readdir(&mut self, ws: WsId, path: &str) -> Result<Vec<(String, EntryKind)>, SystemError> {
        WsOps::readdir(self, ws, path)
    }
    fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        WsOps::unlink(self, ws, path)
    }
    fn open_write(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        WsOps::open_write(self, ws, path)
    }
    fn read(&mut self, ws: WsId, handle: u64) -> Result<Vec<u8>, SystemError> {
        WsOps::read(self, ws, handle)
    }
    fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError> {
        WsOps::write(self, ws, handle, data)
    }
    fn close(&mut self, ws: WsId, handle: u64) -> Result<(), SystemError> {
        WsOps::close(self, ws, handle)
    }
}

/// A [`UserSession`] as a schedulable driver: one op per
/// [`UserSession::next_at`] tick until the day ends, with the day's surge
/// window applied. Venus-level failures (benign races such as lock
/// conflicts) are tolerated and still count as ops; structural failures
/// abort the run.
pub struct SessionDriver {
    session: UserSession,
    end: SimTime,
    surge: (SimTime, SimTime),
    surge_multiplier: f64,
    /// Footprint of home-volume and local ops.
    home: ClusterMask,
    /// Footprint of shared-subtree reads (adds the shared custodian).
    shared: ClusterMask,
}

impl SessionDriver {
    /// Wraps a provisioned session. `home` is the mask of ops confined to
    /// the user's own cluster; `shared` the (super)mask for shared-subtree
    /// reads. Pass `ClusterMask::all(..)` for both to serialize (required
    /// once fault plans are installed).
    pub fn new(
        mut session: UserSession,
        day: &DayConfig,
        home: ClusterMask,
        shared: ClusterMask,
    ) -> SessionDriver {
        session.plan_next();
        SessionDriver {
            session,
            end: day.duration,
            surge: day.surge,
            surge_multiplier: day.surge_multiplier,
            home,
            shared,
        }
    }

    /// The wrapped session's workstation.
    pub fn workstation(&self) -> WsId {
        self.session.workstation()
    }
}

impl WsDriver for SessionDriver {
    fn scope(&self) -> ClusterMask {
        self.home.union(self.shared)
    }

    fn next_at(&self) -> Option<SimTime> {
        (self.session.next_at <= self.end).then_some(self.session.next_at)
    }

    fn next_mask(&self) -> ClusterMask {
        match self.session.planned_kind() {
            Some(OpKind::SystemRead) => self.shared,
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
        let result = self.session.step(ops, rate);
        // Failed ops leave `next_at` unchanged and the think-time draw
        // unconsumed; re-planning immediately redraws a fresh op at the
        // same instant (real users retry).
        self.session.plan_next();
        match result {
            Ok(_) | Err(SystemError::Venus(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// One scripted operation: a closure over the masked op surface.
pub type ScriptOp = Box<dyn FnMut(&mut WsOps<'_>) -> Result<(), SystemError> + Send>;

/// A scripted per-workstation operation queue as a driver, keyed by the
/// workstation's local clock, so `run_drivers` gives the storm scenarios
/// their interleaving rule: earliest clock next, ties to the lowest
/// workstation. Operation outcomes fold into a shared [`OpCounts`]; the
/// fold is commutative, so the parallel schedule reaches the same totals.
pub struct ScriptDriver {
    ws: WsId,
    ops: VecDeque<(ClusterMask, ScriptOp)>,
    next_at: SimTime,
    scope: ClusterMask,
    counts: SharedCounts,
}

impl ScriptDriver {
    /// An empty script for `ws` whose first op is due at `start` (the
    /// workstation's clock at build time).
    pub fn new(ws: WsId, start: SimTime, counts: Arc<Mutex<OpCounts>>) -> ScriptDriver {
        ScriptDriver {
            ws,
            ops: VecDeque::new(),
            next_at: start,
            scope: ClusterMask::EMPTY,
            counts,
        }
    }

    /// Appends an op with its declared cluster footprint.
    pub fn push(
        &mut self,
        mask: ClusterMask,
        op: impl FnMut(&mut WsOps<'_>) -> Result<(), SystemError> + Send + 'static,
    ) {
        self.scope = self.scope.union(mask);
        self.ops.push_back((mask, Box::new(op)));
    }
}

impl WsDriver for ScriptDriver {
    fn scope(&self) -> ClusterMask {
        self.scope
    }

    fn next_at(&self) -> Option<SimTime> {
        (!self.ops.is_empty()).then_some(self.next_at)
    }

    fn next_mask(&self) -> ClusterMask {
        self.ops
            .front()
            .map(|(m, _)| *m)
            .unwrap_or(ClusterMask::EMPTY)
    }

    fn step(&mut self, ops: &mut WsOps<'_>) -> Result<(), SystemError> {
        let (_, mut op) = self.ops.pop_front().expect("stepped with ops queued");
        let r = op(ops);
        self.counts.lock().expect("counts lock").record(r)?;
        self.next_at = ops.ws_time(self.ws);
        Ok(())
    }
}
