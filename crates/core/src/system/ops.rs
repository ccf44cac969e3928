//! The workstation-facing calls that are not the system-call surface
//! (that is [`WsOps`], reached through [`ItcSystem::ops`]): sessions,
//! workstation crashes, and the surrogate service for low-function
//! workstations (Section 3.3).

use crate::proto::{EntryKind, VStatus};
use crate::surrogate::{PcId, Surrogate};
use crate::system::parallel::WsOps;
use crate::system::{ItcSystem, SystemError, WsId};
use crate::venus::{Space, VenusError};

impl ItcSystem {
    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// [`WsOps::login`] over the whole system, kept because `benchmark/` calls it.
    pub fn login(&mut self, ws: WsId, user: &str, password: &str) -> Result<(), SystemError> {
        self.ops().login(ws, user, password)
    }

    /// Ends the session at a workstation, flushing any deferred writes
    /// first (an orderly logout must not strand the user's edits). The
    /// cache stays — it belongs to the machine.
    pub fn logout(&mut self, ws: WsId) {
        if self.venus(ws).dirty_count() > 0 {
            // Best effort: a failure here (e.g. quota) leaves the entries
            // dirty, exactly as a real Venus would.
            let _ = self.ops().flush_all(ws);
        }
        self.venus_mut(ws).clear_session();
        self.ops().drop_bindings(ws);
    }

    /// Classifies a path at a workstation without performing any I/O
    /// (exposes the Figure 3-2 name-space logic for examples/tests).
    pub fn classify(&self, ws: WsId, path: &str) -> Result<Space, SystemError> {
        self.venus(ws)
            .namespace()
            .classify(path, true)
            .map_err(|e| SystemError::Venus(VenusError::Local(e)))
    }

    /// Crashes a workstation: unflushed deferred writes are lost and the
    /// cache is wiped. Returns the number of lost updates. (Under
    /// store-on-close this is always zero — the paper's point.)
    pub fn crash_workstation(&mut self, ws: WsId) -> usize {
        self.ops().drop_bindings(ws);
        let lost = self.venus_mut(ws).crash();
        self.venus_mut(ws).clear_session();
        lost
    }

    // ------------------------------------------------------------------
    // Surrogate service for low-function workstations (Section 3.3)
    // ------------------------------------------------------------------

    /// Enables the surrogate server on a host workstation. The host must
    /// be logged in; it authenticates to Vice on the PCs' behalf.
    pub fn enable_surrogate(&mut self, host: WsId) -> Result<(), SystemError> {
        if self.venus(host).current_user().is_none() {
            return Err(SystemError::BadId(format!(
                "workstation {host} has no session to lend to PCs"
            )));
        }
        self.surrogates.entry(host).or_default();
        Ok(())
    }

    /// Attaches a PC to a host's surrogate; returns its id.
    pub fn attach_pc(&mut self, host: WsId) -> Result<PcId, SystemError> {
        self.surrogates
            .get_mut(&host)
            .map(Surrogate::attach_pc)
            .ok_or_else(|| SystemError::BadId(format!("no surrogate on workstation {host}")))
    }

    /// The surrogate state of a host (for metrics/tests).
    pub fn surrogate(&self, host: WsId) -> Option<&Surrogate> {
        self.surrogates.get(&host)
    }

    /// Runs one PC request through the surrogate: cheap-LAN hop in, a
    /// service charge on the host, the host's own Venus (so all PCs share
    /// the host's cache), and the cheap-LAN hop back.
    fn pc_call<R>(
        &mut self,
        host: WsId,
        pc: PcId,
        request_bytes: u64,
        op: impl FnOnce(&mut WsOps<'_>) -> Result<R, SystemError>,
        reply_bytes: impl FnOnce(&R) -> u64,
    ) -> Result<R, SystemError> {
        let costs = self.config.costs.clone();
        let sur = self
            .surrogates
            .get(&host)
            .ok_or_else(|| SystemError::BadId(format!("no surrogate on workstation {host}")))?;
        let t_pc = sur
            .pc_time(pc)
            .ok_or_else(|| SystemError::BadId(format!("unknown pc {}", pc.0)))?;

        // Request crosses the cheap LAN and queues behind the host's
        // current work.
        let arrival =
            t_pc.max(self.ws_time(host)) + costs.pc_net_latency + costs.pc_transfer(request_bytes);
        let mut ops = self.ops();
        ops.advance_ws(host, arrival + costs.surrogate_cpu_per_call);

        let result = op(&mut ops)?;
        let out = reply_bytes(&result);
        let done = ops.ws_time(host) + costs.pc_net_latency + costs.pc_transfer(out);
        self.surrogates
            .get_mut(&host)
            .expect("checked above")
            .record(pc, request_bytes, out, done)
            .map_err(SystemError::BadId)?;
        Ok(result)
    }

    /// PC whole-file read through the surrogate.
    pub fn pc_fetch(&mut self, host: WsId, pc: PcId, path: &str) -> Result<Vec<u8>, SystemError> {
        self.pc_call(
            host,
            pc,
            128,
            |ops| ops.fetch(host, path),
            |d| d.len() as u64,
        )
    }

    /// PC whole-file write through the surrogate.
    pub fn pc_store(
        &mut self,
        host: WsId,
        pc: PcId,
        path: &str,
        data: Vec<u8>,
    ) -> Result<(), SystemError> {
        let len = data.len() as u64;
        self.pc_call(
            host,
            pc,
            128 + len,
            |ops| ops.store(host, path, data),
            |_| 64,
        )
    }

    /// PC stat through the surrogate.
    pub fn pc_stat(&mut self, host: WsId, pc: PcId, path: &str) -> Result<VStatus, SystemError> {
        self.pc_call(host, pc, 128, |ops| ops.stat(host, path), |_| 128)
    }

    /// PC directory listing through the surrogate.
    pub fn pc_readdir(
        &mut self,
        host: WsId,
        pc: PcId,
        path: &str,
    ) -> Result<Vec<(String, EntryKind)>, SystemError> {
        self.pc_call(
            host,
            pc,
            128,
            |ops| ops.readdir(host, path),
            |l| 32 * l.len() as u64 + 16,
        )
    }
}
