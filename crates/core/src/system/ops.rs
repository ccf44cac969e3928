//! The workstation-facing operation surface: sessions, the system-call
//! layer (open/read/write/close and friends), write-back control, and the
//! surrogate service for low-function workstations (Section 3.3).

use crate::protect::AccessList;
use crate::proto::{EntryKind, VStatus};
use crate::surrogate::{PcId, Surrogate};
use crate::system::{ItcSystem, SystemError, WsId};
use crate::venus::{Space, VenusError};

impl ItcSystem {
    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Logs `user` in at workstation `ws`: derives the key from the
    /// password exactly as the real Venus would and verifies it against
    /// Vice by establishing the first authenticated binding. A wrong
    /// password fails here, during the mutual handshake.
    pub fn login(&mut self, ws: WsId, user: &str, password: &str) -> Result<(), SystemError> {
        self.whole().login(ws, user, password)
    }

    /// Ends the session at a workstation, flushing any deferred writes
    /// first (an orderly logout must not strand the user's edits). The
    /// cache stays — it belongs to the machine.
    pub fn logout(&mut self, ws: WsId) {
        if self.clients[ws].dirty_count() > 0 {
            // Best effort: a failure here (e.g. quota) leaves the entries
            // dirty, exactly as a real Venus would.
            let _ = self.whole().flush_all(ws);
        }
        let node = self.topo.ws_nodes[ws];
        self.clients[ws].clear_session();
        // Bindings are per-user connections: drop them. They live on the
        // workstation's own cluster.
        let cc = self.topo.network.cluster_of(node).0 as usize;
        self.core.clusters[cc]
            .bindings
            .retain(|(n, _), _| *n != node);
    }

    // ------------------------------------------------------------------
    // File operations (the workstation system-call surface)
    // ------------------------------------------------------------------

    /// Opens a file for reading; returns a handle.
    pub fn open_read(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        self.whole().open_read(ws, path)
    }

    /// Opens (creating) a file for writing; returns a handle.
    pub fn open_write(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        self.whole().open_write(ws, path)
    }

    /// Reads through a handle (no server traffic).
    pub fn read(&mut self, ws: WsId, handle: u64) -> Result<Vec<u8>, SystemError> {
        self.whole().read(ws, handle)
    }

    /// Writes through a handle (no server traffic until close).
    pub fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError> {
        self.whole().write(ws, handle, data)
    }

    /// Closes a handle, storing back to Vice if it was modified.
    pub fn close(&mut self, ws: WsId, handle: u64) -> Result<(), SystemError> {
        self.whole().close(ws, handle)
    }

    /// Whole-file read convenience.
    pub fn fetch(&mut self, ws: WsId, path: &str) -> Result<Vec<u8>, SystemError> {
        self.whole().fetch(ws, path)
    }

    /// Whole-file write convenience.
    pub fn store(&mut self, ws: WsId, path: &str, data: Vec<u8>) -> Result<(), SystemError> {
        self.whole().store(ws, path, data)
    }

    /// `stat(2)`.
    pub fn stat(&mut self, ws: WsId, path: &str) -> Result<VStatus, SystemError> {
        self.whole().stat(ws, path)
    }

    /// Directory listing.
    pub fn readdir(
        &mut self,
        ws: WsId,
        path: &str,
    ) -> Result<Vec<(String, EntryKind)>, SystemError> {
        self.whole().readdir(ws, path)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.whole().mkdir(ws, path)
    }

    /// Creates a directory and any missing ancestors (client-driven: one
    /// MakeDir per missing level).
    pub fn mkdir_p(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        use crate::proto::ViceError;
        let comps: Vec<String> = path
            .split('/')
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect();
        let mut prefix = String::new();
        for comp in comps {
            prefix.push('/');
            prefix.push_str(&comp);
            if prefix == "/vice" {
                continue;
            }
            match self.mkdir(ws, &prefix) {
                Ok(()) | Err(SystemError::Venus(VenusError::Vice(ViceError::AlreadyExists(_)))) => {
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.whole().unlink(ws, path)
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.whole().with_venus(ws, |v, t| v.rmdir(t, path))
    }

    /// Renames within one space.
    pub fn rename(&mut self, ws: WsId, from: &str, to: &str) -> Result<(), SystemError> {
        self.whole().with_venus(ws, |v, t| v.rename(t, from, to))
    }

    /// Creates a symbolic link.
    pub fn symlink(&mut self, ws: WsId, path: &str, target: &str) -> Result<(), SystemError> {
        self.whole()
            .with_venus(ws, |v, t| v.symlink(t, path, target))
    }

    /// Reads a directory's access list.
    pub fn get_acl(&mut self, ws: WsId, path: &str) -> Result<AccessList, SystemError> {
        self.whole().with_venus(ws, |v, t| v.get_acl(t, path))
    }

    /// Replaces a directory's access list (requires ADMINISTER rights).
    pub fn set_acl(&mut self, ws: WsId, path: &str, acl: AccessList) -> Result<(), SystemError> {
        self.whole().with_venus(ws, |v, t| v.set_acl(t, path, acl))
    }

    /// Acquires an advisory lock.
    pub fn lock(&mut self, ws: WsId, path: &str, exclusive: bool) -> Result<(), SystemError> {
        self.whole()
            .with_venus(ws, |v, t| v.lock(t, path, exclusive))
    }

    /// Releases an advisory lock.
    pub fn unlock(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.whole().with_venus(ws, |v, t| v.unlock(t, path))
    }

    /// Classifies a path at a workstation without performing any I/O
    /// (exposes the Figure 3-2 name-space logic for examples/tests).
    pub fn classify(&self, ws: WsId, path: &str) -> Result<Space, SystemError> {
        self.clients[ws]
            .namespace()
            .classify(path, true)
            .map_err(|e| SystemError::Venus(VenusError::Local(e)))
    }

    // ------------------------------------------------------------------
    // Write-back policy (E16)
    // ------------------------------------------------------------------

    /// Flushes all deferred writes at a workstation immediately.
    pub fn flush_workstation(&mut self, ws: WsId) -> Result<usize, SystemError> {
        self.whole().flush_all(ws)
    }

    /// Crashes a workstation: unflushed deferred writes are lost and the
    /// cache is wiped. Returns the number of lost updates. (Under
    /// store-on-close this is always zero — the paper's point.)
    pub fn crash_workstation(&mut self, ws: WsId) -> usize {
        let node = self.topo.ws_nodes[ws];
        let cc = self.topo.network.cluster_of(node).0 as usize;
        self.core.clusters[cc]
            .bindings
            .retain(|(n, _), _| *n != node);
        let lost = self.clients[ws].crash();
        self.clients[ws].clear_session();
        lost
    }

    /// Dirty (unflushed) files at a workstation.
    pub fn dirty_count(&self, ws: WsId) -> usize {
        self.clients[ws].dirty_count()
    }

    // ------------------------------------------------------------------
    // Surrogate service for low-function workstations (Section 3.3)
    // ------------------------------------------------------------------

    /// Enables the surrogate server on a host workstation. The host must
    /// be logged in; it authenticates to Vice on the PCs' behalf.
    pub fn enable_surrogate(&mut self, host: WsId) -> Result<(), SystemError> {
        if self.clients[host].current_user().is_none() {
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
        op: impl FnOnce(&mut ItcSystem) -> Result<R, SystemError>,
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
        self.advance_ws(host, arrival + costs.surrogate_cpu_per_call);

        let result = op(self)?;
        let out = reply_bytes(&result);
        let done = self.ws_time(host) + costs.pc_net_latency + costs.pc_transfer(out);
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
            |sys| sys.fetch(host, path),
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
            |sys| sys.store(host, path, data),
            |_| 64,
        )
    }

    /// PC stat through the surrogate.
    pub fn pc_stat(&mut self, host: WsId, pc: PcId, path: &str) -> Result<VStatus, SystemError> {
        self.pc_call(host, pc, 128, |sys| sys.stat(host, path), |_| 128)
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
            |sys| sys.readdir(host, path),
            |l| 32 * l.len() as u64 + 16,
        )
    }
}
