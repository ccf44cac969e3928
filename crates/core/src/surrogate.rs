//! The surrogate server for low-function workstations.
//!
//! Section 3.3: "An approach we are exploring is to provide a Surrogate
//! Server running on a Virtue workstation. This surrogate would behave as
//! a single-site network file server for the Virtue file system. Clients
//! of this server would then be transparently accessing Vice files on
//! account of a Virtue workstation's transparent Vice attachment. ...
//! Work is currently in progress to build such a surrogate server for IBM
//! PCs."
//!
//! The surrogate is a thin per-PC session multiplexer in front of the host
//! workstation's Venus: every PC request crosses a cheap attachment LAN,
//! pays a small service charge on the host, and is then served exactly as
//! a local application's request would be — so all PCs behind one host
//! share that host's whole-file cache.
//!
//! Trust model, as in the paper: the PCs trust the surrogate host (they
//! have no encryption hardware and no Venus); the surrogate authenticates
//! to Vice as a real user over the standard secure binding. The exposure
//! is confined to the cheap LAN segment.

use itc_sim::SimTime;

/// Identifies a PC attached to a surrogate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcId(pub u32);

/// Per-PC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Requests served.
    pub requests: u64,
    /// Bytes delivered to the PC.
    pub bytes_out: u64,
    /// Bytes received from the PC.
    pub bytes_in: u64,
}

/// The surrogate attachment state for one host workstation.
#[derive(Debug, Default)]
pub struct Surrogate {
    pcs: Vec<(PcId, PcStats, SimTime)>,
    next_pc: u32,
}

impl Surrogate {
    /// Creates an empty surrogate (no PCs attached yet).
    pub fn new() -> Surrogate {
        Surrogate::default()
    }

    /// Attaches a new PC; returns its id.
    pub fn attach_pc(&mut self) -> PcId {
        let id = PcId(self.next_pc);
        self.next_pc += 1;
        self.pcs.push((id, PcStats::default(), SimTime::ZERO));
        id
    }

    /// A PC's statistics.
    pub fn stats_of(&self, pc: PcId) -> Option<PcStats> {
        self.pcs
            .iter()
            .find(|(id, _, _)| *id == pc)
            .map(|(_, s, _)| *s)
    }

    /// A PC's local virtual time.
    pub fn pc_time(&self, pc: PcId) -> Option<SimTime> {
        self.pcs
            .iter()
            .find(|(id, _, _)| *id == pc)
            .map(|(_, _, t)| *t)
    }

    pub(crate) fn record(
        &mut self,
        pc: PcId,
        bytes_in: u64,
        bytes_out: u64,
        completed: SimTime,
    ) -> Result<(), String> {
        let entry = self
            .pcs
            .iter_mut()
            .find(|(id, _, _)| *id == pc)
            .ok_or_else(|| format!("unknown pc {}", pc.0))?;
        entry.1.requests += 1;
        entry.1.bytes_in += bytes_in;
        entry.1.bytes_out += bytes_out;
        if completed > entry.2 {
            entry.2 = completed;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_and_account() {
        let mut s = Surrogate::new();
        let a = s.attach_pc();
        let b = s.attach_pc();
        assert_ne!(a, b);
        s.record(a, 100, 2_000, SimTime::from_secs(1)).unwrap();
        s.record(a, 50, 0, SimTime::from_secs(2)).unwrap();
        let st = s.stats_of(a).unwrap();
        assert_eq!(st.requests, 2);
        assert_eq!(st.bytes_out, 2_000);
        assert_eq!(st.bytes_in, 150);
        assert_eq!(s.pc_time(a), Some(SimTime::from_secs(2)));
        assert_eq!(s.stats_of(b).unwrap().requests, 0);
        assert!(s.record(PcId(99), 0, 0, SimTime::ZERO).is_err());
    }
}
