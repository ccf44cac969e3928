//! The whole-file-caching contender: the real `itc-core` system behind the
//! common [`DfsClient`] interface.

use crate::traits::{BaselineError, DfsClient};
use itc_core::system::{ItcSystem, WsId};
use itc_core::SystemConfig;
use itc_sim::SimTime;

/// A single-workstation view onto a real [`ItcSystem`].
#[derive(Debug)]
pub struct WholeFileFs {
    sys: ItcSystem,
    ws: WsId,
    base: String,
}

impl WholeFileFs {
    /// Builds a one-cluster system with one workstation, logs in a
    /// benchmark user, and maps the `DfsClient` namespace under
    /// `/vice/usr/bench`. `remote_cluster` places the user's volume in a
    /// different cluster to compare intra- vs cross-cluster behavior.
    pub fn new(config: SystemConfig, remote_cluster: bool) -> WholeFileFs {
        let clusters = config.clusters.max(if remote_cluster { 2 } else { 1 });
        let config = SystemConfig { clusters, ..config };
        let mut sys = ItcSystem::build(config);
        sys.add_user("bench", "pw").expect("fresh system");
        let vol_cluster = if remote_cluster { 1 } else { 0 };
        sys.create_user_volume("bench", vol_cluster)
            .expect("fresh system");
        sys.login(0, "bench", "pw").expect("fresh user");
        WholeFileFs {
            sys,
            ws: 0,
            base: "/vice/usr/bench".to_string(),
        }
    }

    fn vice_path(&self, path: &str) -> String {
        format!("{}{path}", self.base)
    }

    /// Pre-loads a file without charging time.
    pub fn preload(&mut self, path: &str, data: Vec<u8>) {
        let vp = self.vice_path(path);
        self.sys
            .admin_install_file(&vp, data)
            .expect("preload install");
    }

    /// Total server CPU busy time across the system.
    pub fn server_cpu_busy(&self) -> SimTime {
        let m = self.sys.metrics();
        m.servers
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.cpu.busy_total)
    }

    /// Total server calls.
    pub fn calls(&self) -> u64 {
        self.sys.metrics().total_calls()
    }
}

fn map_err(e: itc_core::system::SystemError) -> BaselineError {
    BaselineError::Other(e.to_string())
}

impl DfsClient for WholeFileFs {
    fn now(&self) -> SimTime {
        self.sys.ws_time(self.ws)
    }

    fn advance_to(&mut self, t: SimTime) {
        self.sys.ops().advance_ws(self.ws, t);
    }

    fn mkdir(&mut self, path: &str) -> Result<(), BaselineError> {
        let vp = self.vice_path(path);
        self.sys.ops().mkdir(self.ws, &vp).map_err(map_err)
    }

    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, BaselineError> {
        let vp = self.vice_path(path);
        self.sys.ops().fetch(self.ws, &vp).map_err(map_err)
    }

    fn write_file(&mut self, path: &str, data: Vec<u8>) -> Result<(), BaselineError> {
        let vp = self.vice_path(path);
        self.sys.ops().store(self.ws, &vp, data).map_err(map_err)
    }

    fn stat(&mut self, path: &str) -> Result<u64, BaselineError> {
        let vp = self.vice_path(path);
        self.sys
            .ops()
            .stat(self.ws, &vp)
            .map(|s| s.size)
            .map_err(map_err)
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, BaselineError> {
        let vp = self.vice_path(path);
        self.sys
            .ops()
            .readdir(self.ws, &vp)
            .map(|v| v.into_iter().map(|(n, _)| n).collect())
            .map_err(map_err)
    }

    fn label(&self) -> &'static str {
        "whole-file"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_dfs_client() {
        let mut c = WholeFileFs::new(SystemConfig::prototype(1, 1), false);
        c.mkdir("/d").unwrap();
        c.write_file("/d/f", b"whole file".to_vec()).unwrap();
        assert_eq!(c.read_file("/d/f").unwrap(), b"whole file");
        assert_eq!(c.stat("/d/f").unwrap(), 10);
        assert_eq!(c.readdir("/d").unwrap(), vec!["f".to_string()]);
        assert!(c.now() > SimTime::ZERO);
    }

    #[test]
    fn warm_reread_is_cheaper_than_cold() {
        let mut c = WholeFileFs::new(SystemConfig::prototype(1, 1), false);
        c.preload("/big", vec![5u8; 200_000]);
        let t0 = c.now();
        c.read_file("/big").unwrap();
        let cold = c.now() - t0;
        let t1 = c.now();
        c.read_file("/big").unwrap();
        let warm = c.now() - t1;
        assert!(
            warm * 3 < cold,
            "warm {warm} should be far cheaper than cold {cold}"
        );
    }
}
