//! The remote-open architecture (Locus / Newcastle Connection style).
//!
//! Section 6.3: "In systems such as Locus and the Newcastle Connection,
//! the inter-machine interface is very similar to the application program
//! interface. Operations on remote files are forwarded to the appropriate
//! storage site, where state information on these files is maintained."
//!
//! Consequences this implementation reproduces: every open, every 4 KiB
//! read or write, every close is an RPC; nothing is cached at the client;
//! server CPU is consumed in proportion to *bytes touched*, not files
//! opened — exactly the scaling weakness the ITC design avoids.

use crate::traits::{BaselineError, DfsClient};
use crate::PAGE;
use itc_sim::{Costs, Resource, SimTime};
use itc_unixfs::{FileSystem, Mode};

/// A remote-open client bound to its (dedicated) server.
#[derive(Debug)]
pub struct RemoteOpenFs {
    fs: FileSystem,
    cpu: Resource,
    disk: Resource,
    costs: Costs,
    now: SimTime,
    hops: u32,
    calls: u64,
}

impl RemoteOpenFs {
    /// Creates a client/server pair `hops` bridges apart.
    pub fn new(costs: Costs, hops: u32) -> RemoteOpenFs {
        RemoteOpenFs {
            fs: FileSystem::new(),
            cpu: Resource::new("remote-open-cpu"),
            disk: Resource::new("remote-open-disk"),
            costs,
            now: SimTime::ZERO,
            hops,
            calls: 0,
        }
    }

    /// Pre-loads a file without charging time (provisioning).
    pub fn preload(&mut self, path: &str, data: Vec<u8>) {
        let (dir, _) = itc_unixfs::dirname_basename(path).expect("abs path");
        self.fs
            .mkdir_p(&dir, Mode::DIR_DEFAULT, 0, 0)
            .expect("preload mkdir");
        self.fs.write(path, 0, 0, data).expect("preload write");
    }

    /// Total RPCs issued (for reports).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Server CPU busy time (for reports).
    pub fn server_cpu_busy(&self) -> SimTime {
        self.cpu.busy_total()
    }

    /// One control RPC: request/reply of `bytes` payload plus `extra_cpu`
    /// handler time and `disk_bytes` through the disk.
    fn rpc(&mut self, payload: u64, extra_cpu: SimTime, disk_bytes: u64) {
        self.calls += 1;
        let c = &self.costs;
        let lat = c.net_latency(self.hops);
        let arrived = self.now + lat + c.net_transfer(128);
        let cpu_done = self.cpu.acquire(
            arrived,
            c.srv_cpu_per_call + extra_cpu + c.srv_block_cpu(payload.max(1)),
        );
        let disk_done = if disk_bytes > 0 {
            self.disk.acquire(cpu_done, c.disk_transfer(disk_bytes))
        } else {
            cpu_done
        };
        self.now = disk_done + lat + c.net_transfer(payload);
    }
}

impl DfsClient for RemoteOpenFs {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    fn mkdir(&mut self, path: &str) -> Result<(), BaselineError> {
        self.rpc(0, self.costs.srv_cpu_getstatus, 0);
        let now_us = self.now.as_micros();
        self.fs
            .mkdir(path, Mode::DIR_DEFAULT, 0, now_us)
            .map_err(|e| BaselineError::Other(e.to_string()))?;
        Ok(())
    }

    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, BaselineError> {
        // Open RPC.
        self.rpc(0, self.costs.srv_cpu_getstatus, 0);
        let data = self
            .fs
            .read(path)
            .map_err(|_| BaselineError::NoSuchFile(path.to_string()))?;
        // One RPC per page, each hitting the server disk.
        let pages = (data.len() as u64).div_ceil(PAGE).max(1);
        for p in 0..pages {
            let chunk = PAGE.min(data.len() as u64 - p * PAGE);
            self.rpc(chunk, SimTime::ZERO, chunk);
        }
        // Close RPC.
        self.rpc(0, SimTime::ZERO, 0);
        Ok(data.to_vec())
    }

    fn write_file(&mut self, path: &str, data: Vec<u8>) -> Result<(), BaselineError> {
        self.rpc(0, self.costs.srv_cpu_getstatus, 0);
        let pages = (data.len() as u64).div_ceil(PAGE).max(1);
        for p in 0..pages {
            let chunk = PAGE.min(data.len() as u64 - p * PAGE);
            self.rpc(chunk, SimTime::ZERO, chunk);
        }
        self.rpc(0, SimTime::ZERO, 0);
        let now_us = self.now.as_micros();
        self.fs
            .write(path, 0, now_us, data)
            .map_err(|e| BaselineError::Other(e.to_string()))?;
        Ok(())
    }

    fn stat(&mut self, path: &str) -> Result<u64, BaselineError> {
        self.rpc(0, self.costs.srv_cpu_getstatus, 0);
        self.fs
            .stat(path)
            .map(|a| a.size)
            .map_err(|_| BaselineError::NoSuchFile(path.to_string()))
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, BaselineError> {
        self.rpc(256, self.costs.srv_cpu_getstatus, 0);
        self.fs
            .readdir(path)
            .map(|v| v.into_iter().map(|(n, _)| n).collect())
            .map_err(|_| BaselineError::NoSuchFile(path.to_string()))
    }

    fn label(&self) -> &'static str {
        "remote-open"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_page_is_an_rpc() {
        let mut c = RemoteOpenFs::new(Costs::prototype_1985(), 0);
        c.preload("/f", vec![0u8; 10 * PAGE as usize]);
        let calls_before = c.calls();
        let data = c.read_file("/f").unwrap();
        assert_eq!(data.len(), 10 * PAGE as usize);
        // open + 10 pages + close.
        assert_eq!(c.calls() - calls_before, 12);
    }

    #[test]
    fn rereading_costs_the_same_no_cache() {
        let mut c = RemoteOpenFs::new(Costs::prototype_1985(), 0);
        c.preload("/f", vec![1u8; 40_000]);
        let t0 = c.now();
        c.read_file("/f").unwrap();
        let first = c.now() - t0;
        let t1 = c.now();
        c.read_file("/f").unwrap();
        let second = c.now() - t1;
        // No caching: the second read is as expensive as the first (FIFO
        // queueing could even make it marginally different; equal here
        // because requests are serial).
        assert_eq!(first, second);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut c = RemoteOpenFs::new(Costs::prototype_1985(), 2);
        c.mkdir("/d").unwrap();
        c.write_file("/d/f", b"remote bytes".to_vec()).unwrap();
        assert_eq!(c.read_file("/d/f").unwrap(), b"remote bytes");
        assert_eq!(c.stat("/d/f").unwrap(), 12);
        assert_eq!(c.readdir("/d").unwrap(), vec!["f".to_string()]);
        assert!(c.server_cpu_busy() > SimTime::ZERO);
    }
}
