//! The page-caching architecture (Apollo DOMAIN style).
//!
//! Section 6.2/6.3: "Apollo integrates the file system with the virtual
//! memory system on workstations, and hence caches individual pages of
//! files, rather than entire files. ... comparing timestamps when a file
//! is first mapped into the address space of a process. No validation is
//! done on further accesses to pages within the file."
//!
//! Consequences reproduced here: a validation RPC per open; a page-fault
//! RPC per *missing* page (hits are free); dirty pages written back
//! individually on close. Good for sparse access; worse than whole-file
//! transfer for the sequential whole-file access patterns that dominate
//! Unix workloads, because per-page RPC overhead recurs on every page.

use crate::traits::{BaselineError, DfsClient};
use crate::PAGE;
use itc_sim::{Costs, Resource, SimTime};
use itc_unixfs::{FileSystem, Mode};
use std::collections::HashMap;

/// Key of a cached page.
type PageKey = (String, u64);

/// A page-caching client with its dedicated server.
#[derive(Debug)]
pub struct PageCacheFs {
    fs: FileSystem,
    cpu: Resource,
    disk: Resource,
    costs: Costs,
    now: SimTime,
    hops: u32,
    calls: u64,
    /// Cached pages with the file version they came from.
    pages: HashMap<PageKey, (u64, Vec<u8>)>,
    /// Page capacity of the cache.
    capacity: usize,
    /// LRU ordering (front = oldest).
    lru: Vec<PageKey>,
    /// Page-cache hits/misses for reports.
    pub hits: u64,
    /// Page faults that went to the server.
    pub faults: u64,
}

impl PageCacheFs {
    /// Creates a client `hops` bridges from its server with a page cache
    /// of `capacity` pages.
    pub fn new(costs: Costs, hops: u32, capacity: usize) -> PageCacheFs {
        PageCacheFs {
            fs: FileSystem::new(),
            cpu: Resource::new("page-cache-cpu"),
            disk: Resource::new("page-cache-disk"),
            costs,
            now: SimTime::ZERO,
            hops,
            calls: 0,
            pages: HashMap::new(),
            capacity,
            lru: Vec::new(),
            hits: 0,
            faults: 0,
        }
    }

    /// Pre-loads a file without charging time.
    pub fn preload(&mut self, path: &str, data: Vec<u8>) {
        let (dir, _) = itc_unixfs::dirname_basename(path).expect("abs path");
        self.fs
            .mkdir_p(&dir, Mode::DIR_DEFAULT, 0, 0)
            .expect("preload mkdir");
        self.fs.write(path, 0, 0, data).expect("preload write");
    }

    /// Total RPCs issued.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Server CPU busy time.
    pub fn server_cpu_busy(&self) -> SimTime {
        self.cpu.busy_total()
    }

    fn rpc(&mut self, payload: u64, disk_bytes: u64) {
        self.calls += 1;
        let c = &self.costs;
        let lat = c.net_latency(self.hops);
        let arrived = self.now + lat + c.net_transfer(128);
        let cpu_done = self.cpu.acquire(
            arrived,
            c.srv_cpu_per_call + c.srv_block_cpu(payload.max(1)),
        );
        let disk_done = if disk_bytes > 0 {
            self.disk.acquire(cpu_done, c.disk_transfer(disk_bytes))
        } else {
            cpu_done
        };
        self.now = disk_done + lat + c.net_transfer(payload);
    }

    fn touch(&mut self, key: &PageKey) {
        self.lru.retain(|k| k != key);
        self.lru.push(key.clone());
    }

    fn insert_page(&mut self, key: PageKey, version: u64, data: Vec<u8>) {
        self.pages.insert(key.clone(), (version, data));
        self.touch(&key);
        while self.pages.len() > self.capacity {
            let victim = self.lru.remove(0);
            self.pages.remove(&victim);
        }
    }

    /// Drops cached pages of `path` whose version is stale.
    fn validate_pages(&mut self, path: &str, current: u64) {
        let stale: Vec<PageKey> = self
            .pages
            .iter()
            .filter(|((p, _), (v, _))| p == path && *v != current)
            .map(|(k, _)| k.clone())
            .collect();
        for k in stale {
            self.pages.remove(&k);
            self.lru.retain(|x| *x != k);
        }
    }
}

impl DfsClient for PageCacheFs {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    fn mkdir(&mut self, path: &str) -> Result<(), BaselineError> {
        self.rpc(0, 0);
        let now_us = self.now.as_micros();
        self.fs
            .mkdir(path, Mode::DIR_DEFAULT, 0, now_us)
            .map_err(|e| BaselineError::Other(e.to_string()))?;
        Ok(())
    }

    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, BaselineError> {
        // Map-time validation RPC (timestamp compare).
        self.rpc(0, 0);
        let attr = self
            .fs
            .stat(path)
            .map_err(|_| BaselineError::NoSuchFile(path.to_string()))?;
        self.validate_pages(path, attr.version);
        let data = self.fs.read(path).expect("stat succeeded");
        let data = data.as_slice();
        let pages = (data.len() as u64).div_ceil(PAGE).max(1);
        let mut out = Vec::with_capacity(data.len());
        for p in 0..pages {
            let key = (path.to_string(), p);
            let start = (p * PAGE) as usize;
            let end = data.len().min(start + PAGE as usize);
            if self.pages.contains_key(&key) {
                self.hits += 1;
                self.touch(&key);
                // Serving from local memory: effectively free.
            } else {
                self.faults += 1;
                let chunk = (end - start) as u64;
                self.rpc(chunk, chunk);
                self.insert_page(key, attr.version, data[start..end].to_vec());
            }
            out.extend_from_slice(&data[start..end]);
        }
        Ok(out)
    }

    fn write_file(&mut self, path: &str, data: Vec<u8>) -> Result<(), BaselineError> {
        // Map-time validation.
        self.rpc(0, 0);
        // Every (now dirty) page is written back individually.
        let pages = (data.len() as u64).div_ceil(PAGE).max(1);
        for p in 0..pages {
            let start = (p * PAGE) as usize;
            let end = data.len().min(start + PAGE as usize);
            let chunk = (end - start) as u64;
            self.rpc(chunk, chunk);
        }
        let now_us = self.now.as_micros();
        self.fs
            .write(path, 0, now_us, data.clone())
            .map_err(|e| BaselineError::Other(e.to_string()))?;
        let version = self.fs.stat(path).expect("just wrote").version;
        // The writer's own pages stay cached at the new version.
        for p in 0..pages {
            let start = (p * PAGE) as usize;
            let end = data.len().min(start + PAGE as usize);
            self.insert_page((path.to_string(), p), version, data[start..end].to_vec());
        }
        Ok(())
    }

    fn stat(&mut self, path: &str) -> Result<u64, BaselineError> {
        self.rpc(0, 0);
        self.fs
            .stat(path)
            .map(|a| a.size)
            .map_err(|_| BaselineError::NoSuchFile(path.to_string()))
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, BaselineError> {
        self.rpc(256, 0);
        self.fs
            .readdir(path)
            .map(|v| v.into_iter().map(|(n, _)| n).collect())
            .map_err(|_| BaselineError::NoSuchFile(path.to_string()))
    }

    fn label(&self) -> &'static str {
        "page-cache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_read_hits_pages() {
        let mut c = PageCacheFs::new(Costs::prototype_1985(), 0, 1000);
        c.preload("/f", vec![3u8; 5 * PAGE as usize]);
        c.read_file("/f").unwrap();
        assert_eq!(c.faults, 5);
        assert_eq!(c.hits, 0);
        let calls_before = c.calls();
        c.read_file("/f").unwrap();
        assert_eq!(c.hits, 5);
        // Only the map-time validation RPC on the warm read.
        assert_eq!(c.calls() - calls_before, 1);
    }

    #[test]
    fn stale_pages_dropped_on_open() {
        let mut c = PageCacheFs::new(Costs::prototype_1985(), 0, 1000);
        c.preload("/f", vec![1u8; PAGE as usize]);
        c.read_file("/f").unwrap();
        // The file changes behind the client's back (as if another node
        // wrote it).
        c.fs.write("/f", 0, 99, vec![2u8; PAGE as usize]).unwrap();
        let data = c.read_file("/f").unwrap();
        assert_eq!(data, vec![2u8; PAGE as usize]);
        assert_eq!(c.faults, 2, "stale page must refault");
    }

    #[test]
    fn lru_eviction_bounds_cache() {
        let mut c = PageCacheFs::new(Costs::prototype_1985(), 0, 3);
        c.preload("/f", vec![1u8; 5 * PAGE as usize]);
        c.read_file("/f").unwrap();
        assert!(c.pages.len() <= 3);
        // Rereading refaults the evicted pages.
        c.read_file("/f").unwrap();
        assert!(c.faults > 5);
    }

    #[test]
    fn writes_go_through_per_page() {
        let mut c = PageCacheFs::new(Costs::prototype_1985(), 0, 100);
        c.mkdir("/d").unwrap();
        let calls_before = c.calls();
        c.write_file("/d/f", vec![9u8; 3 * PAGE as usize]).unwrap();
        // validation + 3 page write-backs.
        assert_eq!(c.calls() - calls_before, 4);
        assert_eq!(c.read_file("/d/f").unwrap().len(), 3 * PAGE as usize);
        // Writer's own pages were cached: that read was all hits.
        assert_eq!(c.hits, 3);
    }
}
