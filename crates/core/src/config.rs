//! System configuration: topology plus the design-choice knobs.
//!
//! Every ablation in the paper is one field here:
//!
//! | Field        | Prototype (1985)        | Revised implementation       |
//! |--------------|-------------------------|------------------------------|
//! | `validation` | check-on-open           | callback invalidation        |
//! | `traversal`  | server-side pathnames   | client-side, fid-like        |
//! | `structure`  | process per client      | single process + LWPs        |
//! | `cache`      | count-limited LRU       | space-limited LRU            |
//!
//! [`SystemConfig::prototype`] and [`SystemConfig::revised`] build the two
//! columns; experiments flip individual fields from there.

use itc_sim::costs::EncryptionMode;
use itc_sim::{Costs, ServerStructure, TraversalMode, ValidationMode};

/// Venus cache management policy (Section 3.5.1 / 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// The prototype: "Venus limits the total number of files in the cache
    /// rather than the total size of the cache, because the latter
    /// information is difficult to obtain from Unix."
    CountLru(usize),
    /// The revised design: "a space-limited cache management algorithm."
    SpaceLru(u64),
}

/// When modified files are transmitted to the custodian (Section 3.2:
/// "Changes to a cached file may be transmitted on close to the
/// corresponding custodian or deferred until a later time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// The paper's choice: "Virtue stores a file back when it is closed",
    /// adopted "to simplify recovery from workstation crashes" and to
    /// approximate timesharing visibility.
    StoreOnClose,
    /// The alternative the paper rejects: hold dirty files locally and
    /// flush them after the given delay (coalescing repeated writes). A
    /// workstation crash loses every unflushed update.
    Delayed(itc_sim::SimTime),
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of clusters (each gets one cluster server).
    pub clusters: u32,
    /// Workstations per cluster.
    pub workstations_per_cluster: u32,
    /// Cache validation scheme.
    pub validation: ValidationMode,
    /// Pathname traversal site.
    pub traversal: TraversalMode,
    /// Server process structure.
    pub structure: ServerStructure,
    /// Network encryption implementation.
    pub encryption: EncryptionMode,
    /// Venus cache policy.
    pub cache: CachePolicy,
    /// Write-back policy.
    pub write_policy: WritePolicy,
    /// The timing-cost table.
    pub costs: Costs,
    /// Seed for all randomness (nonces, workloads forked from it).
    pub seed: u64,
    /// Batch callback breaks per recipient workstation: when a mutation
    /// invalidates several promises held by the same workstation (the file
    /// and its parent directory, say), send one break message carrying all
    /// the paths instead of one message per path, and charge the server's
    /// per-break CPU once per recipient instead of once per (recipient,
    /// path). Off by default — the prototype faithfully pays the per-path
    /// cost; the storm scenarios flip this on to show the knee move.
    pub callback_break_batching: bool,
}

impl SystemConfig {
    /// The prototype column: every design choice as deployed in 1985.
    pub fn prototype(clusters: u32, workstations_per_cluster: u32) -> SystemConfig {
        SystemConfig {
            clusters,
            workstations_per_cluster,
            validation: ValidationMode::CheckOnOpen,
            traversal: TraversalMode::ServerSide,
            structure: ServerStructure::ProcessPerClient,
            encryption: EncryptionMode::Hardware,
            cache: CachePolicy::CountLru(200),
            write_policy: WritePolicy::StoreOnClose,
            costs: Costs::prototype_1985(),
            seed: 1985,
            callback_break_batching: false,
        }
    }

    /// The revised-implementation column (Section 5.3).
    pub fn revised(clusters: u32, workstations_per_cluster: u32) -> SystemConfig {
        SystemConfig {
            validation: ValidationMode::Callback,
            traversal: TraversalMode::ClientSide,
            structure: ServerStructure::SingleProcessLwp,
            cache: CachePolicy::SpaceLru(20 << 20),
            ..SystemConfig::prototype(clusters, workstations_per_cluster)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_and_revised_differ_in_the_documented_knobs() {
        let p = SystemConfig::prototype(2, 10);
        let r = SystemConfig::revised(2, 10);
        assert_eq!(p.validation, ValidationMode::CheckOnOpen);
        assert_eq!(r.validation, ValidationMode::Callback);
        assert_eq!(p.traversal, TraversalMode::ServerSide);
        assert_eq!(r.traversal, TraversalMode::ClientSide);
        assert_eq!(p.structure, ServerStructure::ProcessPerClient);
        assert_eq!(r.structure, ServerStructure::SingleProcessLwp);
        assert!(matches!(p.cache, CachePolicy::CountLru(_)));
        assert!(matches!(r.cache, CachePolicy::SpaceLru(_)));
    }
}
