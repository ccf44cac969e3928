//! Experiment harness: one module per paper measurement or ablation.
//!
//! Every experiment returns a [`report::Report`] — a titled table plus the
//! paper's corresponding claim — so the `tables` binary can print
//! paper-vs-measured side by side and integration tests can assert the
//! *shape* of each result (who wins, by roughly what factor) without
//! pinning absolute numbers.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p itc-bench --bin tables -- all
//! ```
//!
//! or a single experiment by id (`e1` ... `e17`, `f1`). Add `--full` for
//! the larger populations used in EXPERIMENTS.md.

pub mod experiments;
pub mod report;

pub use report::{Report, Scale};

/// Returns every experiment id in order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15", "e16", "e17", "f1",
    ]
}

/// Runs one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<Report> {
    use experiments as ex;
    Some(match id {
        "e1" => ex::e01_hit_ratio::run(scale),
        "e2" => ex::e02_call_mix::run(scale),
        "e3" => ex::e03_utilization::run(scale),
        "e4" => ex::e04_andrew::run(scale),
        "e5" => ex::e05_scalability::run(scale),
        "e6" => ex::e06_validation::run(scale),
        "e7" => ex::e07_traversal::run(scale),
        "e8" => ex::e08_structure::run(scale),
        "e9" => ex::e09_replication::run(scale),
        "e10" => ex::e10_mobility::run(scale),
        "e11" => ex::e11_encryption::run(scale),
        "e12" => ex::e12_revocation::run(scale),
        "e13" => ex::e13_file_sizes::run(scale),
        "e14" => ex::e14_location_db::run(scale),
        "e15" => ex::e15_architectures::run(scale),
        "e16" => ex::e16_write_policy::run(scale),
        "e17" => ex::e17_rebalancing::run(scale),
        "f1" => ex::f01_topology::run(scale),
        _ => return None,
    })
}
