//! Supercomputing on a cluster of workstations: an N-node parallel
//! reduction, one of the paper's motivating applications — grown from
//! the original two-node exchange onto the switched fabric.
//!
//! 64 nodes hang off one switch; each phase, every leaf ships its
//! vector of `u64` counters to the root, which folds them into its
//! accumulator (the suite checks the fold against a directly computed
//! reduction, so a wrong byte anywhere in the fabric fails loudly).
//! All 63 leaf VCs converge on the root's switch port, so the
//! interesting number is no longer a single latency but the *spread*:
//! the first vector to arrive rides an idle egress link, the last one
//! queued behind 62 others.
//!
//! Because the nodes synchronize at phase boundaries anyway (no one
//! touches a send buffer mid-transfer), they can use *emulated share*
//! semantics — the cheapest point in the taxonomy — without risking
//! the weak-integrity hazards; the table lets you check that claim
//! against all eight semantics at once.
//!
//! Run with: `cargo run --release --example cluster_reduce`

use genie::{cluster_reduce, ALL_SEMANTICS};

const NODES: u16 = 64;
const ELEMS: usize = 4 * 1024; // 32 KB of u64s per leaf
const PHASES: usize = 2;

fn main() {
    println!(
        "{NODES}-node reduction over a star switch: {PHASES} phases, {} bytes per leaf\n",
        ELEMS * 8
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "semantics", "p50_us", "p99_us", "max_us", "max_depth"
    );
    let points = genie_runner::map(ALL_SEMANTICS, |&s| cluster_reduce(s, NODES, ELEMS, PHASES));
    for p in &points {
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            p.semantics.label(),
            p.dist.p50.as_us(),
            p.dist.p99.as_us(),
            p.dist.max.as_us(),
            p.switch.max_port_depth
        );
    }
    println!("\nevery semantics computed the identical reduction (checked inside the");
    println!("suite); the p99-p50 gap is the fan-in queue at the root's switch port,");
    println!("and emulated share stays cheapest because the phase barrier already");
    println!("provides the synchronization weak integrity requires (paper Section 10).");
}
