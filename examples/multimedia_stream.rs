//! Multimedia streaming: one of the I/O-intensive applications the
//! paper's introduction motivates — grown from a single point-to-point
//! stream into multicast distribution on the switched fabric.
//!
//! A video server publishes frames on one VC; the switch replicates
//! each frame at ingress to every subscriber's output port (the
//! fan-out analogue of the fan-in suites). Each subscriber preposts
//! its frame buffers and the suite checks every delivered frame
//! byte-for-byte, so the table's distributions are over *verified*
//! deliveries: p50 is a typical subscriber, p99 the unlucky one whose
//! egress port drains last.
//!
//! The paper's Figure 3/4 point survives the scale-up: emulated copy
//! keeps the copy API while shedding the copies, and the gap between
//! semantics is per-subscriber, so multicast multiplies it.
//!
//! Run with: `cargo run --release --example multimedia_stream`

use genie::{multicast_stream, ALL_SEMANTICS};

const FRAME_BYTES: usize = 2 * 4096; // 8 KB frames
const FRAMES: usize = 16;

fn main() {
    println!("multicast streaming: {FRAMES} frames of {FRAME_BYTES} bytes per subscriber\n");
    for subscribers in [8u16, 32, 96] {
        println!("== {subscribers} subscribers ==");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>12}",
            "semantics", "p50_us", "p99_us", "max_us", "replicated"
        );
        let points = genie_runner::map(ALL_SEMANTICS, |&s| {
            multicast_stream(s, subscribers, FRAMES, FRAME_BYTES)
        });
        for p in &points {
            println!(
                "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>12}",
                p.semantics.label(),
                p.dist.p50.as_us(),
                p.dist.p99.as_us(),
                p.dist.max.as_us(),
                p.switch.pdus_replicated
            );
        }
        println!();
    }
    println!("each frame is replicated at switch ingress (subscribers - 1 copies per");
    println!("frame); every delivery is integrity-checked before it counts toward the");
    println!("distribution. emulated copy's advantage over copy is per-subscriber,");
    println!("so the fleet-wide CPU saved scales with the subscriber count.");
}
