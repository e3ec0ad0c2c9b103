//! RPC fan-in: hundreds of clients converging on one server — the
//! switched-fabric stress case the two-host paper setup cannot
//! express.
//!
//! Every client gets its own VC through the star switch; all of them
//! route to the server's single output port, so requests contend
//! twice: in the port's FIFO (fan-in queueing) and against the
//! `(port, VC)` egress credit allotment (hop-by-hop flow control).
//! With a deliberately tight credit budget the suite reports real
//! backpressure — nonzero `stalls` — alongside the latency spread.
//!
//! Which buffering semantics the *server* picks matters most here:
//! its receive path runs once per request, so per-request CPU cost is
//! multiplied by the whole fan-in.
//!
//! Run with: `cargo run --release --example rpc_fanin`

use genie::{rpc_fanin, ALL_SEMANTICS};

const CLIENTS: u16 = 192;
const REQUESTS: usize = 4;
const BYTES: usize = 2048;

fn main() {
    println!("{CLIENTS} clients x {REQUESTS} pipelined {BYTES}-byte requests -> 1 server port\n");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "semantics", "p50_us", "p99_us", "max_us", "stalls", "max_depth"
    );
    let points = genie_runner::map(ALL_SEMANTICS, |&s| rpc_fanin(s, CLIENTS, REQUESTS, BYTES));
    for p in &points {
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>10}",
            p.semantics.label(),
            p.dist.p50.as_us(),
            p.dist.p99.as_us(),
            p.dist.max.as_us(),
            p.switch.credit_stalls,
            p.switch.max_port_depth
        );
    }
    println!(
        "\nall {} requests per semantics were delivered, integrity-checked, and",
        u32::from(CLIENTS) * REQUESTS as u32
    );
    println!("the fabric verified drained at quiesce. p50 vs p99 is the cost of");
    println!("arriving behind the fan-in; `stalls` counts failed egress credit");
    println!("acquisitions — the switch pushing back rather than buffering without");
    println!("bound (see DESIGN.md, switched fabric).");
}
