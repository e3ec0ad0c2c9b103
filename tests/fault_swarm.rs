//! Seeded fault-injection swarm: every semantics × every input
//! buffering architecture × hundreds of fault seeds, with the
//! invariant oracle checking after every simulated event.
//!
//! Every scenario is a pure function of its seed. A failure prints the
//! scenario coordinates, the full `FaultConfig`, and a one-line
//! reproducer; re-running with `GENIE_FAULT_SEED=<seed>` replays that
//! seed alone (across all 24 semantics/architecture combinations).
//! `GENIE_FAULT_SWARM_SEEDS=<n>` overrides the seed count (default
//! 200) — `scripts/verify.sh` uses a 20-seed smoke pass.

use genie::{
    HostId, InputRequest, OutputRequest, RecvCompletion, SampleConfig, Semantics, SendCompletion,
    World, WorldConfig,
};
use genie_fault::{FaultConfig, FaultStats, XorShift64};
use genie_machine::{MachineSpec, SimTime};
use genie_net::{InputBuffering, SwitchConfig, SwitchStats, Vc};

const ARCHITECTURES: [InputBuffering; 3] = [
    InputBuffering::EarlyDemux,
    InputBuffering::Pooled,
    InputBuffering::Outboard,
];

/// Datagrams exchanged per scenario.
const PDUS: usize = 3;

fn payload(seed: u64, pdu: usize, len: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9e37_79b9) ^ pdu as u64);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// An FNV-64 over a run's observable record, fed one word at a time.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn word(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.as_ps());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        genie_fault::fnv64(&self.0)
    }

    /// The digest of a sequence of words (e.g. several runs' digests).
    fn of(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut d = Digest::default();
        words.into_iter().for_each(|v| d.word(v));
        d.finish()
    }
}

/// The digest of everything a finished run exposes: every input and
/// output completion, the fault counters, the switch counters, every
/// host's final clock and, when the run was traced, every trace event
/// plus the sampled-out ledger. Any moved charge, span, random draw or
/// event order shows up here.
fn run_digest(w: &mut World, recvs: &[RecvCompletion], sends: &[SendCompletion]) -> u64 {
    let mut d = Digest::default();
    for c in recvs {
        d.word(c.token);
        d.word(u64::from(c.seq));
        d.word(c.len as u64);
        d.time(c.latency);
        d.time(c.completed_at);
    }
    for c in sends {
        d.word(c.token);
        d.word(c.len as u64);
        d.word(u64::from(c.credit_stalls));
        d.time(c.completed_at);
    }
    for (name, v) in w.fault_stats().fields() {
        d.text(name);
        d.word(v);
    }
    if let Some(s) = w.switch_stats() {
        for v in [
            s.pdus_ingress,
            s.pdus_replicated,
            s.pdus_dispatched,
            s.credit_stalls,
            s.max_port_depth,
        ] {
            d.word(v);
        }
    }
    for h in 0..w.n_hosts() {
        d.time(w.host(HostId(h as u16)).clock);
    }
    if w.tracing_enabled() {
        let trace = w.take_trace();
        for (owner, events) in &trace.owners {
            d.text(owner);
            for e in events {
                d.text(e.track.name());
                d.text(e.name);
                d.time(e.start);
                d.time(e.dur);
                d.word(e.bytes);
                d.word(e.units);
            }
        }
        for (owner, dropped) in &trace.dropped_spans {
            d.text(owner);
            d.word(*dropped);
        }
    }
    d.finish()
}

/// Everything deterministic about one finished scenario, for the
/// replay-determinism and pinned-digest tests.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    stats: FaultStats,
    deliveries: Vec<(u32, usize, u64)>, // (seq, len, payload fingerprint)
    digest: u64,
}

/// Runs one faulted scenario and checks delivery plus every oracle
/// invariant; with `sampling`, the run is traced under that policy.
/// Err carries a message embedding the reproducer seed.
fn run_scenario(
    sem: Semantics,
    arch: InputBuffering,
    seed: u64,
    sampling: Option<SampleConfig>,
) -> Result<Trace, String> {
    let fault = FaultConfig::swarm(seed);
    let fail = |what: String| {
        Err(format!(
            "{what}\n  scenario: sem={sem} arch={arch:?} seed={seed}\n  config: {fault:?}\n  \
             reproduce: GENIE_FAULT_SEED={seed} cargo test --test fault_swarm"
        ))
    };

    let cfg = WorldConfig {
        rx_buffering: arch,
        frames_per_host: 320,
        credit_limit: 256,
        fault,
        ..WorldConfig::default()
    };
    let mut w = World::new(cfg);
    w.enable_oracle();
    if let Some(sampling) = sampling {
        w.enable_tracing(true);
        w.set_sampling(&sampling);
    }
    let tx = w.create_process(HostId::A);
    let rx = w.create_process(HostId::B);
    let vc = Vc(1);

    let mut rng = XorShift64::new(seed ^ 0x5eed_5eed);
    let sizes: Vec<usize> = (0..PDUS).map(|_| 1 + rng.below(4000) as usize).collect();
    // Every third seed posts its inputs late, exercising the
    // unsolicited-input backlog of each architecture.
    let late_post = seed.is_multiple_of(3);

    let post_input = |w: &mut World, bytes: usize| {
        let off = w.preferred_alignment(HostId::B, vc).0;
        w.post_receive(HostId::B, rx, sem, vc, bytes, off)
    };

    if !late_post {
        for &bytes in &sizes {
            if let Err(e) = post_input(&mut w, bytes) {
                return fail(format!("prepost input failed: {e:?}"));
            }
        }
    }

    for (i, &bytes) in sizes.iter().enumerate() {
        let data = payload(seed, i, bytes);
        let src = w
            .alloc_source(HostId::A, tx, sem, &data)
            .map_err(|e| format!("source: {e:?}"))?;
        if let Err(e) = w.output(HostId::A, OutputRequest::new(sem, vc, tx, src, bytes)) {
            return fail(format!("output pdu {i} failed: {e:?}"));
        }
        // Strong application-allocated semantics guarantee the bytes as
        // of the output invocation: scribble the source afterwards and
        // let the oracle's promised-fingerprint check catch any leak.
        if sem.allocation() == genie::Allocation::Application
            && sem.integrity() == genie::Integrity::Strong
        {
            let scribble = vec![0xAA; bytes];
            w.app_write(HostId::A, tx, src, &scribble)
                .map_err(|e| format!("scribble: {e:?}"))?;
        }
    }
    w.run();

    if late_post {
        for &bytes in &sizes {
            if let Err(e) = post_input(&mut w, bytes) {
                return fail(format!("late-post input failed: {e:?}"));
            }
        }
        w.run();
    }

    // Recovery must deliver everything, in order, with the right bytes.
    let done = w.take_completed_inputs();
    if done.len() != PDUS {
        return fail(format!(
            "delivered {}/{PDUS} datagrams (stats: {:?})",
            done.len(),
            w.fault_stats()
        ));
    }
    let mut deliveries = Vec::with_capacity(PDUS);
    for (i, c) in done.iter().enumerate() {
        if c.seq as usize != i {
            return fail(format!("datagram {i} delivered with seq {}", c.seq));
        }
        if c.len != sizes[i] {
            return fail(format!("datagram {i}: len {} != {}", c.len, sizes[i]));
        }
        let got = w
            .read_app(HostId::B, rx, c.vaddr, c.len)
            .map_err(|e| format!("read back: {e:?}"))?;
        if got != payload(seed, i, sizes[i]) {
            return fail(format!("datagram {i} delivered corrupted bytes"));
        }
        deliveries.push((c.seq, c.len, genie_fault::fnv64(&got)));
        if let Some(region) = c.region {
            w.release_input_region(HostId::B, region, sem)
                .map_err(|e| format!("release region: {e:?}"))?;
        }
    }
    let sends = w.take_completed_outputs();
    if sends.len() != PDUS {
        return fail(format!("{}/{PDUS} outputs completed", sends.len()));
    }

    let oracle = w.oracle().expect("oracle enabled");
    if oracle.checks_run() == 0 {
        return fail("oracle ran zero checks (vacuous pass)".into());
    }
    if !oracle.ok() {
        let v: Vec<String> = oracle.violations().iter().map(|v| v.to_string()).collect();
        return fail(format!("oracle violations:\n    {}", v.join("\n    ")));
    }
    Ok(Trace {
        stats: w.fault_stats(),
        deliveries,
        digest: run_digest(&mut w, &done, &sends),
    })
}

fn seed_list() -> Vec<u64> {
    if let Ok(s) = std::env::var("GENIE_FAULT_SEED") {
        let seed = s.trim().parse::<u64>().expect("GENIE_FAULT_SEED is a u64");
        return vec![seed];
    }
    let n = std::env::var("GENIE_FAULT_SWARM_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(200);
    (0..n as u64).collect()
}

#[test]
fn swarm_every_semantics_architecture_and_seed() {
    let seeds = seed_list();
    // One runner cell per seed: each cell sweeps the full 8 × 3 grid
    // serially (a cell is still a pure function of its seed).
    let per_seed: Vec<(Vec<String>, u64)> = genie_runner::map(&seeds, |&seed| {
        let mut errs = Vec::new();
        let mut injected = 0u64;
        for sem in Semantics::ALL {
            for arch in ARCHITECTURES {
                match run_scenario(sem, arch, seed, None) {
                    Ok(trace) => injected += trace.stats.injected(),
                    Err(e) => errs.push(e),
                }
            }
        }
        (errs, injected)
    });
    let injected: u64 = per_seed.iter().map(|(_, i)| i).sum();
    let failures: Vec<String> = per_seed.into_iter().flat_map(|(e, _)| e).collect();

    assert!(
        failures.is_empty(),
        "{} swarm scenario(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The pass must not be vacuous: the swarm profile has to have
    // injected a healthy number of faults across the matrix.
    let scenarios = seeds.len() * Semantics::ALL.len() * ARCHITECTURES.len();
    assert!(
        injected as usize > scenarios / 4,
        "only {injected} faults injected across {scenarios} scenarios"
    );
}

#[test]
fn any_seed_replays_to_an_identical_trace() {
    // The whole faulted run is a pure function of the seed — the
    // property the printed reproducer relies on.
    for seed in [1, 7, 42] {
        for sem in [Semantics::EmulatedCopy, Semantics::WeakMove] {
            for arch in ARCHITECTURES {
                let a = run_scenario(sem, arch, seed, None).expect("scenario");
                let b = run_scenario(sem, arch, seed, None).expect("scenario");
                assert_eq!(a, b, "sem={sem} arch={arch:?} seed={seed}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Switched topologies: the same swarm profile over an 8-host star
// (seven spokes converging on one hub port — fault recovery under
// output-port contention) and a 4-host chain (three disjoint
// single-hop flows). The fault plan is topology-agnostic — it draws
// one verdict per PDU put on any wire — so `FaultConfig::swarm` runs
// unmodified; what changes is what recovery has to survive: damaged
// PDUs forward through the switch as markers, retransmissions
// re-enter switch ingress and requeue behind live traffic, and
// credit-starved VCs hold a shared output port's FIFO position.
// ---------------------------------------------------------------------------

/// Datagrams per sender in switched scenarios (seven senders already
/// multiply the grid; two PDUs each is enough to need per-VC FIFO).
const SWITCHED_PDUS: usize = 2;

#[derive(Clone, Copy, Debug)]
enum Topology {
    /// 8 hosts, hub at port 0, spokes 1..=7 each send to the hub on
    /// their own VC.
    Star8,
    /// 4 hosts in a line, host `i` sends to host `i + 1`.
    Chain4,
}

impl Topology {
    const ALL: [Topology; 2] = [Topology::Star8, Topology::Chain4];

    fn hosts(self) -> u16 {
        match self {
            Topology::Star8 => 8,
            Topology::Chain4 => 4,
        }
    }

    /// `(switch config, sender routes)` — each route is
    /// `(src, vc, dst)`, unicast only (multicast forbids faults).
    fn build(self) -> (SwitchConfig, Vec<(u16, u32, u16)>) {
        match self {
            Topology::Star8 => {
                let cfg = SwitchConfig::star(8, 0, 400, 192);
                let routes = (1..8).map(|s| (s, 400 + u32::from(s), 0)).collect();
                (cfg, routes)
            }
            Topology::Chain4 => {
                let cfg = SwitchConfig::chain(4, 450, 192);
                let routes = (0..3).map(|i| (i, 450 + u32::from(i), i + 1)).collect();
                (cfg, routes)
            }
        }
    }
}

/// One finished switched scenario, deterministic in its seed.
#[derive(Debug, PartialEq, Eq)]
struct SwitchedTrace {
    stats: FaultStats,
    switch: SwitchStats,
    deliveries: Vec<(u32, u32, usize, u64)>, // (vc, seq, len, fingerprint)
    digest: u64,
}

/// Runs one faulted scenario on a switched topology: every sender
/// fires `SWITCHED_PDUS` datagrams on its route, interleaved so the
/// shared ports contend, and recovery must still deliver everything
/// per-VC in order with the right bytes. Receives are always
/// preposted: a star hub takes 14 concurrent flows, far past the
/// unsolicited-backlog bound the two-host scenarios probe with late
/// posting.
fn run_switched_scenario(
    topo: Topology,
    sem: Semantics,
    arch: InputBuffering,
    seed: u64,
) -> Result<SwitchedTrace, String> {
    let fault = FaultConfig::swarm(seed);
    let fail = |what: String| {
        Err(format!(
            "{what}\n  scenario: topo={topo:?} sem={sem} arch={arch:?} seed={seed}\n  \
             config: {fault:?}\n  \
             reproduce: GENIE_FAULT_SEED={seed} cargo test --test fault_swarm switched"
        ))
    };

    let (sw_cfg, routes) = topo.build();
    let port_credit = sw_cfg.port_credit;
    let mut cfg = WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(topo.hosts()),
        sw_cfg,
    );
    cfg.rx_buffering = arch;
    cfg.frames_per_host = 320;
    cfg.credit_limit = 256;
    cfg.fault = fault;
    let mut w = World::new(cfg);
    w.enable_oracle();
    let spaces: Vec<_> = (0..topo.hosts())
        .map(|h| w.create_process(HostId(h)))
        .collect();

    // Per-route sizes and payload salts, all pure functions of the seed.
    let mut rng = XorShift64::new(seed ^ 0x5eed_0077);
    let sizes: Vec<Vec<usize>> = routes
        .iter()
        .map(|_| {
            (0..SWITCHED_PDUS)
                .map(|_| 1 + rng.below(3000) as usize)
                .collect()
        })
        .collect();
    let salt = |r: usize| seed.wrapping_add(1000 + r as u64 * 77);

    // Prepost every receive; token -> (route index, pdu index).
    let mut tokens = std::collections::BTreeMap::new();
    for (r, &(_src, vc, dst)) in routes.iter().enumerate() {
        for (k, &bytes) in sizes[r].iter().enumerate() {
            let space = spaces[usize::from(dst)];
            let off = w.preferred_alignment(HostId(dst), Vc(vc)).0;
            match w.post_receive(HostId(dst), space, sem, Vc(vc), bytes, off) {
                Ok(tok) => tokens.insert(tok, (r, k)),
                Err(e) => return fail(format!("prepost route {r} pdu {k}: {e:?}")),
            };
        }
    }

    // Interleave sends round-robin across routes so every sender's
    // k-th PDU races every other sender's for the shared ports.
    #[allow(clippy::needless_range_loop)] // k indexes sizes[r][k], r is the inner loop
    for k in 0..SWITCHED_PDUS {
        for (r, &(src, vc, _dst)) in routes.iter().enumerate() {
            let bytes = sizes[r][k];
            let data = payload(salt(r), k, bytes);
            let space = spaces[usize::from(src)];
            let vaddr = w
                .alloc_source(HostId(src), space, sem, &data)
                .map_err(|e| format!("source: {e:?}"))?;
            if let Err(e) = w.output(
                HostId(src),
                OutputRequest::new(sem, Vc(vc), space, vaddr, bytes),
            ) {
                return fail(format!("output route {r} pdu {k}: {e:?}"));
            }
            if sem.allocation() == genie::Allocation::Application
                && sem.integrity() == genie::Integrity::Strong
            {
                let scribble = vec![0xAA; bytes];
                w.app_write(HostId(src), space, vaddr, &scribble)
                    .map_err(|e| format!("scribble: {e:?}"))?;
            }
        }
    }
    w.run();

    // Recovery must deliver every copy, per-VC in send order, intact.
    let total = routes.len() * SWITCHED_PDUS;
    let done = w.take_completed_inputs();
    if done.len() != total {
        return fail(format!(
            "delivered {}/{total} datagrams (stats: {:?})",
            done.len(),
            w.fault_stats()
        ));
    }
    let mut next_k = vec![0usize; routes.len()];
    let mut last_seq: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
    let mut deliveries = Vec::with_capacity(total);
    for c in &done {
        let &(r, k) = tokens.get(&c.token).expect("known token");
        let (_src, vc, dst) = routes[r];
        if k != next_k[r] {
            return fail(format!(
                "route {r} (vc {vc}): pdu {k} completed while {} was next — per-VC FIFO broken",
                next_k[r]
            ));
        }
        next_k[r] += 1;
        if let Some(&prev) = last_seq.get(&r) {
            if c.seq <= prev {
                return fail(format!(
                    "route {r}: wire seq went {prev} -> {} across completions",
                    c.seq
                ));
            }
        }
        last_seq.insert(r, c.seq);
        if c.len != sizes[r][k] {
            return fail(format!(
                "route {r} pdu {k}: len {} != {}",
                c.len, sizes[r][k]
            ));
        }
        let got = w
            .read_app(HostId(dst), spaces[usize::from(dst)], c.vaddr, c.len)
            .map_err(|e| format!("read back: {e:?}"))?;
        if got != payload(salt(r), k, c.len) {
            return fail(format!("route {r} pdu {k} delivered corrupted bytes"));
        }
        deliveries.push((vc, c.seq, c.len, genie_fault::fnv64(&got)));
        if let Some(region) = c.region {
            w.release_input_region(HostId(dst), region, sem)
                .map_err(|e| format!("release region: {e:?}"))?;
        }
    }
    let sends = w.take_completed_outputs();
    if sends.len() != total {
        return fail(format!("{}/{total} outputs completed", sends.len()));
    }

    // The switch itself must be quiescent and balanced: ingress
    // (originals plus retransmissions plus damaged markers) all
    // dispatched, no stranded FIFO entries, every egress credit home.
    let sw = w.switch().expect("switched world");
    let stats = sw.stats();
    if stats.pdus_ingress + stats.pdus_replicated != stats.pdus_dispatched {
        return fail(format!("switch ledger unbalanced: {stats:?}"));
    }
    if (stats.pdus_ingress as usize) < total {
        return fail(format!(
            "switch saw only {} ingress PDUs for {total} sends",
            stats.pdus_ingress
        ));
    }
    for port in 0..topo.hosts() {
        if sw.queue_len(port) != 0 {
            return fail(format!(
                "port {port} holds {} stranded PDUs",
                sw.queue_len(port)
            ));
        }
    }
    for &(_src, vc, dst) in &routes {
        if sw.credits_available(dst, vc) != port_credit {
            return fail(format!(
                "port {dst} vc {vc}: {}/{port_credit} credits at quiesce",
                sw.credits_available(dst, vc)
            ));
        }
    }

    let oracle = w.oracle().expect("oracle enabled");
    if oracle.checks_run() == 0 {
        return fail("oracle ran zero checks (vacuous pass)".into());
    }
    if !oracle.ok() {
        let v: Vec<String> = oracle.violations().iter().map(|v| v.to_string()).collect();
        return fail(format!("oracle violations:\n    {}", v.join("\n    ")));
    }
    Ok(SwitchedTrace {
        stats: w.fault_stats(),
        switch: stats,
        deliveries,
        digest: run_digest(&mut w, &done, &sends),
    })
}

#[test]
fn swarm_over_star_and_chain_topologies() {
    let seeds = seed_list();
    // Architecture rotates with the seed (the full 8×3 product is the
    // two-host sweep's job; here the grid is topology × semantics).
    let per_seed: Vec<(Vec<String>, u64)> = genie_runner::map(&seeds, |&seed| {
        let arch = ARCHITECTURES[(seed % 3) as usize];
        let mut errs = Vec::new();
        let mut injected = 0u64;
        for topo in Topology::ALL {
            for sem in Semantics::ALL {
                match run_switched_scenario(topo, sem, arch, seed) {
                    Ok(trace) => injected += trace.stats.injected(),
                    Err(e) => errs.push(e),
                }
            }
        }
        (errs, injected)
    });
    let injected: u64 = per_seed.iter().map(|(_, i)| i).sum();
    let failures: Vec<String> = per_seed.into_iter().flat_map(|(e, _)| e).collect();

    assert!(
        failures.is_empty(),
        "{} switched swarm scenario(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let scenarios = seeds.len() * Topology::ALL.len() * Semantics::ALL.len();
    assert!(
        injected as usize > scenarios / 4,
        "only {injected} faults injected across {scenarios} switched scenarios"
    );
}

#[test]
fn switched_seeds_replay_to_identical_traces() {
    for seed in [3, 11] {
        for topo in Topology::ALL {
            for sem in [Semantics::EmulatedCopy, Semantics::WeakMove] {
                let a = run_switched_scenario(topo, sem, InputBuffering::Pooled, seed)
                    .expect("scenario");
                let b = run_switched_scenario(topo, sem, InputBuffering::Pooled, seed)
                    .expect("scenario");
                assert_eq!(a, b, "topo={topo:?} sem={sem} seed={seed}");
            }
        }
    }
}

/// A seeded contention burst on the star, with the observable counters
/// pinned (the switched analogue of the fault module's pinned reorder
/// burst). Seven spokes each pipeline four 2048-byte Move datagrams
/// into the hub through a deliberately tight 64-cell credit allotment
/// — one ~43-cell PDU in flight per VC — while the swarm plan damages
/// and delays PDUs on top. Delivery correctness aside, the exact
/// stall/depth/fault counters under this seed are part of the
/// contract: a regression in port arbitration, credit return, or
/// retransmit requeueing shifts them even when every byte still
/// arrives.
#[test]
fn star_contention_burst_counters_are_pinned() {
    const SEED: u64 = 23;
    const BYTES: usize = 2048;
    const PER_SPOKE: usize = 4;
    let sem = Semantics::Move;
    let sw_cfg = SwitchConfig::star(8, 0, 400, 64);
    let mut cfg = WorldConfig::switched(MachineSpec::micron_p166(), 8, sw_cfg);
    cfg.frames_per_host = 512;
    cfg.fault = FaultConfig::swarm(SEED);
    let mut w = World::new(cfg);
    let spaces: Vec<_> = (0..8).map(|h| w.create_process(HostId(h))).collect();

    let mut vc_of = std::collections::BTreeMap::new();
    for spoke in 1..8u16 {
        for _ in 0..PER_SPOKE {
            let tok = w
                .input(
                    HostId(0),
                    InputRequest::system(sem, Vc(400 + u32::from(spoke)), spaces[0], BYTES),
                )
                .expect("input");
            vc_of.insert(tok, 400 + u32::from(spoke));
        }
    }
    for k in 0..PER_SPOKE {
        for spoke in 1..8u16 {
            let data = payload(SEED ^ u64::from(spoke), k, BYTES);
            let (_reg, src) = w
                .host_mut(HostId(spoke))
                .alloc_io_buffer(spaces[usize::from(spoke)], BYTES)
                .expect("alloc io");
            w.app_write(HostId(spoke), spaces[usize::from(spoke)], src, &data)
                .expect("write");
            w.output(
                HostId(spoke),
                OutputRequest::new(
                    sem,
                    Vc(400 + u32::from(spoke)),
                    spaces[usize::from(spoke)],
                    src,
                    BYTES,
                ),
            )
            .expect("output");
        }
    }
    w.run();

    // Everything arrives, per VC in order, intact.
    let done = w.take_completed_inputs();
    assert_eq!(done.len(), 7 * PER_SPOKE, "all datagrams delivered");
    let mut per_vc: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for c in &done {
        let vc = vc_of[&c.token];
        let k = *per_vc.get(&vc).unwrap_or(&0);
        let got = w
            .read_app(HostId(0), spaces[0], c.vaddr, c.len)
            .expect("read");
        let spoke = u64::from(vc - 400);
        assert_eq!(got, payload(SEED ^ spoke, k, BYTES), "vc {vc} pdu {k}");
        per_vc.insert(vc, k + 1);
        if let Some(region) = c.region {
            w.release_input_region(HostId(0), region, sem)
                .expect("release");
        }
    }

    // The burst genuinely contended and the swarm plan genuinely
    // fired; all counters below are pinned for seed 23.
    let stats = w.switch_stats().expect("switched");
    assert_eq!(
        stats.pdus_ingress + stats.pdus_replicated,
        stats.pdus_dispatched
    );
    assert!(stats.credit_stalls > 0, "burst never stalled: {stats:?}");
    let f = w.fault_stats();
    assert!(f.injected() > 0, "swarm plan fired nothing: {f:?}");
    // 28 sends + 3 retransmissions re-entering ingress; the tight
    // allotment let the hub port's FIFO reach 20 deep, and 30 of the
    // drains that woke it (ingress kicks and credit-return wakes; a
    // blocked port is never polled) found the head still out of
    // credit. Wire damage dropped 3 PDUs (all caught by CRC), delay
    // reordered 2 (5 holds to resequence), and 3 were retransmitted.
    assert_eq!(
        (
            stats.pdus_ingress,
            stats.credit_stalls,
            stats.max_port_depth
        ),
        (31, 30, 20),
        "pinned switch counters moved (fault stats: {f:?})"
    );
    assert_eq!(
        (f.pdus_damaged, f.pdus_delayed, f.retransmits, f.crc_drops),
        (3, 2, 3, 3),
        "pinned fault counters moved (switch stats: {stats:?})"
    );
    assert_eq!(f.held_for_reorder, 5, "pinned hold count moved");
}

#[test]
fn inert_plan_injects_nothing_even_with_the_oracle_on() {
    for sem in Semantics::ALL {
        let cfg = WorldConfig {
            frames_per_host: 320,
            fault: FaultConfig::none(),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        w.enable_oracle();
        let tx = w.create_process(HostId::A);
        let rx = w.create_process(HostId::B);
        let bytes = 3000;
        let data = payload(9, 0, bytes);
        w.post_receive(HostId::B, rx, sem, Vc(1), bytes, 0).unwrap();
        let src = w.alloc_source(HostId::A, tx, sem, &data).unwrap();
        w.output(HostId::A, OutputRequest::new(sem, Vc(1), tx, src, bytes))
            .unwrap();
        w.run();
        let done = w.take_completed_inputs();
        assert_eq!(done.len(), 1, "{sem}");
        let stats = w.fault_stats();
        assert_eq!(stats.injected(), 0, "{sem}: inert plan injected {stats:?}");
        assert_eq!(stats, FaultStats::default(), "{sem}");
        let oracle = w.oracle().expect("oracle");
        assert!(oracle.ok(), "{sem}: {:?}", oracle.violations());
        assert!(oracle.checks_run() > 0, "{sem}");
    }
}

/// Digests of a fixed faulted grid, pinned: 16 swarm seeds × 8
/// semantics × 3 input architectures on two hosts, the same seeds over
/// the switched star and chain (architecture rotating with the seed),
/// and one traced run per architecture under 1-in-3 flow sampling
/// (its sampling seed drops a retransmitted flow on every
/// architecture, so attributing retransmissions to flows shows).
/// Each entry folds its runs' digests (see `run_digest`), so a change
/// that moves any completion, counter, host clock, trace event or
/// sampling decision — a reordered fault-plan draw, a retransmission
/// that starts attributing its spans to a flow — fails here even when
/// every datagram still arrives intact.
#[test]
fn faulted_runs_keep_their_pinned_digests() {
    const TWO_HOST: [u64; 16] = [
        0x917c_b6b4_2aeb_c93b,
        0x0611_368d_8238_12f2,
        0x1840_7487_c18d_c69a,
        0x38d8_9f22_c568_07a0,
        0x6d82_d6a1_67f7_73bf,
        0xf938_2b1d_37fc_256f,
        0xab49_3c23_2709_76c4,
        0xff5c_8500_f313_2760,
        0x618e_fde6_2457_52d5,
        0xa29e_7423_5a1e_b557,
        0xef41_935a_0dcc_0812,
        0x5daa_2d2e_9677_e46f,
        0xe7a9_4889_bd9f_aea1,
        0x545e_9983_f997_f11b,
        0x41fa_baa0_1fc0_5579,
        0x65ef_379f_9892_0c80,
    ];
    const SWITCHED: [u64; 16] = [
        0xe275_a9b5_8474_fc17,
        0xbabb_b649_c39f_a2c8,
        0x49f7_dd40_ba11_a29a,
        0xec83_a113_25b4_5daf,
        0xf9ea_a6cb_eb7c_21c5,
        0x1674_dee1_2a85_fee3,
        0xf267_977f_d3c1_08ed,
        0xbb07_e330_ba75_3121,
        0xb0ac_eab0_8ac5_ebc8,
        0xcaea_9b5f_0344_4e59,
        0xbdf5_a4f9_8d4a_33e1,
        0x109e_2ea6_0b9c_ae1f,
        0x2736_cc47_8a9c_a43e,
        0xf59c_9f35_735c_ef7e,
        0x8f3e_377a_b16a_2d25,
        0x3bce_d103_f85b_a80c,
    ];
    const TRACED: [u64; 3] = [
        0x7e3a_9127_6ef9_9fdb,
        0xd14a_2646_cab4_5155,
        0x314c_9795_cf2f_e66a,
    ];
    /// Retransmits, delays and damages PDUs on every architecture.
    const TRACED_SEED: u64 = 22;

    let seeds: Vec<u64> = (0..16).collect();
    let two_host: Vec<u64> = genie_runner::map(&seeds, |&seed| {
        Digest::of(Semantics::ALL.into_iter().flat_map(|sem| {
            ARCHITECTURES.map(|arch| {
                run_scenario(sem, arch, seed, None)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .digest
            })
        }))
    });
    let switched: Vec<u64> = genie_runner::map(&seeds, |&seed| {
        let arch = ARCHITECTURES[(seed % 3) as usize];
        Digest::of(Topology::ALL.into_iter().flat_map(|topo| {
            Semantics::ALL.map(|sem| {
                run_switched_scenario(topo, sem, arch, seed)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .digest
            })
        }))
    });
    let sampling = SampleConfig {
        rate: 3,
        budget: 0,
        seed: 1,
    };
    let traced: Vec<u64> = ARCHITECTURES
        .iter()
        .map(|&arch| {
            let t = run_scenario(Semantics::EmulatedCopy, arch, TRACED_SEED, Some(sampling))
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(
                t.stats.retransmits > 0,
                "{arch:?}: no retransmission traced"
            );
            t.digest
        })
        .collect();

    assert_eq!(two_host, TWO_HOST, "two-host digests moved (per seed)");
    assert_eq!(switched, SWITCHED, "switched digests moved (per seed)");
    assert_eq!(traced, TRACED, "traced digests moved (per architecture)");
}
