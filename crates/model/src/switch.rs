//! Reference model of the N-host switch, and the switched-fabric
//! differential harness.
//!
//! [`ModelSwitch`] is the naive executable answer to "what should a
//! switch do": one global FIFO per output port, infinite credit, and
//! replicate-at-ingress fan-out. No busy-until serialization, no
//! credit ledgers, no events — a few lines of obviously-checkable
//! code. The real switch adds per-`(port, VC)` credit flow control
//! and head-of-line stalls, but none of that may change what the
//! model predicts observably: which payloads reach which hosts, and
//! in what per-VC order.
//!
//! [`SwitchScenario::run`] drives a seeded op interleaving through
//! both the model and a real switched [`genie::World`] on a random
//! topology (unicast and multicast routes), comparing at every
//! barrier:
//!
//! - byte-equal payloads per `(destination, VC)`, in model order
//!   (per-VC FIFO across hops);
//! - delivery counts (conservation: every injected PDU arrives at
//!   exactly its fan-out's worth of destinations);
//! - at the end, the real switch's ingress/replica/dispatch counters
//!   against the model's.
//!
//! On divergence the kernel ([`crate::kernel`]) shrinks the scenario
//! and writes a replayable `.ops` file, exactly like the two-host
//! harness.

use std::collections::{BTreeMap, VecDeque};

use genie::{HostId, OutputRequest, Semantics, World, WorldConfig};
use genie_fault::XorShift64;
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};

use crate::kernel::{parse_ops, Differential, Divergence};
use crate::ops::payload;

/// One route of a switched scenario: `(source host, VC, destinations)`.
pub type SwitchRoute = (u16, u32, Vec<u16>);

/// One step of a switched-fabric differential scenario.
///
/// Like [`crate::ModelOp`], targets are raw indices resolved modulo
/// the scenario's tables at interpretation time, so shrinking never
/// produces an uninterpretable op list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchOp {
    /// Output `len` bytes on route `route % routes.len()`.
    Send { route: usize, len: usize },
    /// Post the receives for everything in flight, run to quiescence,
    /// and compare the two worlds' deliveries.
    Barrier,
}

/// A complete switched-fabric scenario: topology plus op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchScenario {
    /// Number of hosts (= switch ports).
    pub hosts: u16,
    /// Seed (decides semantics, topology, op list, payload bytes).
    pub seed: u64,
    /// Data-passing semantics every transfer uses.
    pub semantics: Semantics,
    /// Egress credit per `(port, VC)` in the real switch.
    pub port_credit: u32,
    /// Largest send the generator may emit.
    pub max_len: usize,
    /// The route table. Every route owns a unique VC (the fabric's
    /// one-sender-per-VC convention).
    pub routes: Vec<SwitchRoute>,
    /// The op list.
    pub ops: Vec<SwitchOp>,
}

/// Deliberate model bugs, used to prove the harness catches
/// divergences (and that shrinking works) — mirror of
/// [`crate::ModelBug`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SwitchBug {
    /// The faithful model.
    #[default]
    None,
    /// Fan-out routes deliver only to their first destination.
    ForgetReplicas,
    /// Port FIFOs pop newest-first.
    LifoPorts,
}

/// The reference switch: global FIFO per output port, infinite
/// credit.
#[derive(Clone, Debug, Default)]
pub struct ModelSwitch {
    ports: Vec<VecDeque<(u32, Vec<u8>)>>,
    /// PDUs injected at ingress.
    pub injected: u64,
    /// Port-FIFO entries created (fan-out counts once per copy).
    pub enqueued: u64,
}

impl ModelSwitch {
    /// A switch with `hosts` empty output ports.
    pub fn new(hosts: u16) -> Self {
        ModelSwitch {
            ports: vec![VecDeque::new(); usize::from(hosts)],
            injected: 0,
            enqueued: 0,
        }
    }

    /// Ingress: replicate `data` into every destination port's FIFO.
    pub fn inject(&mut self, vc: u32, dsts: &[u16], data: Vec<u8>, bug: SwitchBug) {
        self.injected += 1;
        let take = match bug {
            SwitchBug::ForgetReplicas => 1,
            _ => dsts.len(),
        };
        for &dst in &dsts[..take] {
            self.ports[usize::from(dst)].push_back((vc, data.clone()));
            self.enqueued += 1;
        }
    }

    /// Drains one port's FIFO in delivery order.
    pub fn drain(&mut self, port: u16, bug: SwitchBug) -> Vec<(u32, Vec<u8>)> {
        let q = &mut self.ports[usize::from(port)];
        let mut out: Vec<(u32, Vec<u8>)> = q.drain(..).collect();
        if bug == SwitchBug::LifoPorts {
            out.reverse();
        }
        out
    }
}

/// Aggregate statistics of a passing switched differential run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchRunStats {
    /// Sends issued.
    pub sends: usize,
    /// Deliveries observed (and byte-compared) at the destinations.
    pub deliveries: usize,
    /// Multicast fan-out copies beyond the first destination.
    pub replicas: u64,
}

impl SwitchScenario {
    /// Generates the scenario for one `(hosts, seed)` grid point —
    /// a pure function of its arguments.
    ///
    /// Structural constraints keep every scenario in-contract: at
    /// most 3 undelivered PDUs per destination host between barriers
    /// (bounds unsolicited backlog below the adapter's overlay pool),
    /// and a trailing barrier so the run ends fully drained.
    pub fn generate(hosts: u16, seed: u64) -> SwitchScenario {
        assert!(hosts >= 2, "a switch needs at least two hosts");
        let mut rng = XorShift64::new(seed.wrapping_mul(0xa076_1d64_78bd_642f) ^ u64::from(hosts));
        let semantics = Semantics::ALL[rng.below(Semantics::ALL.len() as u64) as usize];
        let port_credit = 128 + 128 * rng.below(4) as u32;
        let max_len = 1 + rng.below(3000) as usize;

        // Random topology: ~2 routes per host; one in four routes
        // multicasts to several destinations.
        let n_routes = usize::from(hosts) * 2;
        let mut routes = Vec::with_capacity(n_routes);
        for r in 0..n_routes {
            let src = rng.below(u64::from(hosts)) as u16;
            let mut dsts: Vec<u16> = Vec::new();
            let fan = if rng.below(4) == 0 {
                (2 + rng.below(u64::from(hosts) - 1).min(2)).min(u64::from(hosts) - 1)
            } else {
                1
            };
            let mut cand = rng.below(u64::from(hosts)) as u16;
            while dsts.len() < fan as usize {
                if cand != src && !dsts.contains(&cand) {
                    dsts.push(cand);
                }
                cand = (cand + 1) % hosts;
            }
            routes.push((src, 500 + r as u32, dsts));
        }

        let n = 8 + rng.below(16) as usize;
        let mut ops = Vec::new();
        let mut unposted = vec![0usize; usize::from(hosts)];
        for _ in 0..n {
            let r = rng.below(routes.len() as u64) as usize;
            let fits = routes[r].2.iter().all(|&d| unposted[usize::from(d)] < 3);
            if rng.below(100) < 70 && fits {
                let len = 1 + rng.below(max_len as u64) as usize;
                ops.push(SwitchOp::Send { route: r, len });
                for &d in &routes[r].2 {
                    unposted[usize::from(d)] += 1;
                }
            } else {
                ops.push(SwitchOp::Barrier);
                unposted.iter_mut().for_each(|u| *u = 0);
            }
        }
        ops.push(SwitchOp::Barrier);
        SwitchScenario {
            hosts,
            seed,
            semantics,
            port_credit,
            max_len,
            routes,
            ops,
        }
    }
}

impl Differential for SwitchScenario {
    type Op = SwitchOp;
    type Bug = SwitchBug;
    type Stats = SwitchRunStats;
    const KIND: &'static str = "switch";

    fn ops(&self) -> &[SwitchOp] {
        &self.ops
    }

    fn ops_mut(&mut self) -> &mut Vec<SwitchOp> {
        &mut self.ops
    }

    fn header(&self) -> String {
        let mut s = format!(
            "hosts={}\nseed={}\nsemantics={:?}\nport_credit={}\nmax_len={}\n",
            self.hosts, self.seed, self.semantics, self.port_credit, self.max_len
        );
        for (src, vc, dsts) in &self.routes {
            let d: Vec<String> = dsts.iter().map(u16::to_string).collect();
            s.push_str(&format!("route src={src} vc={vc} dsts={}\n", d.join(",")));
        }
        s
    }

    fn op_line(op: &SwitchOp) -> String {
        match *op {
            SwitchOp::Send { route, len } => format!("send route={route} len={len}"),
            SwitchOp::Barrier => "barrier".into(),
        }
    }

    fn parse(text: &str) -> Result<SwitchScenario, String> {
        let mut routes = Vec::new();
        let mut ops = Vec::new();
        let keys = ["hosts", "seed", "semantics", "port_credit", "max_len"];
        let h = parse_ops(text, &keys, |verb, a| {
            match verb {
                "route" => routes.push((a.kv("src")?, a.kv("vc")?, a.kv("dsts")?)),
                "send" => ops.push(SwitchOp::Send {
                    route: a.kv("route")?,
                    len: a.kv("len")?,
                }),
                "barrier" => ops.push(SwitchOp::Barrier),
                _ => return None,
            }
            Some(())
        })?;
        Ok(SwitchScenario {
            hosts: h.get("hosts")?,
            seed: h.get("seed")?,
            semantics: h.get("semantics")?,
            port_credit: h.get("port_credit")?,
            max_len: h.get("max_len")?,
            routes,
            ops,
        })
    }

    fn run(&self, bug: SwitchBug, traced: bool) -> Result<SwitchRunStats, Divergence> {
        run_switch_scenario(self, bug, traced)
    }

    fn stem(&self) -> String {
        format!("switch_ce_h{}_{}", self.hosts, self.seed)
    }

    fn reproduce(&self) -> String {
        format!(
            "GENIE_MODEL_HOSTS={} GENIE_MODEL_SEED={} cargo test --test model_differential \
             switched_differential",
            self.hosts, self.seed
        )
    }
}

/// Runs one scenario through the real switched world and the
/// reference [`ModelSwitch`], comparing deliveries at every barrier.
fn run_switch_scenario(
    sc: &SwitchScenario,
    bug: SwitchBug,
    traced: bool,
) -> Result<SwitchRunStats, Divergence> {
    let mut cfg = SwitchConfig::new(sc.hosts, sc.port_credit);
    for (src, vc, dsts) in &sc.routes {
        cfg = cfg.route(*src, *vc, dsts);
    }
    let mut w = World::new(WorldConfig::switched(
        MachineSpec::micron_p166(),
        usize::from(sc.hosts),
        cfg,
    ));
    if traced {
        w.enable_tracing(true);
    }
    let spaces: Vec<_> = (0..sc.hosts).map(|h| w.create_process(HostId(h))).collect();
    let mut model = ModelSwitch::new(sc.hosts);

    let mut stats = SwitchRunStats::default();
    let mut pdu_idx = 0u64;
    // Sends in flight since the last barrier, per destination host.
    let mut inflight: BTreeMap<u16, usize> = BTreeMap::new();

    for (step, op) in sc.ops.iter().enumerate() {
        match *op {
            SwitchOp::Send { route, len } => {
                let (src, vc, dsts) = &sc.routes[route % sc.routes.len()];
                let len = len.clamp(1, sc.max_len);
                let data = payload(sc.seed ^ 0x5117c4, pdu_idx, len);
                pdu_idx += 1;
                let space = spaces[usize::from(*src)];
                let vaddr = w
                    .alloc_source(HostId(*src), space, sc.semantics, &data)
                    .expect("src buffer");
                w.output(
                    HostId(*src),
                    OutputRequest::new(sc.semantics, Vc(*vc), space, vaddr, len),
                )
                .expect("output");
                model.inject(*vc, dsts, data, bug);
                for &d in dsts {
                    *inflight.entry(d).or_default() += 1;
                }
                stats.sends += 1;
            }
            SwitchOp::Barrier => {
                barrier_check(sc, &mut w, &spaces, &mut model, bug, &mut stats)
                    .map_err(|d| Divergence::capture(&mut w, sc, traced, step, d))?;
                inflight.clear();
            }
        }
    }
    // Scenario end is an implicit barrier: drain whatever a shrunk op
    // list left in flight before judging conservation.
    let end = sc.ops.len();
    barrier_check(sc, &mut w, &spaces, &mut model, bug, &mut stats)
        .map_err(|d| Divergence::capture(&mut w, sc, traced, end, d))?;
    drop(inflight);

    // Conservation, cross-checked against the real switch's counters.
    let real = w.switch_stats().expect("switched world");
    stats.replicas = real.pdus_replicated;
    if real.pdus_ingress != model.injected || real.pdus_dispatched != model.enqueued {
        let detail = format!(
            "conservation: real ingress/dispatched = {}/{}, model = {}/{}",
            real.pdus_ingress, real.pdus_dispatched, model.injected, model.enqueued
        );
        return Err(Divergence::capture(&mut w, sc, traced, end, detail));
    }
    Ok(stats)
}

/// One barrier: post the receives the model predicts, run the real
/// world to quiescence, and compare every delivery per `(host, VC)`.
fn barrier_check(
    sc: &SwitchScenario,
    w: &mut World,
    spaces: &[genie_vm::SpaceId],
    model: &mut ModelSwitch,
    bug: SwitchBug,
    stats: &mut SwitchRunStats,
) -> Result<(), String> {
    // The model's prediction: per (destination, VC) payload queues,
    // in port-FIFO order.
    let mut want: BTreeMap<(u16, u32), VecDeque<Vec<u8>>> = BTreeMap::new();
    let mut total = 0usize;
    for h in 0..sc.hosts {
        for (vc, data) in model.drain(h, bug) {
            want.entry((h, vc)).or_default().push_back(data);
            total += 1;
        }
    }
    // Post exactly the predicted receives, then drain the
    // real fabric.
    let mut tokens: BTreeMap<u64, (u16, u32)> = BTreeMap::new();
    for (&(host, vc), q) in &want {
        let space = spaces[usize::from(host)];
        for data in q {
            let tok = w
                .post_receive(HostId(host), space, sc.semantics, Vc(vc), data.len(), 0)
                .expect("input");
            tokens.insert(tok, (host, vc));
        }
    }
    w.run();
    let done = w.take_completed_inputs();
    if done.len() != total {
        return Err(format!(
            "model predicts {total} deliveries, real world completed {}",
            done.len()
        ));
    }
    for c in &done {
        let &(host, vc) = tokens.get(&c.token).expect("known token");
        let expect = match want.get_mut(&(host, vc)).and_then(VecDeque::pop_front) {
            Some(e) => e,
            None => {
                return Err(format!(
                    "host {host} vc {vc}: more deliveries than the model predicted"
                ))
            }
        };
        if c.len != expect.len()
            || !w
                .app_matches(HostId(host), spaces[usize::from(host)], c.vaddr, &expect)
                .expect("readable delivery")
        {
            return Err(format!(
                "host {host} vc {vc}: delivery #{} differs from the model \
                 (per-VC FIFO or payload bytes)",
                stats.deliveries
            ));
        }
        stats.deliveries += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        for seed in 0..20 {
            let a = SwitchScenario::generate(4, seed);
            assert_eq!(a, SwitchScenario::generate(4, seed));
            let parsed = SwitchScenario::parse(&a.to_ops_string()).expect("parse");
            assert_eq!(a, parsed);
        }
    }

    #[test]
    fn every_route_owns_a_unique_vc() {
        for seed in 0..30 {
            let sc = SwitchScenario::generate(5, seed);
            let mut vcs: Vec<u32> = sc.routes.iter().map(|r| r.1).collect();
            vcs.sort_unstable();
            vcs.dedup();
            assert_eq!(vcs.len(), sc.routes.len(), "seed {seed}");
        }
    }

    #[test]
    fn faithful_model_agrees_on_a_seed_spread() {
        for seed in 0..10 {
            let sc = SwitchScenario::generate(4, seed);
            let stats = run_switch_scenario(&sc, SwitchBug::None, false)
                .unwrap_or_else(|d| panic!("seed {seed} diverged: {d}"));
            assert_eq!(stats.sends > 0, stats.deliveries > 0, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_garbage_with_the_offending_line() {
        let e = SwitchScenario::parse("hosts=2\nfly away\n").unwrap_err();
        assert!(e.contains("fly away"), "{e}");
    }
}
