//! Fan-in workloads: the spokes of a switched star send datagrams into
//! the hub in waves (`star_fanin`, and `lossy_fanin` under a fault
//! plan). A step is one wave: post the hub's receives, fill and send
//! every spoke's datagrams, run the world to quiescence, then verify
//! and free every delivered buffer. An op is one delivered, verified
//! datagram.

use std::collections::HashMap;
use std::rc::Rc;

use genie::{
    Allocation, HostId, InputRequest, OutputRequest, Semantics, World, WorldConfig, ALL_SEMANTICS,
};
use genie_fault::FaultConfig;
use genie_machine::MachineSpec;
use genie_net::{SwitchConfig, Vc};
use genie_vm::SpaceId;

use crate::cx::{splitmix, Abort, Counts, Cx, Fingerprint, Patterns};
use crate::probe::Layer;
use crate::workload::{Episode, Workload};

/// VC of spoke `i` is `VC_BASE + i`.
const VC_BASE: u32 = 500;
/// The hub's host.
const HUB: HostId = HostId(0);

/// What the switch's credit-stall counter must show at the end of an
/// episode for the workload to have exercised what it claims to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stalls {
    /// No stalls at all (every wave fits the per-port credit).
    None,
    /// Stalls and retransmits both happened.
    AndRetransmits,
}

/// A fan-in workload.
#[derive(Clone)]
pub struct FanIn {
    /// Hosts in the star (hub plus spokes).
    pub hosts: u16,
    /// Datagram size.
    pub bytes: usize,
    /// Datagrams per spoke per wave.
    pub per_spoke: usize,
    /// Timed waves per episode.
    pub waves: usize,
    /// Per-(port, VC) egress credit in cells.
    pub port_credit: u32,
    /// Fault plan of the episodes' worlds (an active plan's seed is
    /// varied per episode, see `setup`).
    pub fault: FaultConfig,
    /// Required fingerprint of an episode's simulated output.
    pub fingerprint: Option<u64>,
    /// Required credit-stall behaviour.
    pub stalls: Stalls,
    /// Payload source.
    pub patterns: Rc<Patterns>,
    /// Self-test hook: scribble on every n-th delivered buffer before
    /// it is verified (0 = never).
    pub corrupt_every: usize,
}

impl FanIn {
    /// `star_fanin`: a fault-free 64-host star, 2 KB datagrams.
    pub fn star(seed: u64) -> Self {
        FanIn {
            hosts: 64,
            bytes: 2048,
            per_spoke: 4,
            waves: 16,
            port_credit: 256,
            fault: FaultConfig::NONE,
            fingerprint: Some(STAR_FINGERPRINT),
            stalls: Stalls::None,
            patterns: Rc::new(Patterns::new(seed, 2048)),
            corrupt_every: 0,
        }
    }

    /// `lossy_fanin`: an 8-host star, 4 KB datagrams, masked faults.
    pub fn lossy(seed: u64) -> Self {
        let waves = 96;
        let datagrams = waves * 4 * 7;
        FanIn {
            hosts: 8,
            bytes: 4096,
            per_spoke: 4,
            waves,
            port_credit: 256,
            fault: FaultConfig {
                // One fault per 64 datagrams of the episode.
                max_faults: (datagrams / 64) as u32,
                ..FaultConfig::masked(seed)
            },
            fingerprint: None,
            stalls: Stalls::AndRetransmits,
            patterns: Rc::new(Patterns::new(seed, 4096)),
            corrupt_every: 0,
        }
    }

    fn per_wave(&self) -> usize {
        self.per_spoke * usize::from(self.hosts - 1)
    }
}

/// Fingerprint of one `star_fanin` episode's simulated latencies.
pub const STAR_FINGERPRINT: u64 = 0xaf19_db1c_b4c0_090c;

impl Workload for FanIn {
    type Episode = FanInEpisode;

    fn ops_per_episode(&self) -> u64 {
        (self.waves * self.per_wave()) as u64
    }

    fn setup(&self, cx: &mut Cx) -> Result<FanInEpisode, Abort> {
        let hosts = self.hosts;
        let (w, hub, procs) = cx.probe.time(Layer::WorldNew, || {
            let sw = SwitchConfig::star(hosts, 0, VC_BASE, self.port_credit);
            let mut cfg = WorldConfig::switched(MachineSpec::micron_p166(), hosts.into(), sw);
            cfg.fault = self.fault;
            if cfg.fault.active() {
                // Episodes cycle through eight plans drawn from the
                // seed, so a run's figures do not hang on one draw.
                cfg.fault.seed = splitmix(self.fault.seed ^ (cx.episode % 8) as u64);
            }
            let mut w = World::new(cfg);
            let hub = w.create_process(HUB);
            let procs: Vec<SpaceId> = (1..hosts).map(|i| w.create_process(HostId(i))).collect();
            (w, hub, procs)
        });
        let mut ep = FanInEpisode {
            cfg: self.clone(),
            w,
            hub,
            procs,
            wave: 0,
            pairs: Vec::with_capacity(self.per_wave()),
            expected: HashMap::with_capacity(self.per_wave()),
            seen: Vec::with_capacity(self.per_wave()),
            srcs: Vec::with_capacity(self.per_wave()),
            fp: Fingerprint::new(),
            delivered: 0,
            before: None,
        };
        // Warm-up: one datagram from every spoke, the semantics cycling
        // across spokes, so every host's caches and pools are touched.
        ep.pairs.extend((1..hosts).map(|i| {
            let sem = ALL_SEMANTICS[usize::from(i) % ALL_SEMANTICS.len()];
            (i, u64::MAX - u64::from(i), sem)
        }));
        ep.wave(cx, false)?;
        if cx.read_counts {
            ep.before = Some(Counts::of_world(&ep.w));
        }
        Ok(ep)
    }
}

/// One fan-in episode: a fresh star world.
pub struct FanInEpisode {
    cfg: FanIn,
    w: World,
    hub: SpaceId,
    procs: Vec<SpaceId>,
    wave: usize,
    /// This wave's datagrams: (spoke, index, semantics).
    pairs: Vec<(u16, u64, Semantics)>,
    /// Input token to index in `pairs`.
    expected: HashMap<u64, usize>,
    /// Which of `pairs` completed.
    seen: Vec<bool>,
    /// Application-allocated source buffers to free after the wave.
    srcs: Vec<(u16, u64)>,
    fp: Fingerprint,
    /// Datagrams delivered in timed waves.
    delivered: u64,
    /// Counters after warm-up, when this episode reads counts.
    before: Option<Counts>,
}

impl FanInEpisode {
    /// Runs the datagrams in `self.pairs` as one wave. Only `counted`
    /// waves add ops; a failure in the warm-up wave is a failure of
    /// the episode.
    fn wave(&mut self, cx: &mut Cx, counted: bool) -> Result<(), Abort> {
        let FanInEpisode {
            cfg,
            w,
            hub,
            procs,
            pairs,
            expected,
            seen,
            srcs,
            fp,
            ..
        } = self;
        let (bytes, hub) = (cfg.bytes, *hub);
        expected.clear();
        seen.clear();
        seen.resize(pairs.len(), false);
        srcs.clear();
        for (j, &(i, _, sem)) in pairs.iter().enumerate() {
            let vc = Vc(VC_BASE + u32::from(i));
            let req = match sem.allocation() {
                Allocation::Application => {
                    let (off, _) = cx
                        .probe
                        .time(Layer::InputPost, || w.preferred_alignment(HUB, vc));
                    let dst = cx
                        .probe
                        .time(Layer::VmAllocFill, || w.alloc_buffer(HUB, hub, bytes, off))?;
                    InputRequest::app(sem, vc, hub, dst, bytes)
                }
                Allocation::System => InputRequest::system(sem, vc, hub, bytes),
            };
            let token = cx.probe.time(Layer::InputPost, || w.input(HUB, req))?;
            expected.insert(token, j);
        }
        for &(i, k, sem) in pairs.iter() {
            let (host, space) = (HostId(i), procs[usize::from(i) - 1]);
            let data = cfg.patterns.get(u32::from(i), k, bytes);
            let src = cx.probe.time(Layer::VmAllocFill, || {
                let va = match sem.allocation() {
                    Allocation::Application => w.alloc_buffer(host, space, bytes, 0)?,
                    Allocation::System => w.host_mut(host).alloc_io_buffer(space, bytes)?.1,
                };
                w.app_write(host, space, va, data).map(|_| va)
            })?;
            let vc = Vc(VC_BASE + u32::from(i));
            let req = OutputRequest::new(sem, vc, space, src, bytes);
            cx.probe.time(Layer::OutputSend, || w.output(host, req))?;
            // A system-allocated buffer belongs to the output from here
            // on: move removes it, the other moves cache it for reuse.
            if sem.allocation() == Allocation::Application {
                srcs.push((i, src));
            }
        }
        let (done, sent) = cx.probe.time(Layer::WorldRun, || {
            w.run();
            (w.take_completed_inputs(), w.take_completed_outputs())
        });
        check_quiesced(w)?;
        if sent.len() != pairs.len() {
            return Err(Abort(format!(
                "{} of {} sends completed",
                sent.len(),
                pairs.len()
            )));
        }
        for (n, c) in done.iter().enumerate() {
            let Some(&j) = expected.get(&c.token) else {
                cx.fail(|| format!("completion for unknown input token {}", c.token));
                continue;
            };
            if std::mem::replace(&mut seen[j], true) {
                cx.fail(|| format!("duplicate completion for input token {}", c.token));
                continue;
            }
            let (i, k, sem) = pairs[j];
            fp.add(c.latency.0);
            if cfg.corrupt_every > 0 && n.is_multiple_of(cfg.corrupt_every) {
                let first = cfg.patterns.get(u32::from(i), k, 1)[0];
                w.app_write(HUB, hub, c.vaddr, &[!first])?;
            }
            let want = cfg.patterns.get(u32::from(i), k, bytes);
            let ok = c.len == bytes
                && c.checksum_ok
                && cx
                    .probe
                    .time(Layer::VmVerify, || w.app_matches(HUB, hub, c.vaddr, want))?;
            cx.probe
                .time(Layer::VmFree, || w.host_mut(HUB).free_buffer(hub, c.vaddr))?;
            match (ok, counted) {
                (true, true) => cx.ok_ops += 1,
                (true, false) => {}
                (false, true) => cx.note(|| format!("{sem} datagram {k} of spoke {i} corrupted")),
                (false, false) => {
                    cx.fail(|| format!("{sem} warm-up datagram of spoke {i} corrupted"))
                }
            }
        }
        if let Some(j) = seen.iter().position(|s| !s) {
            let (i, k, sem) = pairs[j];
            let what = || format!("{sem} datagram {k} of spoke {i} never delivered");
            if counted {
                cx.note(what);
            } else {
                cx.fail(what);
            }
        }
        for c in &sent {
            fp.add(c.completed_at.0);
        }
        for &(i, src) in srcs.iter() {
            let (host, space) = (HostId(i), procs[usize::from(i) - 1]);
            cx.probe
                .time(Layer::VmFree, || w.host_mut(host).free_buffer(space, src))?;
        }
        if counted {
            self.delivered += seen.iter().filter(|s| **s).count() as u64;
        }
        Ok(())
    }
}

/// Switch conservation at quiesce: every output FIFO drained and every
/// PDU that entered the switch dispatched.
pub fn check_quiesced(w: &World) -> Result<(), Abort> {
    let sw = w.switch().expect("fan-in worlds are switched");
    let s = sw.stats();
    if let Some(p) = (0..sw.ports()).find(|&p| sw.queue_len(p) != 0) {
        return Err(Abort(format!("PDUs stranded in port {p} at quiesce")));
    }
    if s.pdus_ingress + s.pdus_replicated != s.pdus_dispatched {
        return Err(Abort(format!("switch conservation broken: {s:?}")));
    }
    Ok(())
}

impl Episode for FanInEpisode {
    fn step(&mut self, cx: &mut Cx) -> Result<bool, Abort> {
        let sem = ALL_SEMANTICS[self.wave % ALL_SEMANTICS.len()];
        let base = (self.wave * self.cfg.per_spoke) as u64;
        self.pairs.clear();
        for k in 0..self.cfg.per_spoke as u64 {
            self.pairs
                .extend((1..self.cfg.hosts).map(|i| (i, base + k, sem)));
        }
        self.wave(cx, true)?;
        self.wave += 1;
        Ok(self.wave < self.cfg.waves)
    }

    fn finish(self, cx: &mut Cx) -> Result<(), String> {
        let stalls = self.w.switch_stats().map_or(0, |s| s.credit_stalls);
        let retransmits = self.w.fault_stats().retransmits;
        match self.cfg.stalls {
            Stalls::None if stalls > 0 => {
                return Err(format!("{stalls} credit stalls in a fault-free fan-in"));
            }
            Stalls::AndRetransmits if stalls == 0 || retransmits == 0 => {
                return Err(format!(
                    "lossy fan-in saw {stalls} credit stalls and {retransmits} retransmits"
                ));
            }
            _ => {}
        }
        if let Some(want) = self.cfg.fingerprint {
            if self.fp.0 != want {
                return Err(format!(
                    "simulated-output fingerprint {:#018x}, expected {want:#018x}",
                    self.fp.0
                ));
            }
        }
        if cx.read_counts {
            cx.counts
                .add_delta(&Counts::of_world(&self.w), self.before.as_ref());
            cx.counts.ops += self.cfg.ops_per_episode();
            cx.counts.datagrams += self.delivered;
        }
        Ok(())
    }
}
