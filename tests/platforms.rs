//! Cross-platform behaviour (paper Table 8 and Section 8): the other
//! two machines of Table 5 and the OC-12 link.

use genie::{measure_latency, throughput_mbps, ExperimentSetup, Semantics};
use genie_analysis::{param_ratios, ParamClass};
use genie_bench::plan::{measure, Input};
use genie_machine::{LinkSpec, MachineSpec};

#[test]
fn experiments_run_identically_on_all_three_platforms() {
    // 8 KB pages on the Alpha included: delivery stays byte-exact
    // (checked inside the sweep) and the copy-vs-rest shape holds.
    for machine in MachineSpec::all() {
        let setup = ExperimentSetup::early_demux(machine.clone());
        let copy = measure_latency(&setup, Semantics::Copy, 8 * 4096).expect("copy");
        let emu = measure_latency(&setup, Semantics::EmulatedCopy, 8 * 4096).expect("emu");
        assert!(
            copy > emu,
            "{}: copy {copy:?} must trail emulated copy {emu:?}",
            machine.name
        );
    }
}

#[test]
fn slower_machine_is_slower() {
    let p166 = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    let p90 = ExperimentSetup::early_demux(MachineSpec::gateway_p5_90());
    for sem in [Semantics::Copy, Semantics::EmulatedCopy, Semantics::Move] {
        let fast = measure_latency(&p166, sem, 61_440).expect("m");
        let slow = measure_latency(&p90, sem, 61_440).expect("m");
        assert!(slow > fast, "{sem}: P5-90 {slow:?} vs P166 {fast:?}");
    }
}

#[test]
fn gateway_ratios_match_table8_bands() {
    let base_m = MachineSpec::micron_p166();
    let other_m = MachineSpec::gateway_p5_90();
    let plan = measure(&[Input::Fits(base_m.clone()), Input::Fits(other_m.clone())]);
    let ratios = param_ratios(&base_m, &other_m, plan.fits(&base_m), plan.fits(&other_m));
    let get = |class: ParamClass| {
        *ratios
            .iter()
            .find(|r| r.class == class)
            .unwrap_or_else(|| panic!("{class:?} missing"))
    };
    // Paper: memory-dominated estimated 2.40, actual 2.43.
    let mem = get(ParamClass::Memory);
    assert!((2.3..2.5).contains(&mem.gm), "memory GM {}", mem.gm);
    // Paper: cache-dominated actual 2.46 within (1.44, 3.33).
    let cache = get(ParamClass::Cache);
    assert!((1.44..3.33).contains(&cache.gm), "cache GM {}", cache.gm);
    // Paper: CPU-dominated GM 1.79-1.83, min >= 1.53, max <= 2.59,
    // all above the estimated lower bound 1.57.
    for class in [ParamClass::CpuMult, ParamClass::CpuFixed] {
        let c = get(class);
        assert!(
            c.gm >= c.estimated * 0.98,
            "{class:?}: GM {} below estimate {}",
            c.gm,
            c.estimated
        );
        assert!((1.5..2.2).contains(&c.gm), "{class:?} GM {}", c.gm);
        assert!(c.min >= 1.4, "{class:?} min {}", c.min);
        assert!(c.max <= 2.7, "{class:?} max {}", c.max);
    }
}

#[test]
fn alpha_ratios_show_wide_architectural_variance() {
    // Paper: GM consistent with the model but variance much higher
    // than the Gateway's (0.47..3.77 observed).
    let base_m = MachineSpec::micron_p166();
    let other_m = MachineSpec::alphastation_255();
    let plan = measure(&[Input::Fits(base_m.clone()), Input::Fits(other_m.clone())]);
    let ratios = param_ratios(&base_m, &other_m, plan.fits(&base_m), plan.fits(&other_m));
    let cpu = ratios
        .iter()
        .find(|r| r.class == ParamClass::CpuMult)
        .expect("cpu mult");
    let spread = cpu.max / cpu.min;
    assert!(
        spread > 2.0,
        "Alpha per-op spread {spread:.2} should be wide (paper: ~5x)"
    );
    assert!(
        (1.0..2.5).contains(&cpu.gm),
        "Alpha CPU GM {} should still be model-consistent",
        cpu.gm
    );
    // Memory-dominated: the two machines have nearly equal memory
    // bandwidth (351 vs 350 Mbps).
    let mem = ratios
        .iter()
        .find(|r| r.class == ParamClass::Memory)
        .expect("memory");
    assert!((0.9..1.1).contains(&mem.gm), "memory GM {}", mem.gm);
}

#[test]
fn oc12_widens_the_copy_gap() {
    // Section 8: at OC-12 the gap between copy and the rest widens;
    // emulated copy approaches 3x copy's throughput.
    let mut setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    setup.link = LinkSpec::oc12();
    let copy = throughput_mbps(
        61_440,
        measure_latency(&setup, Semantics::Copy, 61_440).expect("m"),
    );
    let emu = throughput_mbps(
        61_440,
        measure_latency(&setup, Semantics::EmulatedCopy, 61_440).expect("m"),
    );
    assert!(
        (120.0..160.0).contains(&copy),
        "copy {copy:.0} Mbps (paper ~140)"
    );
    assert!(
        (380.0..430.0).contains(&emu),
        "emu copy {emu:.0} Mbps (paper ~404)"
    );
    assert!(
        emu / copy > 2.5,
        "ratio {:.2} (paper: almost 3x)",
        emu / copy
    );
}

#[test]
fn oc3_to_oc12_leaves_fixed_costs_alone() {
    // The network-dominated multiplicative factor scales by 4; fixed
    // terms do not change.
    let m = MachineSpec::micron_p166();
    let mut oc3 = ExperimentSetup::early_demux(m.clone());
    oc3.link = LinkSpec::oc3();
    let mut oc12 = ExperimentSetup::early_demux(m);
    oc12.link = LinkSpec::oc12();
    let tiny = 64usize;
    let l3 = measure_latency(&oc3, Semantics::EmulatedShare, tiny).expect("m");
    let l12 = measure_latency(&oc12, Semantics::EmulatedShare, tiny).expect("m");
    let diff = (l3.as_us() - l12.as_us()).abs();
    assert!(diff < 6.0, "fixed term moved by {diff:.1} us");
}
