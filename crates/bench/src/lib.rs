//! Experiment generators: one function per table and figure of the
//! paper, rendered by the `report` binary.
//!
//! Every generator returns plain text formatted like the paper's
//! corresponding exhibit, produced by actually running the simulator
//! (figures, Tables 6–8) or by querying the implementation's own
//! structures (the taxonomy, the op tables, the machine specs). The
//! sweeps and fits several exhibits share come from one measurement
//! [`plan`]; [`render`] measures it, then renders from it.

pub mod compare;
pub mod fabric;
pub mod inspect;
pub mod plan;
pub mod revision;
pub mod timing;

pub use fabric::{
    fabric_cq_exhibit, fabric_cq_json_section, fabric_cq_run, fabric_exhibit, fabric_json_sections,
    fabric_metrics_report, fabric_scale_exhibit, fabric_scale_json_section, fabric_scale_run,
    ScaleReport,
};
pub use plan::{Input, Measured, Sizes};

use std::time::Instant;

use genie::oplists::{self, OpUse, Scale};
use genie::{
    latency_sweep, measure_ping_pong, throughput_mbps, ExperimentSetup, GenieConfig, Semantics,
    SeriesContext,
};
use genie_analysis::table6::FIT_SCHEMES;
use genie_analysis::{
    actual_line, estimate_line, param_ratios, predict_oc12_throughput, render_series, render_table,
    BufferingScheme,
};
use genie_machine::{LinkSpec, MachineSpec};

/// One exhibit of the report.
pub struct Exhibit {
    /// The name `report` selects it by.
    pub name: &'static str,
    /// The plan inputs it renders from (none for an exhibit that
    /// shares no measurement and does its own work).
    pub needs: Vec<Input>,
    /// Renders the exhibit's text from a plan that measured `needs`.
    pub render: fn(&Measured) -> String,
}

/// Every exhibit, in canonical order.
pub fn exhibits() -> Vec<Exhibit> {
    use BufferingScheme::{EarlyDemux, Outboard, PooledAligned, PooledUnaligned};
    let ex = |name, needs, render| Exhibit {
        name,
        needs,
        render,
    };
    let grid = |scheme| vec![Input::Grid(scheme, Sizes::Figure)];
    vec![
        ex("table1", vec![], |_| table1()),
        ex("fig1", vec![], |_| figure1()),
        ex("fig2", vec![], |_| figure2()),
        ex("table2", vec![], |_| table2()),
        ex("table3", vec![], |_| table3()),
        ex("table4", vec![], |_| table4()),
        ex("table5", vec![], |_| table5()),
        ex("fig3", grid(EarlyDemux), figure3),
        ex("fig4", vec![], |_| figure4()),
        ex("fig5", vec![Input::Grid(EarlyDemux, Sizes::Short)], figure5),
        ex("fig6", grid(PooledAligned), figure6),
        ex("fig7", grid(PooledUnaligned), figure7),
        ex(
            "table6",
            vec![Input::Fits(MachineSpec::micron_p166())],
            table6,
        ),
        ex(
            "table7",
            FIT_SCHEMES.iter().flat_map(|&s| grid(s)).collect(),
            table7,
        ),
        ex(
            "table8",
            MachineSpec::all().into_iter().map(Input::Fits).collect(),
            table8,
        ),
        ex("oc12", vec![], |_| oc12()),
        ex("outboard", grid(Outboard), outboard),
        ex("ablations", vec![], |_| ablation_thresholds()),
        ex("waterfall", vec![], |_| breakdown_waterfall()),
    ]
}

/// Renders `selected` in two steps: one plan measures every input they
/// need plus `extra`, then each exhibit renders from it as one pool
/// cell. Returns the plan and, in `selected` order, each exhibit's
/// name, text and render wall clock in ms.
pub fn render(
    selected: &[&Exhibit],
    extra: &[Input],
) -> (Measured, Vec<(&'static str, String, f64)>) {
    let measured = plan::measure(selected.iter().flat_map(|e| &e.needs).chain(extra));
    let rendered = genie_runner::map(selected, |e| {
        let t = Instant::now();
        let text = (e.render)(&measured);
        (e.name, text, t.elapsed().as_secs_f64() * 1e3)
    });
    (measured, rendered)
}

/// Table 1: LAN bandwidth history (static data from the paper).
pub fn table1() -> String {
    let rows = [
        ("Token ring", "1972", "1, 4, or 16"),
        ("Ethernet", "1976", "3 or 10"),
        ("FDDI", "1987", "100"),
        ("ATM", "1989", "155, 622, or 2488"),
        ("HIPPI", "1992", "800 or 1600"),
    ]
    .iter()
    .map(|(l, y, b)| vec![l.to_string(), y.to_string(), b.to_string()])
    .collect::<Vec<_>>();
    format!(
        "# Table 1: LAN point-to-point bandwidths\n{}",
        render_table(&["LAN", "Year introduced", "Bandwidth (Mbps)"], &rows)
    )
}

/// Figure 1: the taxonomy, as implemented.
pub fn figure1() -> String {
    let rows: Vec<Vec<String>> = Semantics::ALL
        .iter()
        .map(|s| {
            vec![
                s.label().to_string(),
                format!("{:?}", s.allocation()),
                format!("{:?}", s.integrity()),
                if s.optimized() { "emulated" } else { "basic" }.to_string(),
            ]
        })
        .collect();
    format!(
        "# Figure 1: taxonomy of data passing semantics\n{}",
        render_table(
            &["semantics", "allocation", "integrity", "optimization"],
            &rows
        )
    )
}

/// Figure 2: the input-alignment plan, as a worked example.
pub fn figure2() -> String {
    use genie::{plan_aligned_input, PageAction};
    let mut out = String::from(
        "# Figure 2: input alignment — worked example\n\
         buffer at page offset 16 (unstripped header), 3 pages of data,\n\
         reverse-copyout threshold 2178:\n",
    );
    for p in plan_aligned_input(4096, 16, 3 * 4096, 2178) {
        let action = match p.action {
            PageAction::CopyOut => "copy out".to_string(),
            PageAction::SwapWhole => "swap pages".to_string(),
            PageAction::FillAndSwap {
                fill_prefix,
                fill_suffix,
            } => format!("complete ({fill_prefix}+{fill_suffix} B from app page), then swap"),
        };
        out.push_str(&format!(
            "  page {}: data [{}, {}) -> {}\n",
            p.page,
            p.data_start,
            p.data_start + p.data_len,
            action
        ));
    }
    out
}

fn oplist_cell(ops: &[OpUse]) -> String {
    if ops.is_empty() {
        "-".to_string()
    } else {
        ops.iter()
            .map(|u| {
                let mark = match u.scale {
                    Scale::Fixed => "",
                    Scale::Buffer => "(B)",
                };
                format!("{}{}", u.op.name(), mark)
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A table of one op list per column for every semantics, as Tables
/// 2–4 lay them out.
fn oplist_table(title: &str, headers: &[&str], cols: &[fn(Semantics) -> Vec<OpUse>]) -> String {
    let rows: Vec<Vec<String>> = Semantics::ALL
        .iter()
        .map(|&s| {
            let ops = cols.iter().map(|col| oplist_cell(&col(s)));
            std::iter::once(s.label().to_string()).chain(ops).collect()
        })
        .collect();
    format!("# {title}\n{}", render_table(headers, &rows))
}

/// Table 2: output operations per semantics.
pub fn table2() -> String {
    oplist_table(
        "Table 2: operations for data output",
        &["semantics", "prepare", "dispose"],
        &[oplists::output_prepare, oplists::output_dispose],
    )
}

/// Table 3: input operations with early demultiplexing.
pub fn table3() -> String {
    oplist_table(
        "Table 3: input operations, early demultiplexing",
        &["semantics", "prepare", "ready", "dispose"],
        &[
            oplists::input_prepare_early,
            oplists::input_ready_early,
            oplists::input_dispose_early,
        ],
    )
}

/// Table 4: input operations with pooled buffering.
pub fn table4() -> String {
    oplist_table(
        "Table 4: input operations, pooled buffering",
        &[
            "semantics",
            "ready",
            "dispose (aligned)",
            "dispose (unaligned)",
        ],
        &[
            oplists::input_ready_pooled,
            |s| oplists::input_dispose_pooled(s, true),
            |s| oplists::input_dispose_pooled(s, false),
        ],
    )
}

/// Table 5: the experimental platforms.
pub fn table5() -> String {
    let rows: Vec<Vec<String>> = MachineSpec::all()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                format!("{:.2}", m.specint95),
                format!("{} KB", m.l1d_bytes / 1024),
                format!("{} KB @ {:.0} Mbps", m.l2_bytes / 1024, m.l2_bw_mbps),
                format!(
                    "{} MB @ {:.0} Mbps, {} KB page",
                    m.mem_bytes / (1024 * 1024),
                    m.mem_bw_mbps,
                    m.page_size / 1024
                ),
            ]
        })
        .collect();
    format!(
        "# Table 5: experimental platforms\n{}",
        render_table(
            &["machine", "SPECint95", "L1 D-cache", "L2 cache", "memory"],
            &rows
        )
    )
}

/// A latency figure rendered from a plan grid: one (bytes, µs) series
/// per semantics, and for page-multiple grids each semantics'
/// equivalent throughput for a single 60 KB datagram.
fn latency_figure(m: &Measured, scheme: BufferingScheme, sizes: Sizes, title: &str) -> String {
    let series: Vec<(String, Vec<(f64, f64)>)> = Semantics::ALL
        .iter()
        .zip(m.grid(scheme, sizes))
        .map(|(s, pts)| {
            let pts = pts.iter().map(|p| (p.bytes as f64, p.latency.as_us()));
            (s.label().to_string(), pts.collect())
        })
        .collect();
    let mut out = render_series(title, "bytes", &series);
    if sizes == Sizes::Figure {
        out.push_str("\nequivalent throughput for single 61440-byte datagrams:\n");
        for (label, pts) in &series {
            let (bytes, us) = pts.iter().find(|p| p.0 == 61_440.0).expect("60 KB point");
            out.push_str(&format!("  {label:<20} {:>5.0} Mbps\n", bytes * 8.0 / us));
        }
    }
    out
}

/// Figure 3: end-to-end latency with early demultiplexing.
pub fn figure3(m: &Measured) -> String {
    let title = "Figure 3: latency (us) vs datagram bytes, early demultiplexing";
    latency_figure(m, BufferingScheme::EarlyDemux, Sizes::Figure, title)
}

/// Figure 4: CPU utilization while running the Figure 3 experiment.
pub fn figure4() -> String {
    let setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    let sizes: Vec<usize> = [1, 3, 5, 8, 11, 15].iter().map(|i| i * 4096).collect();
    let series: Vec<(String, Vec<(f64, f64)>)> = genie_runner::map(&Semantics::ALL, |&s| {
        let pts: Vec<(f64, f64)> = sizes
            .iter()
            .map(|&b| {
                let (_lat, util) = measure_ping_pong(&setup, s, b, 4).expect("ping-pong");
                (b as f64, util * 100.0)
            })
            .collect();
        (s.label().to_string(), pts)
    });
    render_series(
        "Figure 4: CPU utilization (%) vs datagram bytes, early demultiplexing",
        "bytes",
        &series,
    )
}

/// Figure 5: short-datagram latency with early demultiplexing
/// (thresholds and reverse copyout in action).
pub fn figure5(m: &Measured) -> String {
    let title = "Figure 5: short-datagram latency (us), early demultiplexing";
    latency_figure(m, BufferingScheme::EarlyDemux, Sizes::Short, title)
}

/// Figure 6: latency with application-aligned pooled input buffering.
pub fn figure6(m: &Measured) -> String {
    let title = "Figure 6: latency (us) vs bytes, application-aligned pooled input";
    latency_figure(m, BufferingScheme::PooledAligned, Sizes::Figure, title)
}

/// Figure 7: latency with unaligned pooled input buffering.
pub fn figure7(m: &Measured) -> String {
    let title = "Figure 7: latency (us) vs bytes, unaligned pooled input";
    latency_figure(m, BufferingScheme::PooledUnaligned, Sizes::Figure, title)
}

/// Table 6: primitive-operation costs from instrumented runs.
pub fn table6(m: &Measured) -> String {
    let fits = m.fits(&MachineSpec::micron_p166());
    let rows: Vec<Vec<String>> = fits
        .iter()
        .map(|f| {
            vec![
                f.op.name().to_string(),
                format!("{:.6} B + {:.1}", f.fit.slope, f.fit.intercept),
                format!("{}", f.samples),
            ]
        })
        .collect();
    format!(
        "# Table 6: primitive data-passing operation costs (us), measured\n{}",
        render_table(&["operation", "latency fit", "samples"], &rows)
    )
}

/// Table 7: estimated vs actual end-to-end latency fits. The "A" lines
/// fit the Figure 3/6/7 grids, whose sizes are [`fit_sizes`] on the
/// P166's 4 KB pages.
///
/// [`fit_sizes`]: genie_analysis::breakdown::fit_sizes
pub fn table7(m: &Measured) -> String {
    let model = genie_machine::CostModel::new(MachineSpec::micron_p166());
    let link = LinkSpec::oc3();
    let mut rows = Vec::new();
    for (i, &sem) in Semantics::ALL.iter().enumerate() {
        let mut e_row = vec![sem.label().to_string(), "E".to_string()];
        let mut a_row = vec![String::new(), "A".to_string()];
        for scheme in FIT_SCHEMES {
            let e = estimate_line(&model, &link, sem, scheme);
            let a = actual_line(&m.grid(scheme, Sizes::Figure)[i]);
            e_row.push(format!("{:.4} B + {:.0}", e.slope, e.intercept));
            a_row.push(format!("{:.4} B + {:.0}", a.slope, a.intercept));
        }
        rows.push(e_row);
        rows.push(a_row);
    }
    format!(
        "# Table 7: estimated (E) and actual (A) end-to-end latencies (us)\n{}",
        render_table(
            &[
                "semantics",
                "",
                "early demultiplexing",
                "appl.-aligned pooled",
                "unaligned pooled",
            ],
            &rows
        )
    )
}

/// Table 8: cross-platform scaling of data-passing costs.
pub fn table8(m: &Measured) -> String {
    let base_machine = MachineSpec::micron_p166();
    let base = m.fits(&base_machine);
    let mut out =
        String::from("# Table 8: scaling of data passing costs relative to the Micron P166\n");
    // Each other Table 5 platform against the base.
    for other_machine in &MachineSpec::all()[1..] {
        let other = m.fits(other_machine);
        let summaries = param_ratios(&base_machine, other_machine, base, other);
        let rows: Vec<Vec<String>> = summaries
            .iter()
            .map(|s| {
                vec![
                    s.class.label().to_string(),
                    format!("> {:.2}", s.estimated),
                    format!("{:.2}", s.gm),
                    format!("{:.2}", s.min),
                    format!("{:.2}", s.max),
                    format!("{}", s.count),
                ]
            })
            .collect();
        out.push_str(&format!("\n## {}\n", other_machine.name));
        out.push_str(&render_table(
            &["type of parameter", "estimated", "GM", "min", "max", "n"],
            &rows,
        ));
    }
    out
}

/// Section 8's OC-12 extrapolation.
pub fn oc12() -> String {
    let mut out =
        String::from("# Section 8: predicted 60 KB throughput at OC-12 (622 Mbps), Micron P166\n");
    let paper = [
        (Semantics::Copy, 140.0),
        (Semantics::EmulatedCopy, 404.0),
        (Semantics::EmulatedShare, 463.0),
        (Semantics::Move, 380.0),
    ];
    out.push_str(&format!(
        "{:<20} {:>12} {:>12}\n",
        "semantics", "model Mbps", "paper Mbps"
    ));
    for (sem, want) in paper {
        let got = predict_oc12_throughput(MachineSpec::micron_p166(), sem);
        out.push_str(&format!(
            "{:<20} {:>12.0} {:>12.0}\n",
            sem.label(),
            got,
            want
        ));
    }
    // And measured through the full simulator.
    out.push_str("\nmeasured through the simulator at OC-12:\n");
    let mut setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    setup.link = LinkSpec::oc12();
    for sem in Semantics::ALL {
        let pts = latency_sweep(&setup, sem, &[61_440]);
        out.push_str(&format!(
            "{:<20} {:>12.0} Mbps\n",
            sem.label(),
            throughput_mbps(61_440, pts[0].latency)
        ));
    }
    out
}

/// Section 6.2.3: outboard buffering (simulated; the paper's hardware
/// could not measure it).
pub fn outboard(m: &Measured) -> String {
    let title = "Outboard buffering (extension): latency (us) vs bytes";
    latency_figure(m, BufferingScheme::Outboard, Sizes::Figure, title)
        + "\nper Section 6.2.3 the store-and-forward stage adds equal latency to all\n\
           semantics except emulated copy, which lands closest to emulated share.\n"
}

/// Ablation: emulated copy's output threshold (automatic conversion
/// to copy) on and off.
pub fn ablation_thresholds() -> String {
    let with = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    let mut without = with.clone();
    without.genie = GenieConfig::default().without_thresholds();
    let mut rows = Vec::new();
    for b in [256, 512, 1024, 1536, 2048] {
        let w = latency_sweep(&with, Semantics::EmulatedCopy, &[b])[0].latency;
        let wo = latency_sweep(&without, Semantics::EmulatedCopy, &[b])[0].latency;
        rows.push(vec![
            format!("{b}"),
            format!("{:.0}", w.as_us()),
            format!("{:.0}", wo.as_us()),
        ]);
    }
    format!(
        "# Ablation: emulated-copy output threshold (auto-conversion to copy)\n{}",
        render_table(&["bytes", "with thresholds (us)", "without (us)"], &rows)
    )
}

/// Latency-breakdown waterfall: the operations one 60 KB early-demux
/// exchange charges, per semantics, with their simulated costs — the
/// Section 8 decomposition made visible.
pub fn breakdown_waterfall() -> String {
    let mut setup = ExperimentSetup::early_demux(MachineSpec::micron_p166());
    setup.genie = setup.genie.without_thresholds();
    let mut out =
        String::from("# Latency breakdown: per-op charges of one 60 KB exchange (early demux)\n");
    let traced = genie_runner::map(&Semantics::ALL, |&sem| {
        SeriesContext::new(&setup, &[61_440])
            .measure_charges(sem, 61_440)
            .expect("instrumented run")
    });
    for (sem, (lat, trace)) in Semantics::ALL.iter().zip(traced) {
        out.push_str(&format!(
            "\n## {} — end-to-end {:.0} us\n",
            sem.label(),
            lat.as_us()
        ));
        let mut rows = Vec::new();
        for (op, e) in trace.charges() {
            rows.push(vec![
                op.name().to_string(),
                format!("{}", e.bytes),
                format!("{}", e.units),
                format!("{:.1}", e.dur.as_us()),
            ]);
        }
        out.push_str(&render_table(&["op", "bytes", "units", "cost (us)"], &rows));
    }
    out
}
