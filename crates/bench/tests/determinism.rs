//! Thread-count determinism: exhibits rendered through the measurement
//! plan must be byte-identical no matter how many worker threads run it.
//!
//! This is the contract the parallel runner is built on: every cell is
//! a pure function of its index, results are collected in cell order,
//! and each `World` stays single-threaded. The test renders Figure 3,
//! Figure 4 (one ping-pong per cell), Table 7 (whose "A" lines fit the
//! Figure 3, 6 and 7 grids), the OC-12 check, the threshold ablation
//! and the waterfall (the P166 fit cells' 60 KB rounds) through a plan
//! at one thread and through a fresh plan at four, and compares the
//! rendered text bytes. A plan keeps nothing once it is dropped, so
//! both passes simulate every cell.
//!
//! Kept as the only test in this binary: it flips the global thread
//! override, which must not race sweeps run by unrelated tests.

#[test]
fn figure3_render_is_identical_serial_and_threaded() {
    const NAMES: [&str; 6] = ["fig3", "fig4", "table7", "oc12", "ablations", "waterfall"];
    const TITLES: [&str; 6] = [
        "Figure 3",
        "Figure 4",
        "Table 7",
        "OC-12",
        "Ablation",
        "Latency breakdown",
    ];
    let exhibits = genie_bench::exhibits();
    let selected: Vec<&genie_bench::Exhibit> = exhibits
        .iter()
        .filter(|e| NAMES.contains(&e.name))
        .collect();
    let render = |threads| {
        genie_runner::with_threads(threads, || {
            let (_, rendered) = genie_bench::render(&selected, &[]);
            rendered
                .into_iter()
                .map(|(_, text, _)| text)
                .collect::<Vec<_>>()
        })
    };
    let serial = render(1);
    let threaded = render(4);
    assert_eq!(
        serial, threaded,
        "plan-rendered output differs between 1 and 4 worker threads"
    );
    assert_eq!(serial.len(), NAMES.len());
    for (text, title) in serial.iter().zip(TITLES) {
        assert!(text.contains(title), "no {title} output:\n{text}");
    }
}
