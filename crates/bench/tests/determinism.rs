//! Thread-count determinism: exhibits rendered through the measurement
//! plan must be byte-identical no matter how many worker threads run it.
//!
//! This is the contract the parallel runner is built on: every cell is
//! a pure function of its index, results are collected in cell order,
//! and each `World` stays single-threaded. The test renders Figure 3
//! and Table 7 (whose "A" lines fit the Figure 3, 6 and 7 grids)
//! through a plan at one thread and through a fresh plan at four, and
//! compares the rendered text bytes. A plan keeps nothing once it is
//! dropped, so both passes simulate every sweep.
//!
//! Kept as the only test in this binary: it flips the global thread
//! override, which must not race sweeps run by unrelated tests.

#[test]
fn figure3_render_is_identical_serial_and_threaded() {
    let exhibits = genie_bench::exhibits();
    let selected: Vec<&genie_bench::Exhibit> = exhibits
        .iter()
        .filter(|e| ["fig3", "table7"].contains(&e.name))
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
        "figure 3 / table 7 output differs between 1 and 4 worker threads"
    );
    assert!(
        serial[0].contains("Figure 3") && serial[1].contains("Table 7"),
        "sweep produced no figure output"
    );
}
