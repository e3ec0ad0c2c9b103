//! What each exhibit needs from the measurement plan is declared beside
//! it (`Exhibit::needs`). Rendered alone, through a plan of only its
//! own needs, every exhibit must be byte-identical to the same exhibit
//! inside `all`: a need left out panics (the plan has no such input),
//! and a result that leaked between exhibits would show as a diff.
//!
//! Kept as the only test in this binary: it pins the global thread
//! override at one thread.

#[test]
fn every_exhibit_renders_alone_as_it_does_inside_all() {
    genie_runner::set_threads(1);
    let exhibits = genie_bench::exhibits();
    let all: Vec<&genie_bench::Exhibit> = exhibits.iter().collect();
    let (_, together) = genie_bench::render(&all, &[]);
    assert_eq!(together.len(), 19);
    for (e, (name, text, _)) in all.iter().zip(&together) {
        assert_eq!(e.name, *name);
        let (_, alone) = genie_bench::render(&[*e], &[]);
        assert_eq!(
            &alone[0].1, text,
            "{name} renders differently alone than inside all"
        );
    }
}
