//! EXPERIMENTS.md is the generator's output, and the generator stays near
//! the paper. Determinism across runs is `vcheck`'s gate, which runs every
//! experiment twice and hashes the full reports.

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

#[test]
fn experiments_md_is_generated_and_near_the_paper() {
    for &(id, run) in vsim::EXPERIMENTS {
        let rep = run();
        assert_eq!(rep.id, id, "EXPERIMENTS is keyed by report id");
        // Regenerate with `cargo run -p vsim -- all --markdown`.
        let md = rep.to_markdown();
        assert!(
            EXPERIMENTS_MD.contains(&md),
            "EXPERIMENTS.md does not hold the generated {id} section:\n{md}"
        );
        // The global shape check: every row with a paper value must land
        // within 25% (most are within 2%; EXP-3's no-overlap model and
        // EXP-5's footprint analogue are the documented outliers).
        for row in &rep.rows {
            if let Some(dev) = row.deviation_pct() {
                assert!(
                    dev.abs() < 25.0,
                    "{id}/{}: {dev:+.1}% off the paper",
                    row.label
                );
            }
        }
    }
}
