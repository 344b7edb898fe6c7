//! Golden test for Figure 17: the committed `experiments_output.txt` must
//! contain byte-for-byte the output `fig17::render()` produces today.
//!
//! Figure 17 is the paper's robustness centerpiece (outage → detection →
//! reconfiguration → recovery) and, since the fault plane rework, it runs
//! through the same `Schedule` API the chaos suite uses — this test
//! pins the figure while that machinery evolves. Only the bracketed
//! `[fig17 completed in …]` wall-time line is excluded (it is the one
//! non-deterministic line in the section).

use tiera_bench::experiments::fig17;

fn committed_fig17_section() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (regenerate with the experiments binary)"));
    let header = "fig17 — Figure 17: EBS outage, detection, reconfiguration, recovery\n\
                  ================================================================\n\n";
    let start =
        text.find(header).expect("experiments_output.txt contains the fig17 section header")
            + header.len();
    let rest = &text[start..];
    let end = rest.find("\n[fig17 completed").expect("fig17 section ends with the wall-time line");
    rest[..end].to_string()
}

#[test]
fn fig17_render_matches_the_committed_golden_output() {
    let expected = committed_fig17_section();
    let actual = fig17::render();
    assert!(
        expected == actual,
        "fig17 output drifted from experiments_output.txt.\n\
         If the change is intentional, regenerate the file with:\n  \
         cargo run --release -p tiera-bench --bin experiments -- --all\n\
         --- committed ---\n{expected}\n--- rendered ---\n{actual}"
    );
}

#[test]
fn fig17_render_is_deterministic() {
    assert_eq!(fig17::render(), fig17::render());
}
