//! The report bytes are the reproduction's contract: the quick-scale
//! `experiments all --json` report must match the committed golden file byte
//! for byte. Any change that moves a number, a row, or a formatting detail
//! fails here; a deliberate change regenerates the file with
//!
//! ```text
//! LSQCA_NO_STORE=1 cargo run --release -p lsqca-bench \
//!     --bin experiments -- all --json > tests/golden/quick_all.json
//! ```

#[test]
fn quick_all_json_report_matches_the_golden_file() {
    // Render from scratch: no stored results from an earlier run may stand
    // in for simulation. The setting is read once, at first use, so it is set
    // before anything else runs.
    std::env::set_var("LSQCA_NO_STORE", "1");

    // `println!` appends the final newline the binary prints.
    let rendered = lsqca_bench::report("all", lsqca_bench::Scale::Quick, true) + "\n";
    let golden = include_str!("golden/quick_all.json");
    if rendered != golden {
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "quick `all --json` report differs from tests/golden/quick_all.json at line {}:\n\
             rendered: {:?}\n  golden: {:?}",
            line + 1,
            rendered.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
