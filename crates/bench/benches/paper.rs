//! Regenerates the SGXGauge paper's figures, tables and ablations.
//!
//! `cargo bench -p sgxgauge-bench --bench paper` regenerates every one;
//! `-- <id>...` only the named ones (ids are the CSV stems). See
//! `sgxgauge_bench::paper`.

fn main() {
    // Cargo passes `--bench` to every bench binary.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Err(e) = sgxgauge_bench::paper::regenerate(&ids) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
