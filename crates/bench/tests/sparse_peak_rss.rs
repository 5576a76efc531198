//! The sparse plane's memory ceiling: closing the pinned 10⁵-vertex
//! power-law graph keeps the process's peak resident set under 128 MiB,
//! where the dense `n²/8` matrix alone would take 1.16 GiB. The binary
//! holds this one test, so the `VmHWM` it reads is the test's own.

use systolic_bench::sparse::scale_row;

#[test]
fn the_1e5_row_peaks_under_128_mib() {
    scale_row(10_000);
    let row = scale_row(100_000);
    let peak = row.peak_rss_bytes.expect("VmHWM is readable");
    assert!(
        peak <= 128 << 20,
        "peak RSS {:.1} MiB after the 10⁵ row, ceiling 128 MiB",
        peak as f64 / f64::from(1 << 20)
    );
}
