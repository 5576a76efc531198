//! E30 byte for byte against its section of EXPERIMENTS.md. E30 declares
//! no wall-clock cell — every figure is a simulated count or a closed
//! form — so a changed occupancy digit is a changed schedule, not host
//! noise.

mod common;

#[test]
fn e30_matches_its_experiments_section() {
    common::pin("E30");
}
