//! The zeroed constructors allocate lazily: a fresh 134 MB buffer is
//! not resident until it is touched. Nothing else checks this, and a
//! change to how `Grid::new` or `Visibility::zeroed_vec` builds its
//! vector would lose it without moving any output bit, so the test pins
//! the process's resident set around each allocation. It lives in its
//! own test binary, so no other test allocates in the same process.
//!
//! Release builds only: a debug build runs the identity loop of the
//! collect and writes every page.

#![cfg(target_os = "linux")]

use idg_types::{Grid, Visibility};
use std::hint::black_box;

/// `VmRSS` of this process, in bytes.
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<usize>().ok())
        .expect("VmRSS line");
    kb * 1024
}

/// Under 8 MB of growth for a 134 MB allocation.
const MAX_GROWTH: usize = 8 << 20;

/// The lengths go through `black_box`: with a length known at compile
/// time LLVM may turn an eager fill into a zeroed allocation by itself,
/// which a library caller, whose length is a run-time value, never gets.
#[test]
#[cfg_attr(debug_assertions, ignore = "a debug build writes every page")]
fn fresh_buffers_are_not_resident() {
    let before = resident_bytes();
    let grid = Grid::<f32>::new(black_box(2048));
    let grown = resident_bytes().saturating_sub(before);
    assert_eq!(grid.as_slice().len(), 4 * 2048 * 2048);
    assert!(grown < MAX_GROWTH, "Grid::new(2048) grew RSS by {grown} B");
    drop(grid);

    let before = resident_bytes();
    let vis = Visibility::<f32>::zeroed_vec(black_box(4 << 20));
    let grown = resident_bytes().saturating_sub(before);
    assert_eq!(vis.len(), 4 << 20);
    assert!(
        grown < MAX_GROWTH,
        "Visibility::zeroed_vec grew RSS by {grown} B"
    );
}
