//! A grid pass hands back a grid that is not resident until touched.
//!
//! `Grid::new` is lazy only where the optimiser folds the identity loop
//! of `Complex::zeroed_vec` away. `idg-types`' `lazy_zero` test checks
//! that from its own crate; this one checks it where a pass allocates.
//! A grid pass over a plan with no work items adds nothing onto its
//! fresh 2048² grid, so the process's resident set must not grow by the
//! grid's 134 MB. It lives in its own test binary, so no other test
//! allocates in the same process.
//!
//! Release builds only: a debug build runs the identity loop and writes
//! every page.

#![cfg(target_os = "linux")]

use idg::telescope::ATerms;
use idg::types::{Observation, Uvw, Visibility};
use idg::{Backend, Proxy};

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

/// Under 8 MB of growth for a 134 MB grid.
const MAX_GROWTH: usize = 8 << 20;

#[test]
#[cfg_attr(debug_assertions, ignore = "a debug build writes every page")]
fn a_grid_pass_over_no_items_leaves_its_fresh_grid_non_resident() {
    let obs = Observation::builder()
        .stations(2)
        .timesteps(1)
        .channels(1, 150e6, 1e6)
        .grid_size(2048)
        .subgrid_size(24)
        .image_size(0.05)
        .build()
        .unwrap();
    let proxy = Proxy::new(Backend::CpuOptimized, obs.clone()).unwrap();
    // every visibility far outside the grid: the plan skips them all
    let uvw = vec![Uvw::new(1e7, 1e7, 0.0); obs.nr_baselines() * obs.nr_timesteps];
    let visibilities = vec![Visibility::<f32>::zero(); obs.nr_visibilities()];
    let aterms = ATerms::identity(&obs);
    let plan = proxy.plan(&uvw).unwrap();
    assert!(plan.items.is_empty());

    let before = resident_bytes();
    let (grid, _) = proxy.grid(&plan, &uvw, &visibilities, &aterms).unwrap();
    let grown = resident_bytes().saturating_sub(before);
    assert_eq!(grid.size(), 2048);
    assert!(grown < MAX_GROWTH, "Proxy::grid grew RSS by {grown} B");
}
