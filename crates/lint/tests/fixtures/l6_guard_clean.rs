//! L6 sub-rule (d) clean fixture: guards released — by `drop` or by
//! scope exit — before any kernel entry point runs, and obs counter
//! calls sharing a launch prefix left alone.
use std::sync::{Mutex, PoisonError};

pub fn launch_after_drop(state: &Mutex<u32>, data: &mut K) {
    let st = state.lock().unwrap_or_else(PoisonError::into_inner);
    let n = *st;
    drop(st);
    gridder_cpu(data);
    let _ = n;
}

pub fn launch_after_scope(state: &Mutex<u32>, data: &mut K) {
    {
        let _st = state.lock().unwrap_or_else(PoisonError::into_inner);
    }
    fft_subgrids(data);
}

pub fn counter_under_guard(state: &Mutex<u32>) {
    let st = state.lock().unwrap_or_else(PoisonError::into_inner);
    idg_obs::add_subgrids_added(*st as u64);
}
