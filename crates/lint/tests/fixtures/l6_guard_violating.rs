//! L6 sub-rule (d) fixture: kernel entry points launched while a lock
//! guard binding is live — directly, and from a nested block that
//! inherits the outer guard.
use std::sync::{Mutex, PoisonError};

pub fn launch_under_guard(state: &Mutex<u32>, data: &mut K) {
    let st = state.lock().unwrap_or_else(PoisonError::into_inner);
    gridder_cpu(data);
    let _ = *st;
}

pub fn launch_under_guard_nested(state: &Mutex<u32>, data: &mut K) {
    let st = state.lock().unwrap_or_else(PoisonError::into_inner);
    {
        fft_subgrids(data);
    }
    let _ = *st;
}
