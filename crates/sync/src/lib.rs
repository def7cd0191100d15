//! # idg-sync — the workspace concurrency facade
//!
//! Every library crate in the workspace takes its concurrency
//! primitives (`Mutex`, `RwLock`, `thread::scope`) from here instead
//! of `std::sync` / `std::thread` — enforced by lint L7 (clippy's
//! `disallowed_types`/`disallowed_methods` over the root
//! `clippy.toml`; DESIGN.md §9, §13). Two builds share one API:
//!
//! - **Normal builds**: zero-cost newtypes over `std::sync` whose only
//!   behavioral change is *poison recovery* — `lock()` returns the
//!   guard directly, absorbing [`std::sync::PoisonError`], which also
//!   deduplicates the ad-hoc `lock().unwrap_or_else(..)` helpers the
//!   scheduler and kernel cache used to carry (`clippy::unwrap_used`
//!   now bans those at the call site).
//! - **`--cfg idg_model_check` builds**: straight re-exports of the
//!   [`idg-mc`](idg_mc) cooperative primitives, so the same library
//!   code becomes deterministically schedulable and every interleaving
//!   up to a bound can be explored in tests. Outside an active
//!   exploration those degrade to the plain behavior, so ordinary
//!   tests still pass under the cfg.
//!
//! The poison-recovery contract is deliberate, not cavalier: every
//! protected structure in this workspace stays consistent across a
//! panicking critical section (counters may undercount), and the panic
//! itself still reaches whoever joins the thread — its scope, or an
//! explicit `join` — recovering the lock merely keeps sibling workers
//! from deadlocking behind a poisoned mutex while the panic unwinds.
//!
//! There is deliberately no `Condvar`: no library code waits on a
//! predicate, and `clippy.toml` bans the std one, so a lost wakeup
//! cannot be written rather than being linted for. Code that comes to
//! need a blocking wait brings it back as `wait_while` only — the
//! re-check stated by the type (DESIGN.md §13, ROADMAP item 3 (b)).

#![deny(missing_docs)]
// Lint L7's exemption: this crate is where the std primitives are
// wrapped, so it is one of the two that may name them (`crates/mc` is
// the other).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

#[cfg(idg_model_check)]
pub use idg_mc::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Scoped threads routed through the model checker.
#[cfg(idg_model_check)]
pub mod thread {
    pub use idg_mc::thread::{scope, Scope, ScopedJoinHandle};
}

#[cfg(not(idg_model_check))]
mod plain;

#[cfg(not(idg_model_check))]
pub use plain::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Scoped threads (plain `std::thread` in normal builds).
#[cfg(not(idg_model_check))]
pub mod thread {
    pub use std::thread::{Scope, ScopedJoinHandle};

    /// [`std::thread::scope`] as an item of the facade: a re-export
    /// would resolve to the std function, and lint L7 could not tell a
    /// call through the facade from one that bypasses it.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(f)
    }
}
