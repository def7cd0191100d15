//! # idg-sync — the workspace mutex facade
//!
//! Every library crate in the workspace takes its `Mutex` from here
//! instead of `std::sync` — enforced by lint L7 (clippy's
//! `disallowed_types` over the root `clippy.toml`; DESIGN.md §9, §13).
//! The facade is a zero-cost newtype over `std::sync::Mutex` whose only
//! behavioral change is *poison recovery*: `lock()` returns the guard
//! directly, absorbing [`std::sync::PoisonError`], which also
//! deduplicates the ad-hoc `lock().unwrap_or_else(..)` helpers the
//! scheduler and kernel cache used to carry (`clippy::unwrap_used` now
//! bans those at the call site).
//!
//! The poison-recovery contract is deliberate, not cavalier: every
//! protected structure in this workspace stays consistent across a
//! panicking critical section (counters may undercount), and the panic
//! itself still reaches whoever joins the thread — its scope, or an
//! explicit `join` — recovering the lock merely keeps sibling workers
//! from deadlocking behind a poisoned mutex while the panic unwinds.
//!
//! There is deliberately no `Condvar` and no `RwLock`: no library code
//! waits on a predicate, and nothing reads often enough beside a writer
//! to need shared reads. `clippy.toml` bans the std ones, so a lost
//! wakeup cannot be written rather than being linted for.

#![deny(missing_docs)]
// Lint L7's exemption: this crate is where the std mutex is wrapped,
// so it may name it (as may `shims/rayon`, below the facade).
#![allow(clippy::disallowed_types)]

mod plain;

pub use plain::{Mutex, MutexGuard};
