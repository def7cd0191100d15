//! Minimal work-alike of the `rayon` API surface used by this workspace.
//!
//! The build environment has no network access and no vendored registry,
//! so the real `rayon` crate cannot be fetched. This shim re-implements
//! exactly the combinators the workspace uses — `par_iter`,
//! `par_iter_mut`, `par_chunks[_exact][_mut]`, `into_par_iter`, `zip`,
//! `enumerate`, `map`, `map_init`, `for_each`, `for_each_init`,
//! `collect` and `current_num_threads` — on top of `std::thread::scope`.
//!
//! Work distribution is a shared `Mutex`-guarded iterator that worker
//! threads pull from; this is a fair dynamic schedule (not work
//! stealing), which is indistinguishable from rayon for the coarse
//! per-subgrid / per-row / per-plane items this workspace parallelizes
//! over. `map`-style results are re-ordered by source index before
//! `collect`, so output ordering matches the sequential semantics rayon
//! guarantees for indexed parallel iterators.

// `cargo lint` (DESIGN.md §9) covers the shims too. This one stands in
// for an external dependency below the `idg-sync` facade (the real
// rayon's pool is not model-checked either), and its `lock().unwrap()`
// fails only after a worker panic that the thread scope re-raises.
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used
)]

use std::sync::Mutex;

/// Everything call sites import via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Number of worker threads used by parallel drivers.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A "parallel" iterator: a lazily-staged std iterator plus the parallel
/// drivers (`for_each*`, `map*`, `collect`).
pub struct ParIter<I> {
    iter: I,
}

/// A mapped parallel iterator (`par_iter().map(f)`), kept unfused so the
/// mapping closure runs outside the queue lock, in parallel.
pub struct ParMap<I, F> {
    iter: I,
    f: F,
}

/// A mapped parallel iterator with per-thread state
/// (`par_iter().map_init(init, f)`).
pub struct ParMapInit<I, INIT, F> {
    iter: I,
    init: INIT,
    f: F,
}

impl<I> ParIter<I>
where
    I: Iterator + Send,
    I::Item: Send,
{
    /// Pair up with a second parallel iterator.
    pub fn zip<J>(self, other: ParIter<J>) -> ParIter<std::iter::Zip<I, J>>
    where
        J: Iterator + Send,
        J::Item: Send,
    {
        ParIter {
            iter: self.iter.zip(other.iter),
        }
    }

    /// Index each item.
    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter {
            iter: self.iter.enumerate(),
        }
    }

    /// Map each item (parallel at `collect`/`for_each` time).
    pub fn map<R, F>(self, f: F) -> ParMap<I, F>
    where
        R: Send,
        F: Fn(I::Item) -> R + Sync,
    {
        ParMap { iter: self.iter, f }
    }

    /// Map with per-thread scratch state created by `init`.
    pub fn map_init<T, R, INIT, F>(self, init: INIT, f: F) -> ParMapInit<I, INIT, F>
    where
        R: Send,
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, I::Item) -> R + Sync,
    {
        ParMapInit {
            iter: self.iter,
            init,
            f,
        }
    }

    /// Consume every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I::Item) + Sync,
    {
        drive(self.iter, &|| (), &|_, item| f(item));
    }

    /// Consume every item in parallel with per-thread scratch state.
    pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, I::Item) + Sync,
    {
        drive(self.iter, &init, &|state, item| f(state, item));
    }

    /// Collect items, preserving source order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<I::Item>,
    {
        // No mapping stage: nothing to parallelize, pull sequentially.
        self.iter.collect()
    }
}

impl<I, R, F> ParMap<I, F>
where
    I: Iterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    /// Apply the map in parallel and collect in source order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        let f = &self.f;
        drive_ordered(self.iter, &|| (), &|_, item| f(item))
            .into_iter()
            .collect()
    }

    /// Apply the map and consume results in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = &self.f;
        drive(self.iter, &|| (), &|_, item| g(f(item)));
    }
}

impl<I, T, R, INIT, F> ParMapInit<I, INIT, F>
where
    I: Iterator + Send,
    I::Item: Send,
    R: Send,
    INIT: Fn() -> T + Sync,
    F: Fn(&mut T, I::Item) -> R + Sync,
{
    /// Apply the map in parallel (per-thread state) and collect in
    /// source order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        let f = &self.f;
        drive_ordered(self.iter, &self.init, &|state, item| f(state, item))
            .into_iter()
            .collect()
    }
}

/// Pull items from `iter` on `current_num_threads()` scoped workers and
/// apply `f` with a per-thread state from `init`.
fn drive<I, T, INIT, F>(iter: I, init: &INIT, f: &F)
where
    I: Iterator + Send,
    I::Item: Send,
    INIT: Fn() -> T + Sync,
    F: Fn(&mut T, I::Item) + Sync,
{
    let nthreads = current_num_threads();
    if nthreads <= 1 {
        let mut state = init();
        for item in iter {
            f(&mut state, item);
        }
        return;
    }
    let queue = Mutex::new(iter);
    std::thread::scope(|scope| {
        for _ in 0..nthreads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let item = queue.lock().unwrap().next();
                    match item {
                        Some(x) => f(&mut state, x),
                        None => break,
                    }
                }
            });
        }
    });
}

/// As [`drive`], but collects `f`'s results tagged with their source
/// index and returns them in source order.
fn drive_ordered<I, T, R, INIT, F>(iter: I, init: &INIT, f: &F) -> Vec<R>
where
    I: Iterator + Send,
    I::Item: Send,
    R: Send,
    INIT: Fn() -> T + Sync,
    F: Fn(&mut T, I::Item) -> R + Sync,
{
    let nthreads = current_num_threads();
    if nthreads <= 1 {
        let mut state = init();
        return iter.map(|x| f(&mut state, x)).collect();
    }
    let queue = Mutex::new(iter.enumerate());
    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..nthreads {
            scope.spawn(|| {
                let mut state = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let item = queue.lock().unwrap().next();
                    match item {
                        Some((i, x)) => local.push((i, f(&mut state, x))),
                        None => break,
                    }
                }
                sink.lock().unwrap().append(&mut local);
            });
        }
    });
    let mut tagged = sink.into_inner().unwrap();
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>>;
    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>> {
        ParIter { iter: self.iter() }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>> {
        ParIter {
            iter: self.chunks(chunk_size),
        }
    }
}

/// `par_iter_mut` / `par_chunks_mut` / `par_chunks_exact_mut` on
/// mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIter<std::slice::IterMut<'_, T>>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<std::slice::ChunksMut<'_, T>>;
    fn par_chunks_exact_mut(
        &mut self,
        chunk_size: usize,
    ) -> ParIter<std::slice::ChunksExactMut<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<std::slice::IterMut<'_, T>> {
        ParIter {
            iter: self.iter_mut(),
        }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<std::slice::ChunksMut<'_, T>> {
        ParIter {
            iter: self.chunks_mut(chunk_size),
        }
    }

    fn par_chunks_exact_mut(
        &mut self,
        chunk_size: usize,
    ) -> ParIter<std::slice::ChunksExactMut<'_, T>> {
        ParIter {
            iter: self.chunks_exact_mut(chunk_size),
        }
    }
}

/// `into_par_iter` on any owned iterable (ranges, vectors, …).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: Iterator<Item = Self::Item> + Send;
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<C> IntoParallelIterator for C
where
    C: IntoIterator,
    C::Item: Send,
    C::IntoIter: Send,
{
    type Item = C::Item;
    type Iter = C::IntoIter;

    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter {
            iter: self.into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_for_each_init_covers_every_pair() {
        let items: Vec<usize> = (0..64).collect();
        let mut out = vec![0usize; 64];
        items
            .par_iter()
            .zip(out.as_mut_slice().par_chunks_exact_mut(1))
            .for_each_init(
                || 0usize,
                |state, (i, slot)| {
                    *state += 1;
                    slot[0] = i * i;
                },
            );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_chunks_mut_enumerate() {
        let mut data = [0u32; 40];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for c in chunk {
                *c = i as u32;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[15], 1);
        assert_eq!(data[39], 3);
    }

    #[test]
    fn map_init_collect_is_ordered() {
        let cols: Vec<Vec<usize>> = (0..32usize)
            .into_par_iter()
            .map_init(Vec::new, |scratch: &mut Vec<usize>, x| {
                scratch.push(x);
                vec![x, x + 1]
            })
            .collect();
        for (i, c) in cols.iter().enumerate() {
            assert_eq!(c, &vec![i, i + 1]);
        }
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
