//! Pass-level kernel cache: shared geometry planes and phasor tables.
//!
//! The hot kernels used to repeat two kinds of item-independent work on
//! every call: per-pixel direction cosines (identical for every work
//! item of a given subgrid geometry — only the `(u₀,v₀,w₀)` offset
//! varies) and the adder/splitter phasor tables (`phase_correction`,
//! the fftshift index map, and the n×n product table the adder
//! re-multiplied per pixel). [`KernelCache`] computes each table once
//! per key and hands out `Arc`s; hit/miss totals flow into `idg-obs`
//! so the self-validation layer can pin the expected lookup count per
//! pass.
//!
//! Numerical contract: cached tables are produced by *the same
//! expressions, in the same order* as the previously inlined per-call
//! code, so cached and cold runs are bit-identical (pinned by the
//! conformance suite's cache-transparency cases).

use crate::geometry::KernelGeometry;
use idg_fft::shift::fftshift_source;
use idg_types::{Cf32, Complex, Float};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-axis phase-correction table: `corr[j] = e^{iπ(j−Ñ/2)(Ñ−1)/Ñ}` —
/// the half-pixel ramp that compensates the `x + 0.5` pixel-center
/// convention of the image-domain kernels.
pub fn phase_correction(n: usize) -> Vec<Cf32> {
    (0..n)
        .map(|j| {
            let p = j as f64 - n as f64 / 2.0;
            let phase = std::f64::consts::PI * p * (n as f64 - 1.0) / n as f64;
            Complex::new(f32::from_f64(phase.cos()), f32::from_f64(phase.sin()))
        })
        .collect()
}

/// Key of a [`GeometryPlanes`] entry: everything `pixel_to_lm`/`compute_n`
/// read. `image_size` is keyed by its bit pattern so the key stays `Eq`
/// without tolerating float edge cases.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct GeometryKey {
    /// Subgrid edge length, pixels.
    pub subgrid_size: usize,
    /// `f64::to_bits` of the field-of-view (radians).
    pub image_size_bits: u64,
}

impl GeometryKey {
    /// Key for a subgrid of `subgrid_size` pixels spanning `image_size`
    /// radians.
    pub fn new(subgrid_size: usize, image_size: f64) -> Self {
        Self {
            subgrid_size,
            image_size_bits: image_size.to_bits(),
        }
    }
}

/// Shared per-pixel direction cosines of one subgrid geometry, in both
/// the f64 form (feeding the per-item φ₀ offset, still computed per
/// item) and the f32 narrowing the kernels consume directly.
#[derive(Debug)]
pub struct GeometryPlanes {
    /// `l(x)` per pixel (row-major), f64.
    pub l: Vec<f64>,
    /// `m(y)` per pixel, f64.
    pub m: Vec<f64>,
    /// `n(l,m)` per pixel, f64.
    pub n_term: Vec<f64>,
    /// `l` narrowed to f32 (exactly `f32::from_f64(l)`).
    pub lf: Vec<f32>,
    /// `m` narrowed to f32.
    pub mf: Vec<f32>,
    /// `n` narrowed to f32.
    pub nf: Vec<f32>,
}

impl GeometryPlanes {
    fn compute(key: &GeometryKey) -> Self {
        let n = key.subgrid_size;
        // Only `subgrid_size` and `image_size` feed pixel_to_lm/compute_n;
        // the grid fields are irrelevant here.
        let geom = KernelGeometry {
            subgrid_size: n,
            grid_size: 0,
            image_size: f64::from_bits(key.image_size_bits),
            w_step: 0.0,
        };
        let n2 = n * n;
        let mut planes = GeometryPlanes {
            l: Vec::with_capacity(n2),
            m: Vec::with_capacity(n2),
            n_term: Vec::with_capacity(n2),
            lf: Vec::with_capacity(n2),
            mf: Vec::with_capacity(n2),
            nf: Vec::with_capacity(n2),
        };
        for y in 0..n {
            let m = geom.pixel_to_lm(y);
            for x in 0..n {
                let l = geom.pixel_to_lm(x);
                let n_term = KernelGeometry::compute_n(l, m);
                planes.l.push(l);
                planes.m.push(m);
                planes.n_term.push(n_term);
                planes.lf.push(f32::from_f64(l));
                planes.mf.push(f32::from_f64(m));
                planes.nf.push(f32::from_f64(n_term));
            }
        }
        planes
    }
}

/// Key of a [`PhasorTables`] entry: the adder/splitter tables depend on
/// the subgrid size alone.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PhasorKey {
    /// Subgrid edge length, pixels.
    pub subgrid_size: usize,
}

impl PhasorKey {
    /// Key for subgrids of `subgrid_size` pixels.
    pub fn new(subgrid_size: usize) -> Self {
        Self { subgrid_size }
    }
}

/// Precomputed adder/splitter phasors and index maps for one subgrid
/// size.
#[derive(Debug)]
pub struct PhasorTables {
    /// Per-axis half-pixel ramp, `corr[j] = e^{iπ(j−Ñ/2)(Ñ−1)/Ñ}`.
    pub corr: Vec<Cf32>,
    /// Adder factor table, `add[jy·Ñ+jx] = (corr[jy]·corr[jx])/Ñ²` —
    /// previously re-multiplied per (item, row, pixel).
    pub add: Vec<Cf32>,
    /// Splitter factor table, `split[jy·Ñ+jx] = corr[jy]*·corr[jx]*`.
    pub split: Vec<Cf32>,
    /// fftshift source index per axis: `shift[j]` is where destination
    /// index `j` reads from (same map for rows and columns).
    pub shift: Vec<usize>,
}

impl PhasorTables {
    fn compute(key: &PhasorKey) -> Self {
        let n = key.subgrid_size;
        let corr = phase_correction(n);
        let scale = 1.0f32 / f32::from_usize(n * n);
        let mut add = Vec::with_capacity(n * n);
        let mut split = Vec::with_capacity(n * n);
        for jy in 0..n {
            let corr_y = corr[jy];
            let corr_y_conj = corr[jy].conj();
            for jx in 0..n {
                add.push((corr_y * corr[jx]).scale(scale));
                split.push(corr_y_conj * corr[jx].conj());
            }
        }
        let shift = (0..n).map(|j| fftshift_source(n, 0, j).1).collect();
        PhasorTables {
            corr,
            add,
            split,
            shift,
        }
    }
}

/// Pass-level cache of item-independent kernel tables.
///
/// One instance lives in `Proxy` (shared with its executor) for the
/// lifetime of the proxy; tables are built on first use and every later
/// pass reuses them. Lookups are counted — both on the cache itself
/// (for direct inspection) and into the active `idg-obs` session, whose
/// self-validation pins the exact number of lookups a pass performs.
#[derive(Debug, Default)]
pub struct KernelCache {
    geometry: Mutex<HashMap<GeometryKey, Arc<GeometryPlanes>>>,
    phasors: Mutex<HashMap<PhasorKey, Arc<PhasorTables>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One critical section: get the entry, or build and insert it under
/// the same lock, so a key is built exactly once however many threads
/// race for it. A pass makes at most two lookups per job, so the lock
/// is short and uncontended. Poisoning is recovered: a build that
/// panics inserts nothing.
fn lookup<K: Eq + Hash, V>(
    map: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    build: impl FnOnce() -> V,
) -> (Arc<V>, bool) {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    let mut hit = true;
    let v = map.entry(key).or_insert_with(|| {
        hit = false;
        Arc::new(build())
    });
    (Arc::clone(v), hit)
}

impl KernelCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            idg_obs::add_cache_hits(1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            idg_obs::add_cache_misses(1);
        }
    }

    /// Shared geometry planes for `key`, built on first use.
    pub fn geometry(&self, key: GeometryKey) -> Arc<GeometryPlanes> {
        let (planes, hit) = lookup(&self.geometry, key, || GeometryPlanes::compute(&key));
        self.count(hit);
        planes
    }

    /// Shared adder/splitter phasor tables for `key`, built on first use.
    pub fn phasors(&self, key: PhasorKey) -> Arc<PhasorTables> {
        let (tables, hit) = lookup(&self.phasors, key, || PhasorTables::compute(&key));
        self.count(hit);
        tables
    }

    /// Lookups answered from an existing table since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build their table since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn geometry_planes_match_inline_formulas() {
        let cache = KernelCache::new();
        let n = 16usize;
        let image_size = 0.05f64;
        let planes = cache.geometry(GeometryKey::new(n, image_size));
        let geom = KernelGeometry {
            subgrid_size: n,
            grid_size: 256,
            image_size,
            w_step: 0.0,
        };
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                let l = geom.pixel_to_lm(x);
                let m = geom.pixel_to_lm(y);
                let nt = KernelGeometry::compute_n(l, m);
                assert_eq!(planes.l[i].to_bits(), l.to_bits());
                assert_eq!(planes.m[i].to_bits(), m.to_bits());
                assert_eq!(planes.n_term[i].to_bits(), nt.to_bits());
                assert_eq!(planes.lf[i].to_bits(), f32::from_f64(l).to_bits());
                assert_eq!(planes.nf[i].to_bits(), f32::from_f64(nt).to_bits());
            }
        }
    }

    #[test]
    fn phasor_tables_match_inline_formulas() {
        let cache = KernelCache::new();
        let n = 12usize;
        let t = cache.phasors(PhasorKey::new(n));
        let corr = phase_correction(n);
        let scale = 1.0f32 / (n * n) as f32;
        for jy in 0..n {
            for jx in 0..n {
                let add = (corr[jy] * corr[jx]).scale(scale);
                let split = corr[jy].conj() * corr[jx].conj();
                assert_eq!(t.add[jy * n + jx], add);
                assert_eq!(t.split[jy * n + jx], split);
            }
        }
        for j in 0..n {
            assert_eq!(t.shift[j], fftshift_source(n, 0, j).1);
            // the per-axis map is identical for rows and columns
            assert_eq!(t.shift[j], fftshift_source(n, j, 0).0);
        }
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let cache = KernelCache::new();
        let _ = cache.phasors(PhasorKey::new(8));
        let _ = cache.phasors(PhasorKey::new(8));
        let _ = cache.phasors(PhasorKey::new(16));
        let _ = cache.geometry(GeometryKey::new(8, 0.1));
        let _ = cache.geometry(GeometryKey::new(8, 0.1));
        let _ = cache.geometry(GeometryKey::new(8, 0.2));
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn repeated_lookups_share_one_table() {
        let cache = KernelCache::new();
        let a = cache.phasors(PhasorKey::new(16));
        let b = cache.phasors(PhasorKey::new(16));
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Four threads released together on one cold key: whatever the
    /// interleaving, one of them builds the table and the other three
    /// share it. `lookup` is one critical section, so this holds in
    /// every round, not just in the likely ones.
    #[test]
    fn racing_lookups_build_each_key_once() {
        const THREADS: usize = 4;
        for _ in 0..200 {
            let cache = KernelCache::new();
            let start = Barrier::new(THREADS);
            let tables: Vec<Arc<PhasorTables>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            cache.phasors(PhasorKey::new(2))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lookup does not panic"))
                    .collect()
            });
            assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
            assert_eq!((cache.misses(), cache.hits()), (1, THREADS as u64 - 1));

            let cache = KernelCache::new();
            let start = Barrier::new(2);
            std::thread::scope(|scope| {
                for image_size in [0.1, 0.2] {
                    let (cache, start) = (&cache, &start);
                    scope.spawn(move || {
                        start.wait();
                        cache.geometry(GeometryKey::new(2, image_size))
                    });
                }
            });
            assert_eq!((cache.misses(), cache.hits()), (2, 0));
        }
    }
}
