//! Binary data-set persistence.
//!
//! Real pipelines read visibilities from measurement sets; a library
//! users can adopt needs *some* interchange format so simulations can be
//! generated once and re-used across runs/benchmarks. This module
//! implements a small self-describing little-endian binary container for
//! [`Dataset`] — no external dependencies, versioned and checked on
//! load.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "IDGDS1\0\0"                       8 bytes
//! observation block: u64 counts + f64 parameters
//! frequencies        nr_channels × f64
//! uvw                nr_baselines·nr_timesteps × 3 f32
//! visibilities       nr_vis × 4 × (f32, f32)
//! aterms             intervals·stations·N² × 8 f32
//! sky                nr_sources × 3 f64
//! ```

// Lint L1, input-boundary half: these bytes come from outside the
// program, so a miss is a typed `IdgError`, never an index panic.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::aterm::ATerms;
use crate::dataset::Dataset;
use crate::sky::{PointSource, SkyModel};
use idg_types::{Cf32, IdgError, Jones, Observation, Uvw, Visibility};
use std::io::{Read, Write};

const MAGIC: &[u8; 8] = b"IDGDS1\0\0";

/// Upper bound on any single header count. A corrupt (or hostile)
/// header must produce a typed error, not drive `Vec::with_capacity`
/// into an allocation abort — a header declaring `u64::MAX` channels
/// must never reach an allocator.
const MAX_HEADER_COUNT: u64 = 1 << 24;

/// Upper bound on the total element count of any derived buffer
/// (visibilities, A-term planes). Checked in `u128`, so products of
/// in-range header counts cannot overflow on the way to the check.
const MAX_TOTAL_ELEMENTS: u128 = 1 << 32;

fn io_err(e: std::io::Error) -> IdgError {
    IdgError::Io(format!("dataset i/o: {e}"))
}

/// Overflow-safe product of header counts, bounded by
/// [`MAX_TOTAL_ELEMENTS`].
fn checked_elements(factors: &[usize], what: &'static str) -> Result<usize, IdgError> {
    let total: u128 = factors.iter().map(|&f| f as u128).product();
    if total > MAX_TOTAL_ELEMENTS {
        return Err(IdgError::InvalidParameter(format!(
            "dataset header: {what} would hold {total} elements — not a plausible dataset"
        )));
    }
    Ok(total as usize)
}

struct Writer<W: Write> {
    inner: W,
}

impl<W: Write> Writer<W> {
    fn u64(&mut self, v: u64) -> Result<(), IdgError> {
        self.inner.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    fn f64(&mut self, v: f64) -> Result<(), IdgError> {
        self.inner.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    fn f32(&mut self, v: f32) -> Result<(), IdgError> {
        self.inner.write_all(&v.to_le_bytes()).map_err(io_err)
    }
    fn c32(&mut self, v: Cf32) -> Result<(), IdgError> {
        self.f32(v.re)?;
        self.f32(v.im)
    }
}

struct Reader<R: Read> {
    inner: R,
}

impl<R: Read> Reader<R> {
    fn u64(&mut self) -> Result<u64, IdgError> {
        let mut b = [0u8; 8];
        self.inner.read_exact(&mut b).map_err(io_err)?;
        Ok(u64::from_le_bytes(b))
    }
    /// Read a header count, rejecting implausible values *before* any
    /// allocation is sized from them.
    fn count(&mut self, what: &'static str) -> Result<usize, IdgError> {
        let v = self.u64()?;
        if v > MAX_HEADER_COUNT {
            return Err(IdgError::InvalidParameter(format!(
                "dataset header: {what} = {v} is not a plausible count"
            )));
        }
        Ok(v as usize)
    }
    fn f64(&mut self) -> Result<f64, IdgError> {
        let mut b = [0u8; 8];
        self.inner.read_exact(&mut b).map_err(io_err)?;
        Ok(f64::from_le_bytes(b))
    }
    fn f32(&mut self) -> Result<f32, IdgError> {
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b).map_err(io_err)?;
        Ok(f32::from_le_bytes(b))
    }
    fn c32(&mut self) -> Result<Cf32, IdgError> {
        Ok(Cf32::new(self.f32()?, self.f32()?))
    }
}

/// Serialize a data set to any writer.
pub fn write_dataset<W: Write>(ds: &Dataset, out: W) -> Result<(), IdgError> {
    let mut w = Writer { inner: out };
    w.inner.write_all(MAGIC).map_err(io_err)?;

    let obs = &ds.obs;
    w.u64(obs.nr_stations as u64)?;
    w.u64(obs.nr_timesteps as u64)?;
    w.u64(obs.nr_channels() as u64)?;
    w.u64(obs.grid_size as u64)?;
    w.u64(obs.subgrid_size as u64)?;
    w.u64(obs.kernel_size as u64)?;
    w.u64(obs.aterm_interval as u64)?;
    w.u64(obs.max_timesteps_per_subgrid as u64)?;
    w.f64(obs.integration_time)?;
    w.f64(obs.image_size)?;
    w.f64(obs.w_step)?;
    for f in &obs.frequencies {
        w.f64(*f)?;
    }
    for uvw in &ds.uvw {
        w.f32(uvw.u)?;
        w.f32(uvw.v)?;
        w.f32(uvw.w)?;
    }
    for vis in &ds.visibilities {
        for p in vis.pols {
            w.c32(p)?;
        }
    }
    // aterms: intervals × stations × N² Jones
    let n = obs.subgrid_size;
    for interval in 0..ds.aterms.nr_intervals() {
        for station in 0..obs.nr_stations {
            for j in ds.aterms.plane(interval, station) {
                w.c32(j.xx)?;
                w.c32(j.xy)?;
                w.c32(j.yx)?;
                w.c32(j.yy)?;
            }
        }
    }
    let _ = n;
    w.u64(ds.sky.len() as u64)?;
    for s in &ds.sky.sources {
        w.f64(s.l)?;
        w.f64(s.m)?;
        w.f64(s.flux)?;
    }
    Ok(())
}

/// Deserialize a data set from any reader.
pub fn read_dataset<R: Read>(input: R) -> Result<Dataset, IdgError> {
    let mut r = Reader { inner: input };
    let mut magic = [0u8; 8];
    r.inner.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(IdgError::InvalidParameter(
            "not an IDG dataset (bad magic)".into(),
        ));
    }

    let nr_stations = r.count("nr_stations")?;
    let nr_timesteps = r.count("nr_timesteps")?;
    let nr_channels = r.count("nr_channels")?;
    let grid_size = r.count("grid_size")?;
    let subgrid_size = r.count("subgrid_size")?;
    let kernel_size = r.count("kernel_size")?;
    let aterm_interval = r.count("aterm_interval")?;
    let max_t = r.count("max_timesteps_per_subgrid")?;
    let integration_time = r.f64()?;
    let image_size = r.f64()?;
    let w_step = r.f64()?;
    // bound every derived buffer (u128 math: in-range counts cannot
    // overflow on the way to the check) before sizing any allocation
    let nr_bl = nr_stations * nr_stations.saturating_sub(1) / 2;
    let nr_uvw = checked_elements(&[nr_bl, nr_timesteps], "uvw")?;
    let nr_vis = checked_elements(&[nr_bl, nr_timesteps, nr_channels], "visibilities")?;
    let nr_jones = checked_elements(
        &[nr_timesteps.max(1), nr_stations, subgrid_size, subgrid_size],
        "aterms",
    )?;
    let _ = nr_jones; // worst-case bound; the exact count is smaller
    let mut frequencies = Vec::with_capacity(nr_channels);
    for _ in 0..nr_channels {
        frequencies.push(r.f64()?);
    }

    let obs = Observation {
        nr_stations,
        nr_timesteps,
        integration_time,
        frequencies,
        grid_size,
        subgrid_size,
        image_size,
        kernel_size,
        aterm_interval,
        max_timesteps_per_subgrid: max_t,
        w_step,
    };
    obs.validate()?;

    let mut uvw = Vec::with_capacity(nr_uvw);
    for _ in 0..nr_uvw {
        uvw.push(Uvw::new(r.f32()?, r.f32()?, r.f32()?));
    }
    let mut visibilities = Vec::with_capacity(nr_vis);
    for _ in 0..nr_vis {
        visibilities.push(Visibility {
            pols: [r.c32()?, r.c32()?, r.c32()?, r.c32()?],
        });
    }

    // aterms are reconstructed through a closure-backed sampler: read all
    // Jones values, then wrap them in the ATerms container via identity +
    // overwrite.
    let n2 = subgrid_size * subgrid_size;
    let nr_intervals = obs.nr_aterm_intervals();
    let mut jones = Vec::with_capacity(nr_intervals * nr_stations * n2);
    for _ in 0..nr_intervals * nr_stations * n2 {
        jones.push(Jones {
            xx: r.c32()?,
            xy: r.c32()?,
            yx: r.c32()?,
            yy: r.c32()?,
        });
    }
    let aterms = ATerms::from_raw(jones, nr_stations, nr_intervals, subgrid_size);

    let nr_sources = r.count("nr_sources")?;
    let mut sources = Vec::with_capacity(nr_sources);
    for _ in 0..nr_sources {
        sources.push(PointSource {
            l: r.f64()?,
            m: r.f64()?,
            flux: r.f64()?,
        });
    }

    Ok(Dataset {
        baselines: obs.baselines(),
        obs,
        uvw,
        visibilities,
        aterms,
        sky: SkyModel { sources },
    })
}

/// Save a data set to a file.
pub fn save_dataset(ds: &Dataset, path: &std::path::Path) -> Result<(), IdgError> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    write_dataset(ds, std::io::BufWriter::new(file))
}

/// Load a data set from a file.
pub fn load_dataset(path: &std::path::Path) -> Result<Dataset, IdgError> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    read_dataset(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aterm::GaussianBeam;
    use crate::layout::Layout;

    fn dataset() -> Dataset {
        let obs = Observation::builder()
            .stations(5)
            .timesteps(16)
            .channels(3, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(8)
            .build()
            .unwrap();
        let layout = Layout::uniform(5, 600.0, 501);
        let sky = SkyModel::random(&obs, 3, 0.5, 502);
        let beam = GaussianBeam::new(&obs, 0.7, 503);
        Dataset::simulate(obs, &layout, sky, &beam)
    }

    #[test]
    fn round_trip_through_memory() {
        let ds = dataset();
        let mut buffer = Vec::new();
        write_dataset(&ds, &mut buffer).unwrap();
        let loaded = read_dataset(buffer.as_slice()).unwrap();

        assert_eq!(loaded.obs, ds.obs);
        assert_eq!(loaded.uvw, ds.uvw);
        assert_eq!(loaded.visibilities.len(), ds.visibilities.len());
        for (a, b) in loaded.visibilities.iter().zip(&ds.visibilities) {
            assert_eq!(a.pols, b.pols);
        }
        assert_eq!(loaded.sky, ds.sky);
        // aterms identical
        for i in 0..ds.aterms.nr_intervals() {
            for s in 0..ds.obs.nr_stations {
                assert_eq!(loaded.aterms.plane(i, s), ds.aterms.plane(i, s));
            }
        }
    }

    #[test]
    fn round_trip_through_file() {
        let ds = dataset();
        let dir = std::env::temp_dir().join("idg-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.idg");
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(loaded.obs, ds.obs);
        assert_eq!(loaded.uvw, ds.uvw);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let garbage = b"NOTADATASET_____".to_vec();
        assert!(matches!(
            read_dataset(garbage.as_slice()),
            Err(IdgError::InvalidParameter(_))
        ));
    }

    #[test]
    fn truncated_file_is_rejected_with_a_typed_io_error() {
        let ds = dataset();
        let mut buffer = Vec::new();
        write_dataset(&ds, &mut buffer).unwrap();
        let full = buffer.len();
        // truncation anywhere — mid-header, mid-payload, one byte short
        for keep in [7, 20, full / 2, full - 1] {
            let mut cut = buffer.clone();
            cut.truncate(keep);
            assert!(
                matches!(read_dataset(cut.as_slice()), Err(IdgError::Io(_))),
                "truncated at {keep}"
            );
        }
    }

    /// Serialize a header with the given counts and nothing else.
    fn header(counts: [u64; 8]) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        for c in counts {
            b.extend_from_slice(&c.to_le_bytes());
        }
        for f in [1.0f64, 0.01, 0.0] {
            b.extend_from_slice(&f.to_le_bytes());
        }
        b
    }

    #[test]
    fn impossible_header_counts_do_not_attempt_the_allocation() {
        // u64::MAX channels: the reader must reject the count, not ask
        // the allocator for 2^64 f64s
        let bad = header([5, 16, u64::MAX, 128, 16, 5, 8, 8]);
        assert!(matches!(
            read_dataset(bad.as_slice()),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("nr_channels")
        ));
        // a count that passes the per-field cap but whose *product*
        // explodes is caught by the overflow-safe element bound
        let m = 1u64 << 24;
        let bad = header([m, m, m, 128, 16, 5, 8, 8]);
        assert!(matches!(
            read_dataset(bad.as_slice()),
            Err(IdgError::InvalidParameter(_))
        ));
        // u64::MAX stations is equally impossible
        let bad = header([u64::MAX, 16, 3, 128, 16, 5, 8, 8]);
        assert!(matches!(
            read_dataset(bad.as_slice()),
            Err(IdgError::InvalidParameter(msg)) if msg.contains("nr_stations")
        ));
    }
}
