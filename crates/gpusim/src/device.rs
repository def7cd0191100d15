//! The device descriptor: machine parameters + memory accounting.

use idg_perf::{ArchKind, Architecture};
use idg_types::IdgError;

/// A modeled GPU: architecture constants, launch configuration and a
/// device-memory allocator.
#[derive(Clone, Debug)]
pub struct Device {
    /// The underlying Table I architecture (must be a GPU).
    pub arch: Architecture,
    /// Threads per block for the gridder kernel (Sec. V-C b: 192 on
    /// PASCAL, 256 on FIJI).
    pub gridder_block_size: usize,
    /// Threads per block for the degridder kernel (Sec. V-C c: 128 on
    /// PASCAL, 256 on FIJI).
    pub degridder_block_size: usize,
    /// Shared memory per thread block, bytes (software-managed cache).
    pub shared_mem_per_block: usize,
    /// Fraction of the roofline-model ceiling a real launch achieves
    /// (occupancy, barriers, tail effects).
    pub scheduling_efficiency: f64,
    allocated_bytes: u64,
}

impl Device {
    /// Wrap a GPU architecture with its paper-tuned launch parameters.
    pub fn new(arch: Architecture) -> Self {
        assert_eq!(
            arch.kind,
            ArchKind::Gpu,
            "Device models GPUs; CPUs run natively"
        );
        let (g, d, shared) = match arch.nickname {
            "PASCAL" => (192, 128, 48 * 1024),
            "FIJI" => (256, 256, 64 * 1024),
            _ => (256, 256, 48 * 1024),
        };
        Self {
            arch,
            gridder_block_size: g,
            degridder_block_size: d,
            shared_mem_per_block: shared,
            scheduling_efficiency: 0.9,
            allocated_bytes: 0,
        }
    }

    /// The modeled GTX 1080.
    pub fn pascal() -> Self {
        Self::new(Architecture::pascal())
    }

    /// The modeled Fury X.
    pub fn fiji() -> Self {
        Self::new(Architecture::fiji())
    }

    /// Device memory capacity in bytes.
    fn memory_capacity(&self) -> u64 {
        (self.arch.mem_size_gb.unwrap_or(0.0) * 1e9) as u64
    }

    /// Model an allocation; fails when device memory is exhausted —
    /// the condition that forces the "copy subgrids to host and add on
    /// the CPU" fallback of Sec. V-C e.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), IdgError> {
        let capacity = self.memory_capacity();
        if self.allocated_bytes + bytes > capacity {
            return Err(IdgError::DeviceOutOfMemory {
                requested: bytes,
                available: capacity - self.allocated_bytes,
            });
        }
        self.allocated_bytes += bytes;
        Ok(())
    }

    /// Release a previous allocation.
    pub fn free(&mut self, bytes: u64) {
        self.allocated_bytes = self.allocated_bytes.saturating_sub(bytes);
    }

    /// How many visibilities (4-pol complex f32 + uvw) fit in one
    /// block's staging buffer — the gridder's batch size (Sec. V-C b
    /// optimization 2). A quarter of the SM's shared memory per block
    /// keeps ≥4 blocks resident, which the occupancy model shows is
    /// needed to hide barrier and sincos latency.
    pub fn gridder_batch_size(&self) -> usize {
        let bytes_per_vis = 4 * 8 + 12;
        (self.shared_mem_per_block / 4) / bytes_per_vis
    }

    /// How many pixels (4-pol complex f32 + l/m/n/φ₀) fit in the
    /// degridder's shared pixel batches (Sec. V-C c), same residency
    /// budget as the gridder.
    pub fn degridder_batch_size(&self) -> usize {
        let bytes_per_pixel = 4 * 8 + 16;
        (self.shared_mem_per_block / 4) / bytes_per_pixel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_launch_configurations() {
        let p = Device::pascal();
        assert_eq!(p.gridder_block_size, 192);
        assert_eq!(p.degridder_block_size, 128);
        let f = Device::fiji();
        assert_eq!(f.gridder_block_size, 256);
        assert_eq!(f.degridder_block_size, 256);
    }

    #[test]
    fn memory_accounting() {
        let mut d = Device::pascal();
        assert_eq!(d.memory_capacity(), 8_000_000_000);
        d.allocate(6_000_000_000).unwrap();
        assert_eq!(d.allocated_bytes, 6_000_000_000);
        let err = d.allocate(3_000_000_000).unwrap_err();
        assert!(matches!(err, IdgError::DeviceOutOfMemory { .. }));
        d.free(6_000_000_000);
        assert_eq!(d.allocated_bytes, 0);
        d.allocate(7_900_000_000).unwrap();
    }

    #[test]
    fn fiji_has_less_memory_than_pascal() {
        assert!(Device::fiji().memory_capacity() < Device::pascal().memory_capacity());
    }

    #[test]
    fn batch_sizes_fit_shared_memory() {
        for d in [Device::pascal(), Device::fiji()] {
            assert!(d.gridder_batch_size() * (44) <= d.shared_mem_per_block);
            assert!(d.degridder_batch_size() * (48) <= d.shared_mem_per_block);
            assert!(
                d.gridder_batch_size() > 100,
                "batches large enough to amortize"
            );
        }
    }

    #[test]
    #[should_panic(expected = "Device models GPUs")]
    fn cpu_architecture_rejected() {
        Device::new(Architecture::haswell());
    }
}
