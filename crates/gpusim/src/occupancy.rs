//! Streaming-multiprocessor occupancy model.
//!
//! The paper tunes thread-block sizes per kernel and architecture
//! (Sec. V-C: 192/128 threads on PASCAL, 256/256 on FIJI) — choices that
//! trade register/shared-memory pressure against the number of resident
//! blocks per SM. This module reproduces the standard occupancy
//! calculation so the device model's `scheduling_efficiency` is grounded
//! rather than arbitrary: a kernel's occupancy bounds how well latencies
//! (sincos, shared-memory) can be hidden.

use crate::device::Device;

/// Per-launch resource usage of a kernel.
#[derive(Copy, Clone, Debug)]
pub struct KernelResources {
    /// Threads per block.
    pub threads_per_block: usize,
    /// Registers per thread.
    pub registers_per_thread: usize,
    /// Shared (LDS) bytes per block.
    pub shared_bytes_per_block: usize,
}

impl KernelResources {
    /// Resource profile of the IDG gridder on `device` (registers for
    /// the 4-pol pixel accumulators + geometry; shared buffer for the
    /// visibility batch).
    pub fn gridder(device: &Device) -> Self {
        Self {
            threads_per_block: device.gridder_block_size,
            registers_per_thread: 64,
            shared_bytes_per_block: device.gridder_batch_size() * 44,
        }
    }

    /// Resource profile of the IDG degridder (registers for the
    /// visibility accumulators; shared pixels + geometry batch).
    pub fn degridder(device: &Device) -> Self {
        Self {
            threads_per_block: device.degridder_block_size,
            registers_per_thread: 72,
            shared_bytes_per_block: device.degridder_batch_size() * 48,
        }
    }
}

/// Per-SM hardware limits.
#[derive(Copy, Clone, Debug)]
struct SmLimits {
    /// Maximum resident threads.
    pub max_threads: usize,
    /// Maximum resident blocks.
    pub max_blocks: usize,
    /// Register file size (32-bit registers).
    pub registers: usize,
    /// Shared memory capacity, bytes.
    pub shared_bytes: usize,
}

impl SmLimits {
    /// Limits for the modeled device (Pascal SM / GCN CU figures).
    pub fn of(device: &Device) -> Self {
        match device.arch.nickname {
            "PASCAL" => Self {
                max_threads: 2048,
                max_blocks: 32,
                registers: 65_536,
                shared_bytes: 96 * 1024,
            },
            _ => Self {
                // GCN compute unit (Fiji)
                max_threads: 2560,
                max_blocks: 40,
                registers: 65_536,
                shared_bytes: 64 * 1024,
            },
        }
    }
}

/// Result of the occupancy calculation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: usize,
    /// Resident threads per SM.
    pub threads_per_sm: usize,
    /// Fraction of the SM's maximum resident threads.
    pub fraction: f64,
    /// Which resource limits residency.
    pub limited_by: Limit,
}

/// The binding occupancy constraint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Limit {
    /// Thread count per SM.
    Threads,
    /// Block slots per SM.
    Blocks,
    /// Register file.
    Registers,
    /// Shared memory capacity.
    SharedMemory,
}

/// Compute the occupancy of `res` on `device`.
pub fn occupancy(device: &Device, res: &KernelResources) -> Occupancy {
    let limits = SmLimits::of(device);
    let by_threads = limits.max_threads / res.threads_per_block.max(1);
    let by_blocks = limits.max_blocks;
    let by_registers = limits.registers / (res.registers_per_thread * res.threads_per_block).max(1);
    let by_shared = limits
        .shared_bytes
        .checked_div(res.shared_bytes_per_block)
        .unwrap_or(usize::MAX);

    let blocks = by_threads.min(by_blocks).min(by_registers).min(by_shared);
    let limited_by = if blocks == by_shared {
        Limit::SharedMemory
    } else if blocks == by_registers {
        Limit::Registers
    } else if blocks == by_threads {
        Limit::Threads
    } else {
        Limit::Blocks
    };
    let threads = blocks * res.threads_per_block;
    Occupancy {
        blocks_per_sm: blocks,
        threads_per_sm: threads,
        fraction: threads as f64 / limits.max_threads as f64,
        limited_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn paper_gridder_configs_achieve_good_occupancy() {
        // Good latency hiding needs a healthy fraction of resident
        // threads — the paper's tuned block sizes must not starve the SM.
        for device in [Device::pascal(), Device::fiji()] {
            let occ = occupancy(&device, &KernelResources::gridder(&device));
            assert!(
                occ.fraction >= 0.25,
                "{}: gridder occupancy {:.2}",
                device.arch.nickname,
                occ.fraction
            );
            assert!(
                occ.blocks_per_sm >= 2,
                "multiple blocks to overlap barriers"
            );
        }
    }

    #[test]
    fn degridder_occupancy_is_positive_everywhere() {
        for device in [Device::pascal(), Device::fiji()] {
            let occ = occupancy(&device, &KernelResources::degridder(&device));
            assert!(occ.blocks_per_sm >= 1);
            assert!(occ.fraction > 0.0);
        }
    }

    #[test]
    fn oversized_shared_usage_limits_blocks() {
        let device = Device::pascal();
        let res = KernelResources {
            threads_per_block: 128,
            registers_per_thread: 32,
            shared_bytes_per_block: 50 * 1024, // > half the SM's LDS
        };
        let occ = occupancy(&device, &res);
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, Limit::SharedMemory);
    }

    #[test]
    fn register_pressure_limits_blocks() {
        let device = Device::pascal();
        let res = KernelResources {
            threads_per_block: 1024,
            registers_per_thread: 255,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&device, &res);
        assert_eq!(occ.limited_by, Limit::Registers);
        assert!(occ.fraction < 0.2);
    }

    #[test]
    fn tiny_blocks_hit_the_block_slot_limit() {
        let device = Device::pascal();
        let res = KernelResources {
            threads_per_block: 32,
            registers_per_thread: 16,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&device, &res);
        assert_eq!(occ.limited_by, Limit::Blocks);
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.threads_per_sm, 1024);
    }

    #[test]
    fn occupancy_monotone_in_threads_per_block_until_limited() {
        let device = Device::pascal();
        let mut prev = 0.0;
        for tpb in [64usize, 128, 256] {
            let res = KernelResources {
                threads_per_block: tpb,
                registers_per_thread: 24,
                shared_bytes_per_block: 1024,
            };
            let occ = occupancy(&device, &res);
            assert!(occ.fraction >= prev, "non-monotone at {tpb}");
            prev = occ.fraction;
        }
    }
}
