//! A chunk pass that panics is that chunk's typed error — never a hang
//! and never a panic out of `run_stream` (DESIGN.md §12).
//!
//! Up to PR 22 the calling thread slept until a completion count
//! moved, and a panicking pass never moved it: the `(workers 2,
//! max_inflight 1)` shape below hung forever there. Each run therefore
//! executes on a helper thread under a deadline, so a regression fails
//! in bounded time instead of stalling the suite.

use idg_stream::{Chunk, StreamScheduler, StreamStats};
use idg_types::IdgError;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const NR_CHUNKS: usize = 4;

/// The `(index, result)` pairs in the order the commit closure
/// received them.
type Delivered = Vec<(usize, Result<usize, IdgError>)>;

/// Stream four chunks whose chunk-0 pass panics.
fn run_with_panicking_chunk_0(workers: usize, max_inflight: usize) -> (Delivered, StreamStats) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let chunks: Vec<Chunk> = (0..NR_CHUNKS)
            .map(|index| Chunk {
                index,
                time_range: index..index + 1,
            })
            .collect();
        let mut delivered = Vec::new();
        let stats = StreamScheduler::new(workers, max_inflight)
            .expect("positive parameters")
            .run_stream(
                &chunks,
                |chunk| {
                    assert_ne!(chunk.index, 0, "injected panic in chunk 0's pass");
                    Ok(chunk.index)
                },
                |index, result| delivered.push((index, result)),
            );
        let _ = tx.send((delivered, stats));
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(run) => run,
        Err(RecvTimeoutError::Timeout) => {
            panic!("run_stream hung (workers {workers}, max_inflight {max_inflight})")
        }
        Err(RecvTimeoutError::Disconnected) => {
            panic!("run_stream panicked (workers {workers}, max_inflight {max_inflight})")
        }
    }
}

#[test]
fn panicking_chunk_is_a_typed_error_in_its_slot_and_the_stream_returns() {
    for (workers, max_inflight) in [(2, 1), (2, 2), (1, 1)] {
        let shape = format!("workers {workers}, max_inflight {max_inflight}");
        let (delivered, stats) = run_with_panicking_chunk_0(workers, max_inflight);
        assert_eq!(delivered.len(), NR_CHUNKS, "{shape}");
        for (i, (index, result)) in delivered.iter().enumerate() {
            assert_eq!(*index, i, "{shape}: delivered out of order");
            match result {
                Ok(v) => assert!(i != 0 && *v == i, "{shape}: slot {i} holds Ok({v})"),
                Err(IdgError::Internal(message)) => assert!(
                    message.contains(&format!("chunk {i}")),
                    "{shape}: slot {i} must name its chunk: {message}"
                ),
                Err(other) => panic!("{shape}: untyped error in slot {i}: {other}"),
            }
        }

        // the panic takes one lane with it; any other keeps pulling
        let lanes = workers.min(max_inflight);
        let completed = if lanes > 1 { NR_CHUNKS - 1 } else { 0 };
        assert_eq!(stats.completed_chunks, completed, "{shape}");
        assert_eq!(stats.failed_chunks, NR_CHUNKS - completed, "{shape}");
    }
}
