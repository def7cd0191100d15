//! L3 fixture: a streaming-scheduler entry point missing its counter
//! increments — chunks would flow through the scheduler invisibly.

pub fn run_stream_fixture(chunk: Chunk, workers: usize) {
    let _ = (chunk, workers);
}
