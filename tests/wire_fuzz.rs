//! Fuzzing the daemon's wire frames: every request reaches the daemon
//! as a length-prefixed frame (`proto::read_frame`) holding a JSON job
//! object (`JobSpec::from_json`), both read from bytes any client can
//! send.
//!
//! - Seeded job frames with bytes overwritten, cut short, or with a
//!   corrupted length prefix either fail with a typed error (an
//!   `io::Error` from the framer, a `JsonError` from the parser, a
//!   message from the job decoder) or decode into a job whose
//!   `to_json` decodes back to the same job.
//! - One seed carries `"mem_words": 0`, a workload the SoC cannot be
//!   built with; the decoder must refuse it and its mutants alike
//!   unless the mutation makes the size buildable.
//!
//! `PROPTEST_CASES` scales the case count (CI runs this file with 2048).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tve::campaign::ShardSpec;
use tve::obs::parse_json;
use tve::serve::{read_frame, write_frame, JobKind, JobSpec};
use tve::soc::{PlanOverrides, Workload};

/// One job of every kind, with every optional field somewhere.
fn jobs() -> Vec<JobSpec> {
    let mut overrides = PlanOverrides::default();
    overrides.set("det_proc_patterns", 42);
    vec![
        JobSpec {
            workload: Workload::small().with_mem_words(64),
            kind: JobKind::Schedule { index: 2 },
            verify: Some(0.25),
            deadline_ms: Some(2500),
        },
        JobSpec {
            workload: Workload::small().with_overrides(overrides),
            kind: JobKind::Campaign {
                schedules: vec![1, 3],
                seed: 20090417,
                faults: 2,
                diagnosis: false,
                shard: Some(ShardSpec::new(2, 3).unwrap()),
            },
            verify: None,
            deadline_ms: None,
        },
        JobSpec {
            workload: Workload::paper().with_scale(100),
            kind: JobKind::Lint {
                schedules: vec![1, 2, 3, 4],
                program: Some(("prog.tvp".into(), "test \"t1\"\n".into())),
            },
            verify: None,
            deadline_ms: None,
        },
        JobSpec {
            workload: Workload::paper().with_scale(200),
            kind: JobKind::Bounds {
                schedules: vec![2, 4],
            },
            verify: Some(1.0),
            deadline_ms: None,
        },
    ]
}

/// The seed payloads: every job's wire object, plus a schedule job
/// whose workload asks for a zero-word memory.
fn seeds() -> Vec<String> {
    let mut seeds: Vec<String> = jobs().iter().map(JobSpec::to_json).collect();
    let unbuildable = JobSpec {
        workload: Workload::small().with_mem_words(0),
        kind: JobKind::Schedule { index: 1 },
        verify: None,
        deadline_ms: None,
    };
    seeds.push(unbuildable.to_json());
    seeds
}

/// `payload` as the bytes of one wire frame.
fn framed(payload: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, payload).unwrap();
    bytes
}

/// Reads one frame from `bytes` and decodes it as a job: every failure
/// must be typed, and a decoded job must survive a `to_json` round trip.
fn fails_typed_or_round_trips(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(Some(text)) = read_frame(&mut &bytes[..]) else {
        return Ok(());
    };
    let Ok(v) = parse_json(&text) else {
        return Ok(());
    };
    if let Ok(job) = JobSpec::from_json(&v) {
        let again = job.to_json();
        let back = parse_json(&again).map_err(|e| TestCaseError(format!("{again}: {e}")))?;
        prop_assert_eq!(JobSpec::from_json(&back), Ok(job));
    }
    Ok(())
}

proptest! {
    /// Seed frames with a few bytes overwritten anywhere (length prefix
    /// included), then cut at an arbitrary length.
    #[test]
    fn mutated_job_frames_fail_typed_or_round_trip(
        pick in 0usize..5,
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..4),
        cut in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = framed(&seeds()[pick]);
        for &(at, byte) in &mutations {
            let len = bytes.len() as u64;
            bytes[(at % len) as usize] = byte;
        }
        if truncate {
            bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        }
        fails_typed_or_round_trips(&bytes)?;
    }

    /// Seed frames whose length prefix is replaced: shorter than the
    /// payload (the frame ends mid-object), longer (the read runs out of
    /// bytes), or past the frame cap (refused before allocating).
    #[test]
    fn corrupted_length_prefixes_fail_typed_or_round_trip(
        pick in 0usize..5,
        len in any::<u32>(),
        small in any::<bool>(),
    ) {
        let mut bytes = framed(&seeds()[pick]);
        let payload = bytes.len() as u32 - 4;
        let len = if small { len % (payload + 8) } else { len };
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        fails_typed_or_round_trips(&bytes)?;
    }
}

/// The unmutated seeds: every job frame decodes to its job, and the
/// zero-word memory is refused at decode.
#[test]
fn seeds_decode() {
    let seeds = seeds();
    for (job, seed) in jobs().into_iter().zip(&seeds) {
        let text = read_frame(&mut &framed(seed)[..]).unwrap().unwrap();
        assert_eq!(JobSpec::from_json(&parse_json(&text).unwrap()), Ok(job));
    }
    let unbuildable = parse_json(seeds.last().unwrap()).unwrap();
    assert_eq!(
        JobSpec::from_json(&unbuildable).unwrap_err(),
        "\"mem_words\" must be 1..=4026531840"
    );
}
