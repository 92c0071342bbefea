//! Fuzzing the textual test-program format: the daemon's lint jobs accept
//! `.tvp` program text from clients, so no text may make the parser or
//! the program linter panic, and whatever parses must print back into
//! text that parses to the same program.
//!
//! - Parsing returns a program or a `ParseProgramError` whose span points
//!   at its token in the source.
//! - A parsed program round-trips through `to_string()`.
//! - `lint_program_report` accepts any text.
//!
//! Seeds are the example programs under `examples/programs/`, damaged by
//! byte overwrites, truncation and line splices. `PROPTEST_CASES` scales
//! the case count (CI runs this file with 2048).

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tve::core::TestProgram;
use tve::lint::{lint_program_report, soc_facts, PlanFacts};
use tve::soc::{SocConfig, SocTestPlan};

const SEEDS: [&str; 2] = [
    include_str!("../examples/programs/production.tvp"),
    include_str!("../examples/programs/seeded_defect.tvp"),
];

fn facts() -> &'static PlanFacts {
    static FACTS: OnceLock<PlanFacts> = OnceLock::new();
    FACTS.get_or_init(|| soc_facts(&SocConfig::paper(), &SocTestPlan::paper()))
}

/// Overwrites single bytes of `text` (positions taken modulo its
/// length) and repairs the result into UTF-8.
fn overwrite(text: &str, mutations: &[(u64, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, byte) in mutations {
        let len = bytes.len() as u64;
        bytes[(at % len) as usize] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Inserts line `from` of `donor` before line `to` of `text`, once per
/// pair (indices taken modulo the line counts), and drops line `to`
/// instead when `from` is even, so splices both grow and shrink.
fn splice(text: &str, donor: &str, splices: &[(u64, u64)]) -> String {
    let donor: Vec<&str> = donor.lines().collect();
    let mut lines: Vec<&str> = text.lines().collect();
    for &(from, to) in splices {
        let at = (to % (lines.len() as u64 + 1)) as usize;
        if from % 2 == 0 && at < lines.len() {
            lines.remove(at);
        } else {
            lines.insert(at, donor[(from % donor.len() as u64) as usize]);
        }
    }
    lines.join("\n")
}

/// The contract for any program text.
fn parses_typed_round_trips_and_lints(text: &str) -> Result<(), TestCaseError> {
    match TestProgram::parse_with_lines("fuzz", text) {
        Ok((program, lines)) => {
            prop_assert_eq!(lines.len(), program.ops.len());
            let printed = program.to_string();
            let back = TestProgram::parse("fuzz", &printed)
                .map_err(|e| TestCaseError(format!("{printed:?} does not reparse: {e}")))?;
            prop_assert_eq!(back, program);
        }
        Err(e) if e.line == 0 => {
            // The span-less "empty program" error: no line holds an op.
            prop_assert_eq!(e.column, 0);
        }
        Err(e) => {
            let line = text.lines().nth(e.line - 1).unwrap_or_default();
            prop_assert!(
                line.get(e.column - 1..)
                    .is_some_and(|rest| rest.starts_with(&e.token)),
                "{e}: token {:?} not at column {} of {line:?}",
                e.token,
                e.column
            );
        }
    }
    let _ = lint_program_report("fuzz", text, facts());
    Ok(())
}

#[test]
fn seeds_parse_and_round_trip() {
    for seed in SEEDS {
        assert!(TestProgram::parse("seed", seed).is_ok());
        parses_typed_round_trips_and_lints(seed).unwrap();
    }
}

proptest! {
    /// Programs with a few bytes overwritten.
    #[test]
    fn overwritten_programs_parse_typed_and_round_trip(
        seed in 0usize..2,
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
    ) {
        parses_typed_round_trips_and_lints(&overwrite(SEEDS[seed], &mutations))?;
    }

    /// Programs cut off at any byte, mid-token and mid-character
    /// included.
    #[test]
    fn truncated_programs_parse_typed_and_round_trip(
        seed in 0usize..2,
        cut in any::<u64>(),
    ) {
        let bytes = SEEDS[seed].as_bytes();
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        parses_typed_round_trips_and_lints(&String::from_utf8_lossy(&bytes[..cut]))?;
    }

    /// Programs with lines deleted, or moved in from either seed.
    #[test]
    fn spliced_programs_parse_typed_and_round_trip(
        seed in 0usize..2,
        donor in 0usize..2,
        splices in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..6),
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..2),
    ) {
        let spliced = splice(SEEDS[seed], SEEDS[donor], &splices);
        let text = if mutations.is_empty() || spliced.is_empty() {
            spliced
        } else {
            overwrite(&spliced, &mutations)
        };
        parses_typed_round_trips_and_lints(&text)?;
    }
}
