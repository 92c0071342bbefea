//! The ATE model and the Virtual ATE test-program interpreter (paper
//! Section III.E): "for verification purposes, Virtual ATE software can be
//! interfaced to the test controller and EBI to simulate the actual test
//! program instructions".

use std::fmt;
use std::rc::Rc;

use tve_sim::{Duration, SimHandle};

use crate::config_bus::ConfigScanRing;
use crate::outcome::TestOutcome;
use crate::schedule::TestRun;
use crate::wrapper::TestWrapper;

/// One instruction of an ATE test program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AteOp {
    /// Rotate the configuration ring once, loading all client registers.
    ConfigureRing(Vec<u64>),
    /// Write one WIR/config register over the ring.
    SetConfig {
        /// Ring client index.
        client: usize,
        /// Register value.
        value: u64,
    },
    /// Launch the given test sequences concurrently and wait for all.
    RunTests(Vec<usize>),
    /// Compare a wrapper's BIST signature against the expected value.
    ExpectSignature {
        /// Wrapper index (in the ATE's wrapper list).
        wrapper: usize,
        /// Golden signature.
        expected: u64,
    },
    /// Idle for a number of cycles (settling, power ramps).
    WaitCycles(u64),
}

/// A complete ATE test program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestProgram {
    /// Program name.
    pub name: String,
    /// The instruction sequence.
    pub ops: Vec<AteOp>,
}

/// Errors detected while executing a test program — the *validation*
/// product of the Virtual ATE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AteError {
    /// A signature comparison failed.
    SignatureMismatch {
        /// Wrapper index.
        wrapper: usize,
        /// Expected golden signature.
        expected: u64,
        /// Observed signature.
        observed: u64,
    },
    /// A test sequence reported transport errors or mismatches.
    TestFailed {
        /// Sequence name.
        name: String,
        /// Transport errors observed.
        errors: u64,
        /// Response mismatches observed.
        mismatches: u64,
    },
    /// The program referenced a test index that does not exist or was
    /// already consumed.
    UnknownTest(usize),
    /// The program referenced a wrapper index that does not exist.
    UnknownWrapper(usize),
}

impl fmt::Display for AteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AteError::SignatureMismatch {
                wrapper,
                expected,
                observed,
            } => write!(
                f,
                "wrapper {wrapper}: signature {observed:#x}, expected {expected:#x}"
            ),
            AteError::TestFailed {
                name,
                errors,
                mismatches,
            } => write!(
                f,
                "test '{name}' failed ({errors} errors, {mismatches} mismatches)"
            ),
            AteError::UnknownTest(t) => write!(f, "unknown or already-run test {t}"),
            AteError::UnknownWrapper(w) => write!(f, "unknown wrapper {w}"),
        }
    }
}

impl std::error::Error for AteError {}

/// Execution record of a test program.
#[derive(Debug)]
pub struct ProgramReport {
    /// Outcomes of all executed test sequences.
    pub outcomes: Vec<TestOutcome>,
    /// Validation errors in execution order.
    pub errors: Vec<AteError>,
}

impl ProgramReport {
    /// Whether the program executed without validation errors.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The Virtual ATE: executes [`TestProgram`]s against the modeled test
/// infrastructure, catching configuration mistakes (wrong WIR before a
/// test), signature mismatches and transport failures.
pub struct VirtualAte {
    handle: SimHandle,
    ring: Rc<ConfigScanRing>,
    wrappers: Vec<Rc<TestWrapper>>,
}

impl fmt::Debug for VirtualAte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualAte")
            .field("wrappers", &self.wrappers.len())
            .finish()
    }
}

impl VirtualAte {
    /// Creates a Virtual ATE controlling `ring` and observing `wrappers`.
    pub fn new(
        handle: &SimHandle,
        ring: Rc<ConfigScanRing>,
        wrappers: Vec<Rc<TestWrapper>>,
    ) -> Self {
        VirtualAte {
            handle: handle.clone(),
            ring,
            wrappers,
        }
    }

    /// Executes `program`, consuming test sequences from `tests` as
    /// referenced by [`AteOp::RunTests`]. Execution continues past
    /// validation errors so a single run reports *all* problems.
    pub async fn execute(&self, program: &TestProgram, tests: Vec<TestRun>) -> ProgramReport {
        let mut tests: Vec<Option<TestRun>> = tests.into_iter().map(Some).collect();
        let mut report = ProgramReport {
            outcomes: Vec::new(),
            errors: Vec::new(),
        };
        for op in &program.ops {
            match op {
                AteOp::ConfigureRing(values) => {
                    self.ring.write_all(values).await;
                }
                AteOp::SetConfig { client, value } => {
                    self.ring.write(*client, *value).await;
                }
                AteOp::WaitCycles(c) => {
                    self.handle.wait(Duration::cycles(*c)).await;
                }
                AteOp::RunTests(indices) => {
                    let mut handles = Vec::new();
                    for &t in indices {
                        match tests.get_mut(t).and_then(Option::take) {
                            Some(run) => handles.push(self.handle.spawn(run.into_future())),
                            None => report.errors.push(AteError::UnknownTest(t)),
                        }
                    }
                    for jh in handles {
                        let outcome = jh.await;
                        if !outcome.clean() {
                            report.errors.push(AteError::TestFailed {
                                name: outcome.name.clone(),
                                errors: outcome.errors,
                                mismatches: outcome.mismatches,
                            });
                        }
                        report.outcomes.push(outcome);
                    }
                }
                AteOp::ExpectSignature { wrapper, expected } => match self.wrappers.get(*wrapper) {
                    Some(w) => {
                        let observed = w.signature();
                        if observed != *expected {
                            report.errors.push(AteError::SignatureMismatch {
                                wrapper: *wrapper,
                                expected: *expected,
                                observed,
                            });
                        }
                    }
                    None => report.errors.push(AteError::UnknownWrapper(*wrapper)),
                },
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_bus::ConfigClient;
    use crate::model::{DataPolicy, SyntheticLogicCore};
    use crate::source::{ScanKind, ScanSource};
    use crate::wrapper::{WrapperConfig, WrapperMode};
    use tve_sim::Simulation;
    use tve_tlm::{InitiatorId, TamIf};
    use tve_tpg::ScanConfig;

    struct Rig {
        sim: Simulation,
        ate: Rc<VirtualAte>,
        wrapper: Rc<TestWrapper>,
    }

    fn rig() -> Rig {
        let sim = Simulation::new();
        let h = sim.handle();
        let core = Rc::new(SyntheticLogicCore::new("c", ScanConfig::new(2, 16), 5));
        let wrapper = Rc::new(TestWrapper::new(&h, WrapperConfig::default(), core));
        let ring = Rc::new(ConfigScanRing::new(
            &h,
            vec![wrapper.clone() as Rc<dyn ConfigClient>],
            1,
        ));
        let ate = Rc::new(VirtualAte::new(&h, ring, vec![wrapper.clone()]));
        Rig { sim, ate, wrapper }
    }

    fn bist_run(sim: &Simulation, wrapper: &Rc<TestWrapper>) -> TestRun {
        let src = ScanSource::new(
            &sim.handle(),
            "bist",
            wrapper.clone() as Rc<dyn TamIf>,
            0,
            InitiatorId(0),
            ScanConfig::new(2, 16),
            8,
            DataPolicy::Full,
            17,
            ScanKind::Bist,
        );
        TestRun::new("bist", async move { src.run().await })
    }

    fn golden_signature() -> u64 {
        let r = rig();
        let mut sim = r.sim;
        let run = bist_run(&sim, &r.wrapper);
        let ate = Rc::clone(&r.ate);
        let program = TestProgram {
            name: "golden".to_string(),
            ops: vec![
                AteOp::SetConfig {
                    client: 0,
                    value: WrapperMode::Bist.encode(),
                },
                AteOp::RunTests(vec![0]),
            ],
        };
        let jh = sim.spawn(async move { ate.execute(&program, vec![run]).await });
        sim.run();
        let report = jh.try_take().unwrap();
        assert!(report.passed(), "{:?}", report.errors);
        report.outcomes[0].signature.unwrap()
    }

    #[test]
    fn correct_program_passes_with_expected_signature() {
        let golden = golden_signature();
        let r = rig();
        let mut sim = r.sim;
        let run = bist_run(&sim, &r.wrapper);
        let ate = Rc::clone(&r.ate);
        let program = TestProgram {
            name: "good".to_string(),
            ops: vec![
                AteOp::SetConfig {
                    client: 0,
                    value: WrapperMode::Bist.encode(),
                },
                AteOp::RunTests(vec![0]),
                AteOp::ExpectSignature {
                    wrapper: 0,
                    expected: golden,
                },
            ],
        };
        let jh = sim.spawn(async move { ate.execute(&program, vec![run]).await });
        let end = sim.run();
        let report = jh.try_take().unwrap();
        assert!(report.passed(), "{:?}", report.errors);
        assert!(end.cycles() > 0);
    }

    #[test]
    fn forgotten_wir_configuration_is_caught() {
        // The validation use-case: the program launches the BIST without
        // configuring the wrapper — every pattern is rejected.
        let r = rig();
        let mut sim = r.sim;
        let run = bist_run(&sim, &r.wrapper);
        let ate = Rc::clone(&r.ate);
        let program = TestProgram {
            name: "buggy".to_string(),
            ops: vec![AteOp::RunTests(vec![0])],
        };
        let jh = sim.spawn(async move { ate.execute(&program, vec![run]).await });
        sim.run();
        let report = jh.try_take().unwrap();
        assert!(!report.passed());
        assert!(matches!(report.errors[0], AteError::TestFailed { .. }));
    }

    #[test]
    fn wrong_expected_signature_is_reported() {
        let r = rig();
        let mut sim = r.sim;
        let run = bist_run(&sim, &r.wrapper);
        let ate = Rc::clone(&r.ate);
        let program = TestProgram {
            name: "wrong-golden".to_string(),
            ops: vec![
                AteOp::SetConfig {
                    client: 0,
                    value: WrapperMode::Bist.encode(),
                },
                AteOp::RunTests(vec![0]),
                AteOp::ExpectSignature {
                    wrapper: 0,
                    expected: 0xDEAD,
                },
            ],
        };
        let jh = sim.spawn(async move { ate.execute(&program, vec![run]).await });
        sim.run();
        let report = jh.try_take().unwrap();
        assert!(matches!(
            report.errors[0],
            AteError::SignatureMismatch { .. }
        ));
    }

    #[test]
    fn unknown_references_are_reported_not_fatal() {
        let r = rig();
        let mut sim = r.sim;
        let ate = Rc::clone(&r.ate);
        let program = TestProgram {
            name: "refs".to_string(),
            ops: vec![
                AteOp::RunTests(vec![3]),
                AteOp::ExpectSignature {
                    wrapper: 9,
                    expected: 0,
                },
                AteOp::WaitCycles(10),
            ],
        };
        let jh = sim.spawn(async move { ate.execute(&program, vec![]).await });
        let end = sim.run();
        let report = jh.try_take().unwrap();
        assert_eq!(report.errors.len(), 2);
        assert_eq!(end.cycles(), 10);
    }
}
