//! Signature-based defect diagnosis (the "Debug/Diagnosis" strategy of the
//! paper's Fig. 1): locate a failing BIST down to the first failing pattern
//! and the defective scan cells, by exploiting that pseudo-random patterns
//! are *reproducible* from the PRPG seed.
//!
//! Procedure: (1) stream patterns into the device under diagnosis and a
//! golden reference in windows, reading both MISR signatures per window —
//! the first mismatching window brackets the defect; (2) switch to raw
//! int-test mode, regenerate the window's patterns from the seed, and
//! compare full response images pattern by pattern — the first difference
//! names the failing pattern, and its differing bits name the scan cells.

use std::fmt;

use tve_sim::SimHandle;
use tve_tlm::TamIfExt;
use tve_tpg::{Prpg, ScanConfig};

use crate::config_bus::ConfigClient;
use crate::wrapper::{TestWrapper, WrapperMode};

/// One located defective scan cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailingCell {
    /// The chain holding the cell.
    pub chain: u32,
    /// Cell position within the chain.
    pub position: u32,
}

impl fmt::Display for FailingCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chain {} cell {}", self.chain, self.position)
    }
}

/// Result of a diagnosis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisReport {
    /// Index of the first pattern whose response differs, if any defect
    /// was observed.
    pub first_failing_pattern: Option<u64>,
    /// The scan cells differing at that pattern.
    pub failing_cells: Vec<FailingCell>,
    /// Signature windows compared in phase 1.
    pub(crate) windows_compared: u64,
    /// Patterns re-applied bit-true in phase 2.
    pub(crate) patterns_reapplied: u64,
}

impl DiagnosisReport {
    /// Whether a defect was observed.
    pub fn defective(&self) -> bool {
        self.first_failing_pattern.is_some()
    }
}

impl fmt::Display for DiagnosisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.first_failing_pattern {
            Some(p) => {
                write!(f, "defect at pattern {p}, cells [")?;
                for (i, c) in self.failing_cells.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(
                    f,
                    "] ({} windows, {} patterns re-applied)",
                    self.windows_compared, self.patterns_reapplied
                )
            }
            None => write!(
                f,
                "no defect observed ({} windows compared)",
                self.windows_compared
            ),
        }
    }
}

/// Diagnoses `dut` against `golden` (two wrappers around the *same* core
/// model, one carrying the suspected defect), both accessed directly at
/// the diagnosis station.
///
/// `seed` and `patterns` must match the production BIST run that flagged
/// the part; `window` trades phase-1 signature reads against phase-2
/// pattern re-application.
///
/// # Panics
///
/// Panics if `window` is zero or the wrappers' scan geometries differ
/// from `scan`.
pub async fn diagnose_bist(
    handle: &SimHandle,
    golden: &TestWrapper,
    dut: &TestWrapper,
    scan: ScanConfig,
    seed: u64,
    patterns: u64,
    window: u64,
) -> DiagnosisReport {
    assert!(window > 0, "diagnosis window must be positive");
    assert_eq!(golden.scan_config(), scan, "golden scan geometry");
    assert_eq!(dut.scan_config(), scan, "dut scan geometry");
    let _ = handle;
    let bits = scan.bits_per_pattern();

    // Phase 1: windowed signature comparison in BIST mode.
    golden.load_config(WrapperMode::Bist.encode());
    dut.load_config(WrapperMode::Bist.encode());
    let mut prpg = Prpg::new(32, seed | 1, scan).expect("degree-32 PRPG");
    let mut report = DiagnosisReport {
        first_failing_pattern: None,
        failing_cells: Vec::new(),
        windows_compared: 0,
        patterns_reapplied: 0,
    };
    let init = tve_tlm::InitiatorId(0);
    let mut applied = 0u64;
    let mut failing_window_start = None;
    while applied < patterns {
        let in_window = window.min(patterns - applied);
        for _ in 0..in_window {
            let p = prpg.next_pattern();
            let words = p.stimulus().words();
            golden
                .write(init, 0, words, bits)
                .await
                .expect("golden accepts patterns in BIST mode");
            dut.write(init, 0, words, bits)
                .await
                .expect("dut accepts patterns in BIST mode");
        }
        applied += in_window;
        report.windows_compared += 1;
        let sig_golden = golden.read(init, 0, 64).await.expect("signature read");
        let sig_dut = dut.read(init, 0, 64).await.expect("signature read");
        if sig_golden != sig_dut {
            failing_window_start = Some(applied - in_window);
            break;
        }
    }
    let Some(window_start) = failing_window_start else {
        return report;
    };

    // Phase 2: raw response comparison within the failing window.
    golden.load_config(WrapperMode::IntTest.encode());
    dut.load_config(WrapperMode::IntTest.encode());
    let mut prpg = Prpg::new(32, seed | 1, scan).expect("degree-32 PRPG");
    prpg.skip_patterns(window_start);
    for k in 0..window.min(patterns - window_start) {
        let p = prpg.next_pattern();
        let words = p.stimulus().words();
        golden
            .write(init, 0, words, bits)
            .await
            .expect("golden accepts");
        dut.write(init, 0, words, bits).await.expect("dut accepts");
        report.patterns_reapplied += 1;
        // Read at the dedicated response address: for scan geometries of
        // 64 bits per pattern or less, an address-0 read of `bits` would
        // be served as a signature readout instead.
        let addr = TestWrapper::RESPONSE_IMAGE_ADDR;
        let resp_golden = golden.read(init, addr, bits).await.expect("response read");
        let resp_dut = dut.read(init, addr, bits).await.expect("response read");
        if resp_golden != resp_dut {
            report.first_failing_pattern = Some(window_start + k);
            let len = scan.max_chain_len();
            for (w, (g, d)) in resp_golden.iter().zip(&resp_dut).enumerate() {
                let mut diff = g ^ d;
                while diff != 0 {
                    let bit = diff.trailing_zeros();
                    let index = w as u32 * 32 + bit;
                    report.failing_cells.push(FailingCell {
                        chain: index / len,
                        position: index % len,
                    });
                    diff &= diff - 1;
                }
            }
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StuckCell, SyntheticLogicCore};
    use crate::wrapper::WrapperConfig;
    use std::rc::Rc;
    use tve_sim::Simulation;

    fn pair(sim: &Simulation, scan: ScanConfig) -> (Rc<TestWrapper>, Rc<TestWrapper>) {
        let mk = |name: &str| {
            Rc::new(TestWrapper::new(
                &sim.handle(),
                WrapperConfig {
                    name: name.to_string(),
                    ..WrapperConfig::default()
                },
                Rc::new(SyntheticLogicCore::new("core", scan, 0xD1A6)),
            ))
        };
        (mk("golden"), mk("dut"))
    }

    fn run_diagnosis(fault: Option<StuckCell>, patterns: u64, window: u64) -> DiagnosisReport {
        let mut sim = Simulation::new();
        let scan = ScanConfig::new(4, 32);
        let (golden, dut) = pair(&sim, scan);
        dut.inject_fault(fault);
        let h = sim.handle();
        let jh =
            sim.spawn(
                async move { diagnose_bist(&h, &golden, &dut, scan, 7, patterns, window).await },
            );
        sim.run();
        jh.try_take().expect("diagnosis completed")
    }

    #[test]
    fn clean_device_reports_no_defect() {
        let r = run_diagnosis(None, 64, 16);
        assert!(!r.defective());
        assert_eq!(r.windows_compared, 4);
        assert_eq!(r.patterns_reapplied, 0);
        assert!(r.to_string().contains("no defect"));
    }

    #[test]
    fn stuck_cell_is_located_exactly() {
        let fault = StuckCell {
            chain: 2,
            position: 17,
            value: true,
        };
        let r = run_diagnosis(Some(fault), 64, 16);
        assert!(r.defective(), "{r}");
        assert_eq!(
            r.failing_cells,
            vec![FailingCell {
                chain: 2,
                position: 17
            }],
            "{r}"
        );
        // The first failing pattern is where the golden response first
        // disagrees with the stuck value — necessarily in the first
        // window for a dense pseudo-random response stream.
        let p = r.first_failing_pattern.unwrap();
        assert!(p < 16, "found at pattern {p}");
        assert!(r.patterns_reapplied <= 16);
    }

    #[test]
    fn diagnosis_effort_scales_with_window_choice() {
        let fault = StuckCell {
            chain: 0,
            position: 5,
            value: false,
        };
        let coarse = run_diagnosis(Some(fault), 64, 32);
        let fine = run_diagnosis(Some(fault), 64, 4);
        assert_eq!(coarse.first_failing_pattern, fine.first_failing_pattern);
        assert_eq!(coarse.failing_cells, fine.failing_cells);
        // Finer windows re-apply fewer patterns in phase 2.
        assert!(fine.patterns_reapplied <= coarse.patterns_reapplied);
    }

    #[test]
    fn different_faults_localize_differently() {
        let a = run_diagnosis(
            Some(StuckCell {
                chain: 1,
                position: 0,
                value: true,
            }),
            64,
            16,
        );
        let b = run_diagnosis(
            Some(StuckCell {
                chain: 3,
                position: 31,
                value: true,
            }),
            64,
            16,
        );
        assert_ne!(a.failing_cells, b.failing_cells);
        assert_eq!(a.failing_cells[0].chain, 1);
        assert_eq!(b.failing_cells[0].chain, 3);
    }
}
