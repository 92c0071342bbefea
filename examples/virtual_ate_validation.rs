//! Virtual-ATE test program validation (paper Section III.E): execute a
//! correct and a buggy ATE test program against the SoC TLM; the Virtual
//! ATE catches the bug (a forgotten WIR configuration) and a defect
//! (a stuck scan cell changing the BIST signature).
//!
//! Run with `cargo run --example virtual_ate_validation`.

use std::rc::Rc;

use tve::core::{
    AteOp, DataPolicy, ScanKind, ScanSource, StuckCell, TestProgram, TestRun, WrapperMode,
};
use tve::sim::Simulation;
use tve::soc::{JpegEncoderSoc, SocConfig, PROC_WRAPPER_ADDR, RING_PROC};
use tve::tlm::TamIf;

fn bist_run(soc: &JpegEncoderSoc) -> TestRun {
    let src = ScanSource::new(
        &soc.handle,
        "proc BIST",
        Rc::clone(&soc.bus) as Rc<dyn TamIf>,
        PROC_WRAPPER_ADDR,
        tve::soc::initiators::BIST_PROC,
        soc.config.proc_scan,
        200,
        DataPolicy::Full,
        0xA7E,
        ScanKind::Bist,
    );
    TestRun::new("proc BIST", async move { src.run().await })
}

fn execute(program: TestProgram, fault: Option<StuckCell>) -> tve::core::ProgramReport {
    let mut sim = Simulation::new();
    let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
    soc.proc_wrapper.inject_fault(fault);
    let run = bist_run(&soc);
    let ate = Rc::new(soc.virtual_ate());
    let report = sim.spawn(async move { ate.execute(&program, vec![run]).await });
    sim.run();
    report.try_take().expect("program completed")
}

fn main() {
    // Golden run: configure the WIR, run the BIST, learn the signature.
    let golden = execute(
        TestProgram {
            name: "golden".to_string(),
            ops: vec![
                AteOp::SetConfig {
                    client: RING_PROC,
                    value: WrapperMode::Bist.encode(),
                },
                AteOp::RunTests(vec![0]),
            ],
        },
        None,
    );
    assert!(golden.passed());
    let signature = golden.outcomes[0].signature.expect("full-data run");
    println!("golden signature: {signature:#018x}\n");

    // A correct production test program.
    let good_program = |expected: u64| TestProgram {
        name: "production".to_string(),
        ops: vec![
            AteOp::SetConfig {
                client: RING_PROC,
                value: WrapperMode::Bist.encode(),
            },
            AteOp::RunTests(vec![0]),
            AteOp::ExpectSignature {
                wrapper: 0,
                expected,
            },
        ],
    };
    let ok = execute(good_program(signature), None);
    println!("correct program on a good die:    passed = {}", ok.passed());
    assert!(ok.passed());

    // The same program on a die with a stuck scan cell: caught.
    let defective = execute(
        good_program(signature),
        Some(StuckCell {
            chain: 2,
            position: 17,
            value: true,
        }),
    );
    println!(
        "correct program on a faulty die:   passed = {} ({})",
        defective.passed(),
        defective
            .errors
            .first()
            .map(ToString::to_string)
            .unwrap_or_default()
    );
    assert!(!defective.passed());

    // A buggy test program that forgets to configure the WIR: every
    // pattern is rejected by the wrapper, and validation catches it
    // before silicon ever sees the program.
    let buggy = execute(
        TestProgram {
            name: "buggy (no WIR setup)".to_string(),
            ops: vec![
                AteOp::RunTests(vec![0]),
                AteOp::ExpectSignature {
                    wrapper: 0,
                    expected: signature,
                },
            ],
        },
        None,
    );
    println!(
        "buggy program on a good die:       passed = {} ({} validation errors)",
        buggy.passed(),
        buggy.errors.len()
    );
    assert!(!buggy.passed());
    for e in &buggy.errors {
        println!("    caught: {e}");
    }
}
